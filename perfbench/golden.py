"""Rewrite ``golden_paper_sweep.json``: the summary digest of every
paper-sweep grid point on the default seed.

Run from the repository root after a change that is *meant* to move the
paper's numbers (about 30 s):

    python3 perfbench/golden.py
"""

from __future__ import annotations

import json
import sys

import common

if __name__ == "__main__":
    if not common.bootstrap():
        sys.exit("src/repro not found: run from a checkout of the repository")
    import paper_sweep

    state = paper_sweep.setup(common.DEFAULT_SEED)
    digests = {}
    for size in paper_sweep.SIZES:
        _, rows = paper_sweep.run_round(state, size)
        for row in rows:
            digests[row.key] = paper_sweep.summary_digest(row.point.summary)
    paper_sweep.GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests -> {paper_sweep.GOLDEN}")
