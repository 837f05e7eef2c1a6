"""Run one benchmark workload and report its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 12 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is a separate traced run that reports the per-layer
metrics.  Every metric is printed with its unit and sample count, then
the full result goes to ``.perfbench/<workload>-seed<N>-trace<T>.json``
and the last line of standard output is the one-line JSON summary.  The
exit code is 0 when every correctness check passed, 1 when one failed
and 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import common

WORKLOADS = ("paper-sweep", "serve-open", "serve-updates", "serve-tcp")


def _module(workload: str):
    if workload == "paper-sweep":
        import paper_sweep

        return paper_sweep
    if workload == "serve-tcp":
        import serve_tcp

        return serve_tcp
    import serve_inproc

    return serve_inproc


def _report(result, env: dict, names) -> None:
    print(
        f"{result.workload} seed={env['seed']} trace={int(result.traced)} "
        f"nproc={env['nproc']} python={env['python']} "
        f"source={env['source_digest']} calibration_ms={env['calibration_ms']} "
        f"steal_frac={env['steal_frac']}"
    )
    # The metrics BENCHMARK.json names, then what the workload reports
    # beside them (knee_rps, inv_p99_ms, ...), which no bound gates.
    others = [name for name in result.metrics if name not in names]
    for name in list(names) + others:
        entry = result.metrics[name]
        note = "  (not gated)" if name in others else ""
        if "alias" in entry:
            note = f"  = {entry['alias']}"
        elif "moves" in entry:
            note = f"  -> {entry['moves']}"
        print(
            f"  {name:40s} {entry['value']:14.6g} {entry['unit']:6s} "
            f"({entry['samples']} samples){note}"
        )
    fail_frac = result.failed / result.attempted if result.attempted else 0.0
    print(
        f"  {'fail_frac':40s} {fail_frac:14.6g} "
        f"({result.failed} of {result.attempted} operations failed)"
    )
    for problem in result.problems:
        print(f"  FAILED CHECK: {problem}")


# String hashing is randomized per process, and with it the layout of
# every dict keyed by strings -- the frames, the codec, the program's
# tables.  Identical work then runs a few percent faster or slower from
# one process to the next (over six processes each: coefficient of
# variation 0.038 randomized, 0.016 fixed), so the benchmark, and the
# serve-tcp server it starts, run with one fixed hash seed.
HASH_SEED = "0"


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable] + sys.argv)
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec_path = common.ROOT / "BENCHMARK.json"
    if not common.bootstrap() or not spec_path.is_file():
        print(
            "perfbench: src/repro or BENCHMARK.json not found; run from the "
            "root of a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    env = common.environment(args.seed, common.calibration_probe())
    result = common.Result(args.workload, bool(args.trace))
    steal_before, wall_before = common.steal_s(), time.perf_counter()
    _module(args.workload).run(
        args.workload, args.seed, float(args.seconds), bool(args.trace), result
    )
    # Share of the machine's vCPU time the host took away during the
    # run: what the CPU-clock metrics leave out and wall clocks do not.
    env["steal_frac"] = round(
        (common.steal_s() - steal_before)
        / ((time.perf_counter() - wall_before) * (os.cpu_count() or 1)),
        4,
    )
    if args.trace:
        import layers

        layers.fill_missing(result)
    names = [metric["name"] for metric in wanted]
    for metric in wanted:
        produced = result.metrics.get(metric["name"])
        if produced is None or produced["unit"] != metric["unit"]:
            result.problem(
                f"metric {metric['name']} missing or not in {metric['unit']}"
            )
            result.metric(metric["name"], 0.0, metric["unit"], 0)

    common.OUT_DIR.mkdir(exist_ok=True)
    out = common.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result.document(env), indent=1) + "\n")
    _report(result, env, names)
    print(f"  full result -> {out.relative_to(common.ROOT)}")
    print(result.summary_line(names))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
