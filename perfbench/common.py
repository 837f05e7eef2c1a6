"""Shared pieces of the benchmark: paths, percentiles, probes, results.

Nothing here imports the program under test; :func:`bootstrap` puts the
checkout's ``src/`` on ``sys.path`` so the workload modules can.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Per-run documents and span dumps land here (ignored by git).
OUT_DIR = ROOT / ".perfbench"

# The seed the golden paper-sweep digests were recorded with.
DEFAULT_SEED = 1


def bootstrap() -> bool:
    """Make ``import repro`` resolve to this checkout; False when absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# The timed metrics are read on CPU clocks, not on the wall clock.  A
# shared host takes the vCPU away for stretches (steal time), and on the
# wall clock each stretch lands in whatever request or point was
# running; the kernel's task clock leaves steal out (paravirtual steal
# accounting), so CPU seconds measure the program and not its neighbours.
# ``thread_cpu`` times the calling thread, ``process_cpu`` every thread
# of this process.
thread_cpu = time.thread_time
process_cpu = time.process_time


class ProcessCPU:
    """CPU seconds another process has run, read from the scheduler's
    ``/proc/<pid>/schedstat`` (nanoseconds on the task clock, steal left
    out as for :data:`thread_cpu`).  Reads cost about a microsecond."""

    def __init__(self, pid: int) -> None:
        self._fd = os.open(f"/proc/{pid}/schedstat", os.O_RDONLY)

    def __call__(self) -> float:
        return int(os.pread(self._fd, 64, 0).split()[0]) / 1e9

    def close(self) -> None:
        os.close(self._fd)


def steal_s() -> float:
    """Seconds of steal time the host has taken from this machine's
    vCPUs since boot (0.0 where ``/proc/stat`` does not report it)."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_loop(iterations: int) -> float:
    """A fixed pure-Python loop, owned by the benchmark and never by the
    program, so no change to the program can move it.  It mixes the
    operations the program's hot paths are made of -- dict and list
    traffic, float arithmetic, small-object churn and a sort."""
    table: Dict[int, float] = {}
    acc = 0.0
    for i in range(iterations):
        key = (i * 7919) % 4093
        acc += table.get(key, 0.5) * 1.000001
        table[key] = acc % 97.0
        if i % 64 == 0:
            sorted([(v, k) for k, v in list(table.items())[:64]])
    return acc


# A get frame as the serve stack sends it.
FRAME = {
    "type": "get",
    "client_id": 17,
    "server_id": 3,
    "object_id": 52_811,
    "size": 14_336,
    "time": 4_211.25,
    "path": [40, 41, 42, 43, 44, 45, 46, 47],
    "trace": None,
}


def frame_loop(frames: int) -> int:
    """Round trips of :data:`FRAME` through JSON, as the serve stack's
    codec makes them (the standard library's, never the program's)."""
    size = 0
    for i in range(frames):
        frame = dict(FRAME, client_id=i)
        payload = json.dumps(frame, separators=(",", ":")).encode("utf-8")
        message = json.loads(payload.decode("utf-8"))
        message["hops"] = message.get("hops", 0) + 1
        size += len(payload)
    return size


# Timings of the calibration loop whose median is reported.
CALIBRATION_REPEATS = 5


def calibration_probe() -> float:
    """Median wall time (ms) of 10,000 turns of :func:`reference_loop`,
    taken once before a run.  Results from different machines divide by
    it to become comparable; it is recorded only."""
    timings = []
    for _ in range(CALIBRATION_REPEATS):
        started = time.perf_counter()
        reference_loop(10_000)
        timings.append((time.perf_counter() - started) * 1e3)
    return statistics.median(timings)


# The speed reference: SPEED_LOOP turns of the reference loop, or for the
# serve workloads SPEED_FRAMES frame round trips and SPEED_FRAMES_LOOP
# turns, run every SPEED_INTERVAL_S CPU seconds in between the program's
# operations.  On the machine the benchmark was tuned on (2-vCPU Xeon
# VM, Python 3.11) one probe takes 1-2 ms; SPEED_NOMINAL_S is the unit.
SPEED_LOOP = 1500
SPEED_FRAMES = 60
SPEED_FRAMES_LOOP = 700
SPEED_INTERVAL_S = 0.04
SPEED_NOMINAL_S = 0.002


class Speedometer:
    """How fast the machine runs right now, measured in between the
    program's operations.

    A shared host's CPUs change speed by 1.5-1.9x within seconds, for
    reasons no CPU clock leaves out (a neighbour on the same core, the
    clock rate): identical work measured twice in one run took 0.58 and
    0.92 ms per request.  The benchmark's own fixed loop slows down
    with the program, so the timed metrics scale the program's CPU
    seconds by ``SPEED_NOMINAL_S / probe time``: seconds on a machine
    where one probe takes SPEED_NOMINAL_S.  On identical work that cut
    the spread (coefficient of variation) from 0.13 to 0.055.  The
    program cannot move the factor, so a change to the program moves the
    scaled metrics exactly as it moves the raw ones.  With ``frames``
    (the serve workloads) the probe also round-trips get frames through
    JSON, as the serve stack's codec does: on ten passes of identical
    serve work it tracked the program better than the loop alone
    (spread 0.028 against 0.043).

    :meth:`tick` goes between operations, outside their timing; it
    probes once SPEED_INTERVAL_S of CPU time has passed since the last
    probe (at once with ``force``) and returns the CPU seconds the probe
    took.
    """

    def __init__(self, frames: bool = False) -> None:
        self.frames = frames
        self.probe_s = 0.0
        self.times: List[float] = []  # CPU seconds of each probe
        self._due = 0.0

    def tick(self, force: bool = False) -> float:
        now = thread_cpu()
        if now < self._due and not force:
            return 0.0
        if self.frames:
            frame_loop(SPEED_FRAMES)
            reference_loop(SPEED_FRAMES_LOOP)
        else:
            reference_loop(SPEED_LOOP)
        ended = thread_cpu()
        self.probe_s += ended - now
        self.times.append(ended - now)
        self._due = ended + SPEED_INTERVAL_S
        return ended - now

    @property
    def factor(self) -> float:
        """Seconds on the nominal machine per CPU second measured here."""
        if not self.times:
            self.tick()
        return SPEED_NOMINAL_S * len(self.times) / self.probe_s


def source_digest() -> str:
    """Short content digest of the program sources (the checkout is not a
    git repository, so this stands in for the commit id)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(seed: int, calibration_ms: float) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "source_digest": source_digest(),
        "seed": seed,
        "calibration_ms": round(calibration_ms, 3),
    }


class Result:
    """What one run reports: metrics with units and sample counts, the
    attempted/failed tally, and the correctness verdict."""

    def __init__(self, workload: str, traced: bool) -> None:
        self.workload = workload
        self.traced = traced
        self.metrics: Dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.info: dict = {}

    def metric(
        self,
        name: str,
        value: float,
        unit: str,
        samples: int,
        moves: Optional[str] = None,
        alias: Optional[str] = None,
    ) -> None:
        """Record a metric; ``moves`` tags a per-layer metric with the
        end-to-end metric it should move, ``alias`` names what an
        end-to-end metric is on this workload (``sim_rps``, ...)."""
        entry = {"value": float(value), "unit": unit, "samples": int(samples)}
        if moves is not None:
            entry["moves"] = moves
        if alias is not None:
            entry["alias"] = alias
        self.metrics[name] = entry

    def problem(self, message: str) -> None:
        """Record a failed correctness check (the run then fails)."""
        self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems

    def document(self, env: dict) -> dict:
        return {
            "workload": self.workload,
            "traced": self.traced,
            "environment": env,
            "correct": self.correct,
            "problems": self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "fail_frac": self.failed / self.attempted if self.attempted else None,
            "metrics": self.metrics,
            "info": self.info,
        }

    def summary_line(self, names: Sequence[str]) -> str:
        """The one-line JSON summary that ends a run's output."""
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {
                        "value": self.metrics[name]["value"],
                        "unit": self.metrics[name]["unit"],
                    }
                    for name in names
                },
            }
        )
