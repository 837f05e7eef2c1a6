"""``paper-sweep``: the paper's figure grid, as ``reproduce.py`` runs it.

Both architectures x {lru, modulo (radius 4), lnc-r, coordinated} x
``DEFAULT_CACHE_SIZES`` on the ``SMALL_SCALE`` trace, through
:func:`~repro.experiments.sweeps.run_cache_size_sweep` with
``workers=1``.  The grid is cut into *rounds*, one cache size each
(8 points of 12k requests).

A timed run makes ``--seconds / PASS_NOMINAL_S`` passes (at least two)
over the round at ``PASS_SIZE``, so the amount of work is fixed by the
argument, never by the clock, and every pass does exactly the same work.
The metrics pool all passes; doing the oracle checks between passes
spreads the measurement over the run.  They are read on the CPU clock:
set-up CPU time, requests simulated per CPU second and CPU time per
simulated request.

Checks, all outside the timed region:

* with the default seed, every point's summary matches the golden
  digest in ``golden_paper_sweep.json`` (``python3 perfbench/golden.py``
  rewrites it), and every pass reproduces it exactly;
* on any seed, one sampled point per architecture is bit-identical
  through the columnar fast path and through an in-process sequential
  :class:`~repro.serve.loadgen.LoadGenerator` replay.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import statistics
import time
from dataclasses import asdict, dataclass

import inputs
from common import (
    BENCH_DIR,
    DEFAULT_SEED,
    OUT_DIR,
    peak_rss_mb,
    percentile,
    SPEED_NOMINAL_S,
    Speedometer,
    process_cpu,
    thread_cpu,
)

ARCHS = ("en-route", "hierarchical")
SCHEMES = ("lru", "modulo", "lnc-r", "coordinated")
SCHEME_PARAMS = {"modulo": {"radius": 4}}
SIZES = (0.001, 0.003, 0.01, 0.03, 0.1)  # DEFAULT_CACHE_SIZES
PASS_SIZE = 0.01         # the round a timed run repeats (mid-grid)
PASS_NOMINAL_S = 5.0     # one pass, roughly
SETUPS_PER_PASS = 3      # set-ups timed before each pass
MIN_POINT_PROBES = 3     # speed probes a point needs to be scaled by its own
GOLDEN = BENCH_DIR / "golden_paper_sweep.json"


@dataclass
class Row:
    """One grid point of one pass."""

    arch: str
    scheme: str
    point: object         # the sweep's SweepPoint
    record: object        # its RunRecord
    wall: float           # seconds, as the benchmark saw the point take
    cpu: float            # CPU seconds of the point
    per_request: list     # seconds per measured request (RequestClock)

    @property
    def key(self) -> str:
        return point_key(self.arch, self.scheme, self.point.relative_cache_size)


def point_key(arch: str, scheme: str, size: float) -> str:
    return f"{arch}/{scheme}/{size:g}"


def summary_digest(summary) -> str:
    """Digest of a MetricsSummary; floats by repr, so bit-exact."""
    text = json.dumps(
        {k: repr(v) for k, v in sorted(asdict(summary).items())}, sort_keys=True
    )
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def setup(seed: int) -> dict:
    """Trace and both topologies; returns the parts and their timings."""
    speed = Speedometer()
    speed.tick()
    started = time.perf_counter()
    cpu_started = process_cpu()
    catalog = inputs.catalog()
    trace = inputs.make_trace(seed, catalog)
    built = time.perf_counter()
    archs = {name: inputs.architecture(name) for name in ARCHS}
    ended = time.perf_counter()
    setup_cpu = process_cpu() - cpu_started
    speed.tick(force=True)
    return {
        "catalog": catalog,
        "trace": trace,
        "archs": archs,
        "setup_s": ended - started,
        "setup_cpu_s": setup_cpu * speed.factor,
        "generate_s": built - started,
        "build_s": ended - built,
    }


class RequestClock:
    """Per-request simulation CPU time, from outside the engine.

    The engine calls ``MetricsCollector.record`` once per measured
    request, so the gap between two consecutive calls on one collector
    is one full iteration of the replay loop.  The wrapper only appends
    a CPU timestamp (well under 1% of a request's cost).  It also ticks
    the pass's :class:`~common.Speedometer`, after the call and before
    the timestamp, so no probe lands in a sample.
    """

    def __init__(self) -> None:
        self.samples = []
        self.speed = Speedometer()
        self._last = (None, 0.0)
        self._original = None

    def install(self) -> None:
        from repro.metrics.collector import MetricsCollector

        original = self._original = MetricsCollector.record
        clock = thread_cpu
        samples = self.samples
        tick = self.speed.tick

        def record(collector, outcome, latency):
            now = clock()
            last_collector, last = self._last
            if last_collector is collector:
                samples.append(now - last)
            original(collector, outcome, latency)
            tick()
            self._last = (collector, clock())

        MetricsCollector.record = record

    def remove(self) -> None:
        from repro.metrics.collector import MetricsCollector

        MetricsCollector.record = self._original


def run_round(state: dict, size: float, clock: "RequestClock" = None):
    """One cache size on both architectures; returns (wall, rows)."""
    from repro.experiments.sweeps import run_cache_size_sweep

    samples = clock.samples if clock is not None else []
    speed = clock.speed if clock is not None else None

    def cpu() -> float:
        """Thread CPU seconds, without the speed probes."""
        return thread_cpu() - (speed.probe_s if speed is not None else 0.0)

    def probes() -> int:
        return len(speed.times) if speed is not None else 0

    rows, spans = [], []
    started = time.perf_counter()
    for arch_name in ARCHS:
        # The progress callback fires once per finished point, in order.
        marks = [(time.perf_counter(), cpu(), len(samples), probes(), None)]
        points = run_cache_size_sweep(
            state["archs"][arch_name],
            state["trace"],
            state["catalog"],
            scheme_names=SCHEMES,
            cache_sizes=(size,),
            scheme_params=SCHEME_PARAMS,
            workers=1,
            progress=lambda event: marks.append(
                (time.perf_counter(), cpu(), len(samples), probes(), event.record)
            ),
        )
        for scheme, point, (begin, cpu_begin, first, probe0, _), (
            end,
            cpu_end,
            last,
            probe1,
            record,
        ) in zip(SCHEMES, points, marks, marks[1:]):
            spans.append((probe0, probe1))
            rows.append(
                Row(
                    arch_name,
                    scheme,
                    point,
                    record,
                    end - begin,
                    cpu_end - cpu_begin,
                    samples[first:last],
                )
            )
    if speed is not None:
        # Scale each point by the probes taken during it, or by the whole
        # round's when it had too few (see common.Speedometer).
        for row, (probe0, probe1) in zip(rows, spans):
            times = speed.times[probe0:probe1]
            factor = (
                SPEED_NOMINAL_S * len(times) / sum(times)
                if len(times) >= MIN_POINT_PROBES
                else speed.factor
            )
            row.cpu *= factor
            row.per_request = [t * factor for t in row.per_request]
    return time.perf_counter() - started, rows


def run(workload: str, seed: int, seconds: float, traced: bool, result) -> None:
    if traced:
        state = setup(seed)
        check_trace(state, seed, result)
        _traced(state, seed, result)
        return
    passes = max(len(ARCHS), round(seconds / PASS_NOMINAL_S))
    setup_times = []
    first = {}  # point key -> its Row in the first pass
    measured, pass_walls, speeds = [], [], []
    for index in range(passes):
        for _ in range(SETUPS_PER_PASS):
            state = None  # one state alive at a time: peak_rss_mb sees one copy
            state = setup(seed)
            setup_times.append(state["setup_cpu_s"])
        if index == 0:
            check_trace(state, seed, result)
        clock = RequestClock()
        clock.install()
        try:
            pass_wall, rows = run_round(state, PASS_SIZE, clock)
        finally:
            clock.remove()
        speeds.append(round(clock.speed.factor, 4))
        if index == 0:
            # Before any oracle replay builds a serve cluster.
            rss = peak_rss_mb()
        check_points(rows, first, seed, result)
        for row in rows:
            first.setdefault(row.key, row)
        measured.extend(rows)
        pass_walls.append(round(pass_wall, 4))
        # One oracle after each of the first passes (passes >= len(ARCHS)).
        if index < len(ARCHS):
            check_oracle(state, ARCHS[index], rows, seed, result)
    requests = sum(row.record.requests for row in measured)
    cpu = sum(row.cpu for row in measured)
    per_request = [t for row in measured for t in row.per_request]
    result.metric(
        "setup_s",
        statistics.median(setup_times),
        "s",
        len(setup_times),
        alias="set-up CPU time",
    )
    result.metric(
        "throughput_rps",
        requests / cpu,
        "1/s",
        len(measured),
        alias="sim_rps, requests per CPU second",
    )
    result.metric(
        "p50_ms",
        percentile(per_request, 0.5) * 1e3,
        "ms",
        len(per_request),
        alias="CPU time per simulated request",
    )
    result.metric("p99_ms", percentile(per_request, 0.99) * 1e3, "ms", len(per_request))
    result.metric("peak_rss_mb", rss, "MiB", 1)
    result.info.update(
        {
            "passes": passes,
            "points": len(measured),
            "requests": requests,
            "pass_walls_s": pass_walls,
            "pass_speed": speeds,
        }
    )


def check_trace(state: dict, seed: int, result) -> None:
    if seed == DEFAULT_SEED and not inputs.check_default_trace(state["trace"]):
        result.problem("default-seed trace differs from the generator's trace")


def check_points(rows, first: dict, seed: int, result) -> None:
    """Every pass must reproduce the first exactly and, with the default
    seed, every point must match its golden digest."""
    golden = json.loads(GOLDEN.read_text()) if seed == DEFAULT_SEED else {}
    for row in rows:
        result.attempted += 1
        digest = summary_digest(row.point.summary)
        if golden and golden.get(row.key) != digest:
            result.failed += 1
            result.problem(f"{row.key}: summary differs from the golden digest")
        elif row.key in first and row.point.summary != first[row.key].point.summary:
            result.failed += 1
            result.problem(f"{row.key}: a repeated pass gave another summary")


def check_oracle(state: dict, arch_name: str, rows, seed: int, result) -> None:
    """One seed-sampled point of the architecture must be bit-identical
    through the columnar fast path and an in-process LoadGenerator
    replay."""
    from repro.experiments.runner import GridTask, execute_point
    from repro.serve import Cluster, LoadGenerator
    from repro.sim.config import SimulationConfig
    from repro.workload.columnar import ColumnarTrace

    rng = random.Random(f"{seed}:oracle:{arch_name}")
    row = rng.choice([row for row in rows if row.arch == arch_name])
    params = SCHEME_PARAMS.get(row.scheme, {})
    config = SimulationConfig(relative_cache_size=row.point.relative_cache_size)
    arch = state["archs"][arch_name]
    result.attempted += 2
    fast, _ = execute_point(
        arch,
        ColumnarTrace.from_trace(state["trace"]),
        state["catalog"],
        GridTask(row.scheme, config, dict(params)),
    )
    if fast.summary != row.point.summary:
        result.failed += 1
        result.problem(f"{row.key}: fast path differs from the reference loop")

    async def replay():
        cluster = Cluster.build(
            arch, state["catalog"], row.scheme, config=config, **params
        )
        await cluster.start()
        try:
            loadgen = LoadGenerator(
                cluster, state["trace"], warmup_fraction=config.warmup_fraction
            )
            return await loadgen.run(mode="sequential")
        finally:
            await cluster.stop()

    report = asyncio.run(replay())
    if report.summary != row.point.summary:
        result.failed += 1
        result.problem(f"{row.key}: serve replay differs from the simulator")
    result.info.setdefault("oracle_points", []).append(row.key)


def _traced(state: dict, seed: int, result) -> None:
    """One round untraced, the same round traced, per-layer numbers."""
    import layers

    untraced_wall, rows = run_round(state, PASS_SIZE)
    overhead = untraced_wall - sum(row.record.duration_seconds for row in rows)
    traced_wall, bench_s, timings, tracer = layers.traced_sweep_round(
        state, PASS_SIZE, SCHEMES, SCHEME_PARAMS
    )
    layers.report_sweep(
        result,
        state,
        timings,
        tracer,
        experiments_overhead_s=overhead,
        overhead_frac=traced_wall / untraced_wall - 1.0,
        traced_wall=traced_wall,
        bench_s=bench_s,
    )
    result.attempted += len(rows)
    tracer.write(OUT_DIR / f"paper-sweep-seed{seed}-spans.jsonl")
