"""``serve-open`` and ``serve-updates``: the serve stack in one thread.

An in-process :class:`~repro.serve.cluster.Cluster` with the
``repro serve`` defaults (en-route, ``coordinated``, relative size 0.03)
is warmed with the first half of the trace, then driven from the same
thread, with no sockets: back to back, and by the benchmark's own
open-loop pacer (Poisson arrivals, each request timed from the moment
it was *due*, so a stall also charges the requests queued behind it).
``serve-updates`` adds an origin update stream at
``UPDATE_SHARE`` of the offered request rate, applied through
:meth:`Cluster.apply_update` (an ``inv`` broadcast to every cache node).

A timed run makes PASSES passes.  Each sets the cluster up afresh (a
set-up time sample), serves a back-to-back stretch (the measured half
of the trace on a Poisson schedule at ``REFERENCE_RPS``, never waiting
for a due time, see :meth:`ServeState.serve_stretch`) and paces a short
stretch of arrivals at ``REFERENCE_RPS``; set-up and schedules are
seeded, so every pass does the same work.  The gated metrics come from
the back-to-back stretches of all passes together, on the CPU clock
scaled by the speed reference (:class:`~common.Speedometer`): set-up
CPU time, capacity (operations per CPU second) and the median get's
time from send.  The paced stretches give the wall-clock p50 and p99
from due time, printed beside them.  After the last pass, a bisection
finds the knee (highest offered rate whose p99 stays within ``LIMIT_S``
with no failure and achieved >= ``SUSTAIN`` x offered), which is
printed but not gated: a threshold on a tail percentile swings too far
with the host's speed.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import List, Optional

import inputs
from common import Speedometer, peak_rss_mb, percentile, process_cpu, thread_cpu

# The `repro serve` defaults.
SCHEME = "coordinated"
ARCH = "en-route"
SIZE = 0.03
DCACHE_RATIO = 3.0
WARMUP = 0.5

LIMIT_S = 0.050          # p99 latency limit that defines the knee
SUSTAIN = 0.95           # achieved / offered needed at the knee
REFERENCE_RPS = 300.0    # fixed rate for p50/p99, about a quarter of the knee
REFERENCE_S = 4.0        # traced runs: seconds of arrivals per pass
PASSES = 2               # timed runs: identical set-up + stretch passes
STRETCH_GETS_PER_S = 500  # timed runs: gets per pass per --seconds, up to
                          # the whole measured half of the trace
REFERENCE_SHARE = 0.3    # timed runs: share of --seconds paced at the reference
                         # rate; at 12 s, 1080 gets, so p99 has 10 beyond it
KNEE_SHARE = 0.2         # timed runs: share of --seconds in knee probes
KNEE_STEPS = 4           # bisection steps from REFERENCE_RPS up
KNEE_HI = 1.6            # upper end of the search, x the service rate
BACKLOG_ABORT_S = 1.0    # a probe this far behind schedule has failed
UPDATE_SHARE = 0.05      # serve-updates: updates per offered request
PACER_LATE_LIMIT_S = 0.005  # pacer p99 lateness beyond which a run is invalid


class RequestStream:
    """The measurement half of the trace as ``get`` frames, cycling.

    Each pass over the half adds the trace duration to the timestamps,
    so node clocks keep moving forward when the stream wraps.
    """

    def __init__(self, arch, ingress, trace, warmup: float) -> None:
        records = list(trace)
        self.warm = records[: int(len(records) * warmup)]
        self.records = records[len(self.warm):]
        self.span = records[-1].time - records[0].time + 1.0
        self.ingress = ingress
        self._last = {
            (r.client_id, r.server_id): len(
                arch.request_path(r.client_id, r.server_id)
            ) - 1
            for r in records
        }
        self._position = 0
        self._offset = 0.0

    @staticmethod
    def frame(record, offset: float = 0.0) -> dict:
        """The ``get`` frame :class:`~repro.serve.loadgen.LoadGenerator`
        sends for a trace record."""
        return {
            "type": "get",
            "client_id": record.client_id,
            "server_id": record.server_id,
            "object_id": record.object_id,
            "size": record.size,
            "time": record.time + offset,
        }

    def next(self):
        """(frame, ingress address, origin index) of the next request."""
        if self._position == len(self.records):
            self._position = 0
            self._offset += self.span
        record = self.records[self._position]
        self._position += 1
        return (
            self.frame(record, self._offset),
            self.ingress(record.client_id),
            self._last[(record.client_id, record.server_id)],
        )

    @property
    def now(self) -> float:
        """Trace time of the request most recently handed out."""
        return self.records[max(0, self._position - 1)].time + self._offset


@dataclass
class Level:
    """One paced stretch of arrivals at a fixed offered rate."""

    rate: float
    seconds: float
    # Wall seconds per get: from due time when paced, from send when
    # served back to back.
    latencies: List[float] = field(default_factory=list)
    hit_indices: List[int] = field(default_factory=list)
    pacer_late: List[float] = field(default_factory=list)
    inv_times: List[float] = field(default_factory=list)
    # (due, CPU seconds, is a get) of every operation, in the order served
    jobs: List[tuple] = field(default_factory=list)
    # Speedometer factor of a back-to-back stretch (1.0 when paced)
    speed: float = 1.0
    errors: int = 0
    issued: int = 0
    cache_served: int = 0
    origin_served: int = 0
    walk_stops: int = 0
    busy: float = 0.0
    idle: float = 0.0
    wall: float = 0.0
    backlog: bool = False
    counts_delta: tuple = (0, 0, 0)

    @property
    def completed(self) -> int:
        return len(self.hit_indices)

    def tally(self, reply: dict, origin: int) -> None:
        """Book a get's reply: where its walk stopped and who served it."""
        hit = reply["hit_index"]
        self.hit_indices.append(hit)
        self.walk_stops += hit + 1
        if hit < origin:
            self.cache_served += 1
        else:
            self.origin_served += 1

    @property
    def achieved_ratio(self) -> float:
        """Completions per second over arrivals offered per second."""
        if not self.issued or self.wall <= 0:
            return 0.0
        return (self.completed / self.wall) / (self.issued / self.seconds)

    def p99(self) -> float:
        return percentile(self.latencies, 0.99) if self.latencies else float("inf")

    @property
    def sustained(self) -> bool:
        return (
            not self.backlog
            and self.errors == 0
            and self.p99() <= LIMIT_S
            and self.achieved_ratio >= SUSTAIN
        )

    @property
    def service_s(self) -> float:
        """Mean busy seconds per operation (get or update)."""
        operations = self.completed + len(self.inv_times)
        return (self.busy + sum(self.inv_times)) / operations if operations else 0.0

    @property
    def cpu_busy(self) -> float:
        """CPU seconds the program spent on the stretch's operations,
        scaled by the speed factor."""
        return sum(cpu for _, cpu, _ in self.jobs) * self.speed

    def cpu_latencies(self) -> List[float]:
        """Get latencies from due time on the CPU clock.

        One thread serves every operation in due order, so the stretch
        is a single FIFO server; the Lindley recursion replays it with
        each operation's CPU time, scaled by the speed factor, as its
        service time.  That is the latency the program gives on a
        nominal core of its own, queueing included.
        """
        latencies = []
        free = float("-inf")
        for due, cpu, is_get in self.jobs:
            free = max(due, free) + cpu * self.speed
            if is_get:
                latencies.append(free - due)
        return latencies

    @property
    def generator_cpu(self) -> float:
        """Seconds the pacer spent on its own bookkeeping."""
        return max(0.0, self.wall - self.busy - self.idle - sum(self.inv_times))


def node_counts(cluster) -> tuple:
    """(cache hits, lookup misses, walk stops) summed over every node's
    live counters: the program's own tally of where requests went."""
    hits = misses = stops = 0
    for node_id, node in cluster.nodes.items():
        stats = node.registry.node(node_id)
        hits += stats.hits
        misses += stats.misses
        stops += node.requests_handled
    return hits, misses, stops


def conservation(result, completed: int, cache: int, stops: int, delta) -> None:
    """Check the program's counters against the replies the benchmark got.

    ``delta`` is the move of :func:`node_counts` over the stretch.  Every
    walk stop is a lookup hit, a lookup miss or the origin serving, so
    the program served ``hits`` requests from a cache and ``stops -
    hits - misses`` from an origin; together they must be exactly the
    requests the benchmark saw completed.
    """
    hits, misses, node_stops = delta
    from_origin = node_stops - hits - misses
    if hits + from_origin != completed:
        result.problem(
            f"nodes served {hits} from cache + {from_origin} from origin, "
            f"the benchmark saw {completed} replies"
        )
    if hits != cache:
        result.problem(
            f"node hit counters moved by {hits}, replies report {cache} cache hits"
        )
    if node_stops != stops:
        result.problem(
            f"nodes handled {node_stops} walk stops, replies imply {stops}"
        )


class ServeState:
    """A warmed in-process cluster and the stream that drives it."""

    def __init__(self, seed: int, tracer=None) -> None:
        self.seed = seed
        self.tracer = tracer
        self.cluster = None
        self.stream: Optional[RequestStream] = None
        self.num_objects = 0
        self.warm_rps = 0.0
        self.setup_s = 0.0
        self.setup_cpu_s = 0.0
        self.generate_s = 0.0
        self.build_s = 0.0

    async def setup(self, transport=None) -> None:
        """Trace, topology, cluster start and warm-up (all in setup_s)."""
        from repro.serve import Cluster
        from repro.sim.config import SimulationConfig

        speed = Speedometer(frames=True)
        speed.tick()
        started = time.perf_counter()
        cpu_started = process_cpu()
        object_catalog = inputs.catalog()
        trace = inputs.make_trace(self.seed, object_catalog)
        generated = time.perf_counter()
        arch = inputs.architecture(ARCH)
        self.generate_s = generated - started
        self.build_s = time.perf_counter() - generated
        speed.tick()
        self.cluster = Cluster.build(
            arch,
            object_catalog,
            SCHEME,
            config=SimulationConfig(
                relative_cache_size=SIZE,
                dcache_ratio=DCACHE_RATIO,
                warmup_fraction=WARMUP,
            ),
            transport=transport,
            seed=self.seed,
        )
        self.num_objects = object_catalog.num_objects
        await self.cluster.start()
        self.stream = RequestStream(
            arch, self.cluster.ingress_address, trace, WARMUP
        )
        call = self.cluster.transport.call
        warm_started = time.perf_counter()
        for record in self.stream.warm:
            speed.tick()
            await call(
                self.cluster.ingress_address(record.client_id),
                RequestStream.frame(record),
            )
        ended = time.perf_counter()
        self.warm_rps = len(self.stream.warm) / (ended - warm_started)
        speed.tick()
        self.setup_s = ended - started
        # CPU seconds of the set-up itself, without the probes in it, on
        # the nominal machine.
        self.setup_cpu_s = (process_cpu() - cpu_started - speed.probe_s) * speed.factor

    async def run_level(
        self, rate: float, seconds: float, update_share: float, seed: str
    ) -> Level:
        """Pace Poisson arrivals at ``rate`` for ``seconds``."""
        from repro.workload.updates import UpdateEvent, generate_update_events

        level = Level(rate=rate, seconds=seconds)
        rng = random.Random(seed)
        updates = []
        if update_share > 0:
            updates = generate_update_events(
                num_objects=self.num_objects,
                duration=seconds,
                update_rate=rate * update_share,
                seed=rng.randrange(2**32),
            )
        cluster = self.cluster
        call = cluster.transport.call
        apply_update = cluster.apply_update
        stream = self.stream
        tracer = self.tracer
        clock = time.perf_counter
        cpu = thread_cpu
        jobs = level.jobs
        counts0 = node_counts(cluster)
        start = clock()
        end_due = start + seconds
        next_get = start + rng.expovariate(rate)
        update_index = 0
        next_update = start + updates[0].time if updates else float("inf")
        last_done = start
        while True:
            is_update = next_update < next_get
            due = next_update if is_update else next_get
            if due > end_due:
                break
            now = clock()
            if due > now:
                # Spin rather than sleep: a sleeping thread wakes up late
                # and cold, which would be charged to the next request.
                while clock() < due:
                    pass
                sent = clock()
                level.idle += sent - now
                level.pacer_late.append(sent - due)
            else:
                sent = now
                if now - due > BACKLOG_ABORT_S:
                    level.backlog = True
                    break
            if is_update:
                event = UpdateEvent(
                    time=max(0.0, stream.now), object_id=updates[update_index].object_id
                )
                cpu_sent = cpu()
                try:
                    if tracer is not None and tracer.enabled:
                        tracer.due = None
                        span, token = tracer.begin("bench.update")
                        try:
                            await apply_update(event)
                        finally:
                            tracer.finish(span, token)
                    else:
                        await apply_update(event)
                except Exception:  # noqa: BLE001 - every failure is counted
                    level.errors += 1
                jobs.append((due, cpu() - cpu_sent, False))
                level.inv_times.append(clock() - sent)
                update_index += 1
                next_update = (
                    start + updates[update_index].time
                    if update_index < len(updates)
                    else float("inf")
                )
                continue
            frame, address, origin = stream.next()
            level.issued += 1
            cpu_sent = cpu()
            try:
                if tracer is not None and tracer.enabled:
                    tracer.due = due
                    tracer.request_id = level.issued
                    span, token = tracer.begin("bench.request")
                    try:
                        reply = await call(address, frame)
                    finally:
                        tracer.finish(span, token)
                else:
                    reply = await call(address, frame)
            except Exception:  # noqa: BLE001 - every failure is counted
                level.errors += 1
                next_get += rng.expovariate(rate)
                continue
            last_done = clock()
            jobs.append((due, cpu() - cpu_sent, True))
            level.busy += last_done - sent
            level.latencies.append(last_done - due)
            level.tally(reply, origin)
            next_get += rng.expovariate(rate)
        level.wall = max(last_done, clock()) - start
        level.counts_delta = tuple(
            after - before for after, before in zip(node_counts(cluster), counts0)
        )
        return level

    async def serve_stretch(
        self, gets: int, rate: float, update_share: float, seed: str
    ) -> Level:
        """Serve ``gets`` requests back to back, each timed on the CPU clock.

        The requests get due times from a Poisson schedule at ``rate``
        that is never paced in real time: :meth:`Level.cpu_latencies`
        replays the queue on the CPU clock instead.  Updates (at
        ``update_share`` of ``rate``) are merged in by their due times.
        One thread serves everything in due order either way, so the
        program does the same work as under the pacer, in a fraction of
        the wall time.
        """
        from repro.workload.updates import UpdateEvent, generate_update_events

        level = Level(rate=rate, seconds=gets / rate)
        rng = random.Random(seed)
        updates = []
        if update_share > 0:
            updates = generate_update_events(
                num_objects=self.num_objects,
                duration=level.seconds,
                update_rate=rate * update_share,
                seed=rng.randrange(2**32),
            )
        pending = iter(updates)
        update = next(pending, None)
        cluster = self.cluster
        call = cluster.transport.call
        stream = self.stream
        clock = time.perf_counter
        cpu = thread_cpu
        jobs = level.jobs
        speed = Speedometer(frames=True)
        tick = speed.tick
        counts0 = node_counts(cluster)
        started = clock()
        due = 0.0
        for _ in range(gets):
            due += rng.expovariate(rate)
            while update is not None and update.time < due:
                tick()
                sent, cpu_sent = clock(), cpu()
                try:
                    await cluster.apply_update(
                        UpdateEvent(time=max(0.0, stream.now), object_id=update.object_id)
                    )
                except Exception:  # noqa: BLE001 - every failure is counted
                    level.errors += 1
                jobs.append((update.time, cpu() - cpu_sent, False))
                level.inv_times.append(clock() - sent)
                update = next(pending, None)
            frame, address, origin = stream.next()
            level.issued += 1
            tick()
            sent, cpu_sent = clock(), cpu()
            try:
                reply = await call(address, frame)
            except Exception:  # noqa: BLE001 - every failure is counted
                level.errors += 1
                continue
            jobs.append((due, cpu() - cpu_sent, True))
            level.latencies.append(clock() - sent)
            level.tally(reply, origin)
        level.speed = speed.factor
        level.wall = clock() - started
        level.counts_delta = tuple(
            after - before for after, before in zip(node_counts(cluster), counts0)
        )
        return level

    def check_level(self, level: Level, result) -> None:
        """Conservation checks of one level against the nodes' counters."""
        result.attempted += level.issued + len(level.inv_times)
        result.failed += level.errors
        conservation(
            result,
            level.completed,
            level.cache_served,
            level.walk_stops,
            level.counts_delta,
        )

    async def finish(self, result) -> None:
        """Drain, check every node's invariants, stop."""
        cluster = self.cluster
        if not await cluster.drain(timeout=10.0):
            result.problem("cluster did not drain")
        for node_id, node in sorted(cluster.nodes.items()):
            try:
                node.scheme.check_invariants()
            except AssertionError as error:
                result.failed += 1
                result.problem(f"node {node_id} invariant: {error}")
        await cluster.stop(drain=False)


async def knee_search(
    state: ServeState, first: Level, seconds: float, update_share: float, seed: int
):
    """Bisect for the knee with KNEE_STEPS probes of ``seconds`` each.

    The search starts from the reference rate, which the reference
    stretch ``first`` must itself sustain, up to KNEE_HI x its service
    rate.  Returns (knee, probes): the knee is the highest rate a
    measurement sustained (the reference rate when no probe did).
    """
    lo, hi = REFERENCE_RPS, KNEE_HI / first.service_s
    probes = []
    for step in range(KNEE_STEPS):
        rate = (lo + hi) / 2
        probe = await state.run_level(
            rate, seconds, update_share, f"{seed}:knee:{step}"
        )
        probes.append(probe)
        if probe.sustained:
            lo = rate
        else:
            hi = rate
    return lo, probes


def run(workload: str, seed: int, seconds: float, traced: bool, result) -> None:
    update_share = UPDATE_SHARE if workload == "serve-updates" else 0.0
    if traced:
        asyncio.run(_traced(seed, update_share, result))
    else:
        asyncio.run(_timed(seed, seconds, update_share, result))


async def _timed(seed: int, seconds: float, update_share: float, result) -> None:
    """PASSES passes, each a fresh set-up, a back-to-back stretch and a
    paced reference stretch, measured together; the knee probes follow
    the last one."""
    # Modules load once per process, before the first set-up; loading
    # them is not set-up work.
    import repro.experiments.presets  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.workload.zipf  # noqa: F401

    gets = None  # set once the first pass has its request stream
    reference_s = seconds * REFERENCE_SHARE / PASSES
    timings, stretches, references, warm_rps, setup_walls = [], [], [], [], []
    for _ in range(PASSES):
        state = ServeState(seed)
        await state.setup()
        timings.append(state.setup_cpu_s)
        setup_walls.append(round(state.setup_s, 4))
        warm_rps.append(round(state.warm_rps, 1))
        if gets is None:
            gets = min(len(state.stream.records), round(seconds * STRETCH_GETS_PER_S))
        stretches.append(
            await state.serve_stretch(
                gets, REFERENCE_RPS, update_share, f"{seed}:stretch"
            )
        )
        references.append(
            await state.run_level(
                REFERENCE_RPS, reference_s, update_share, f"{seed}:reference"
            )
        )
        if len(references) < PASSES:
            await state.finish(result)
            state = None  # one cluster alive at a time, for peak_rss_mb
    knee, probes = await knee_search(
        state,
        references[-1],
        seconds * KNEE_SHARE / KNEE_STEPS,
        update_share,
        seed,
    )
    levels = stretches + references + probes
    for level in levels:
        state.check_level(level, result)
    await state.finish(result)
    paced = references + probes
    lates = [late for level in paced for late in level.pacer_late]
    late_p99 = percentile(lates, 0.99) if lates else 0.0
    if late_p99 > PACER_LATE_LIMIT_S:
        result.problem(
            f"pacer p99 lateness {late_p99 * 1e3:.2f} ms exceeds "
            f"{PACER_LATE_LIMIT_S * 1e3:.0f} ms: run invalid"
        )
    # Seeded set-up and schedule: the program must serve every pass alike.
    for name, group in (("stretches", stretches), ("reference stretches", references)):
        served = {(tuple(level.hit_indices), len(level.inv_times)) for level in group}
        if len(served) != 1:
            result.problem(f"the passes' {name} did not serve the same requests alike")
    # One pass caught in a stall of the host does not void the other.
    if not any(level.sustained for level in references):
        result.problem(
            f"reference rate {REFERENCE_RPS:g} rps not sustained (p99 "
            + ", ".join(f"{level.p99() * 1e3:.1f}" for level in references)
            + " ms)"
        )
    latencies = [t for level in references for t in level.latencies]
    cpu_latencies = [t for level in stretches for t in level.cpu_latencies()]
    services = [
        cpu * level.speed
        for level in stretches
        for _, cpu, is_get in level.jobs
        if is_get
    ]
    operations = sum(len(level.jobs) for level in stretches)
    busy = sum(level.cpu_busy for level in stretches)
    result.metric(
        "setup_s", statistics.median(timings), "s", len(timings), alias="set-up CPU time"
    )
    result.metric(
        "throughput_rps",
        operations / busy,
        "1/s",
        operations,
        alias="capacity_rps, operations per CPU second",
    )
    result.metric(
        "p50_ms",
        percentile(services, 0.5) * 1e3,
        "ms",
        len(services),
        alias="get latency from send, CPU clock",
    )
    result.metric(
        "due_p50_ms", percentile(cpu_latencies, 0.5) * 1e3, "ms", len(cpu_latencies)
    )
    result.metric(
        "wall_p50_ms", percentile(latencies, 0.5) * 1e3, "ms", len(latencies)
    )
    result.metric("p99_ms", percentile(latencies, 0.99) * 1e3, "ms", len(latencies))
    result.metric("peak_rss_mb", peak_rss_mb(), "MiB", 1)
    result.metric("knee_rps", knee, "1/s", len(probes))
    result.metric("bench.pacer_late_p99_ms", late_p99 * 1e3, "ms", len(lates))
    inv = [t for level in levels for t in level.inv_times]
    if inv:
        result.metric("inv_p99_ms", percentile(inv, 0.99) * 1e3, "ms", len(inv))
    result.info.update(
        {
            "warm_rps": warm_rps,
            "setup_wall_s": setup_walls,
            "stretch_gets": gets,
            "pass_speed": [round(level.speed, 4) for level in stretches],
            "pass_cpu_service_ms": [
                round(level.cpu_busy / len(level.jobs) * 1e3, 4) for level in stretches
            ],
            "pass_cpu_p50_ms": [
                round(percentile(level.cpu_latencies(), 0.5) * 1e3, 4)
                for level in stretches
            ],
            "pass_p50_ms": [
                round(percentile(level.latencies, 0.5) * 1e3, 4)
                for level in references
            ],
            "pass_p99_ms": [round(level.p99() * 1e3, 4) for level in references],
            "knee_probes": [
                {
                    "rate": round(p.rate, 1),
                    "p99_ms": round(p.p99() * 1e3, 3),
                    "achieved_ratio": round(p.achieved_ratio, 4),
                    "sustained": p.sustained,
                    "service_ms": round(p.service_s * 1e3, 4),
                    "requests": p.completed,
                }
                for p in probes
            ],
            "reference_rps": REFERENCE_RPS,
            "cache_served": sum(level.cache_served for level in levels),
            "origin_served": sum(level.origin_served for level in levels),
        }
    )


async def _traced(seed: int, update_share: float, result) -> None:
    """The reference level untraced, then again traced."""
    import layers
    from common import OUT_DIR
    from spans import Tracer

    tracer = Tracer()
    layers.wrap_serve(tracer)
    try:
        state = ServeState(seed, tracer)
        await state.setup()
        untraced = await state.run_level(
            REFERENCE_RPS, REFERENCE_S, update_share, f"{seed}:untraced"
        )
        tracer.enabled = True
        try:
            traced = await state.run_level(
                REFERENCE_RPS, REFERENCE_S, update_share, f"{seed}:traced"
            )
        finally:
            tracer.enabled = False
        for level in (untraced, traced):
            state.check_level(level, result)
        await state.finish(result)
    finally:
        tracer.restore()

    layers.put(result, "routing.build_s", state.build_s, 1)
    layers.put(result, "workload.generate_s", state.generate_s, 1)
    layers.report_serve(result, tracer, traced.completed, len(traced.inv_times))
    layers.put(
        result,
        "bench.pacer_late_p99_ms",
        percentile(traced.pacer_late, 0.99) * 1e3 if traced.pacer_late else 0.0,
        len(traced.pacer_late),
    )
    layers.put(
        result, "bench.generator_cpu_frac", traced.generator_cpu / traced.wall, 1
    )
    layers.put(
        result,
        "obs.trace_overhead_frac",
        traced.service_s / untraced.service_s - 1.0,
        traced.completed,
    )
    # The benchmark's own measured time: spinning until a request was
    # due, and its part of each request span outside the program's calls.
    bench_s = traced.idle + layers.self_time(tracer, ("bench.request", "bench.update"))
    layers.check_attribution(
        result,
        layers.self_time(tracer, layers.CPU_SPANS + layers.WAIT_SPANS),
        bench_s,
        traced.wall,
        tracer.negative_self(),
    )
    tracer.write(OUT_DIR / f"{result.workload}-seed{seed}-spans.jsonl")
    result.info["spans_kept"] = len(tracer.spans)
    result.info["spans_dropped"] = tracer.dropped
