"""``serve-tcp``: the ``repro serve`` deployment over loopback TCP.

A timed run makes PASSES passes.  Each starts the benchmark's own
server (``tcp_server.py``) afresh and waits for its warm-up: back-to-back
stretches against one server drift as its caches keep filling.  The
benchmark process then drives it closed loop with one caller, which
sends the next ``get`` of the trace's measurement half as soon as its
previous one is answered, through a
:class:`~repro.serve.transport.TCPTransport`.  Every pass serves the
same request sequence; the metrics pool the passes.

The gated metrics are read on the CPU clock and scaled by the speed
reference (see :func:`closed_loop`): set-up is the CPU time of the
server's set-up (trace, topology, cluster start, warm-up), p50 the
median request's CPU time in caller and server together, throughput
the requests served per CPU second.  The wall-clock served rate and
latency from send are printed beside them.

One caller, not one per core: with two concurrent walks the coordinated
scheme sometimes ends a run with an object in both the main cache and
the d-cache of one node (``check_invariants`` fails after drain, about
one run in ten), a defect of the program under concurrency that a
benchmark workload must not trip over at random.
"""

from __future__ import annotations

import asyncio
import json
import queue
import statistics
import subprocess
import sys
import threading
import time

import inputs
from common import (
    BENCH_DIR,
    ROOT,
    ProcessCPU,
    Speedometer,
    peak_rss_mb,
    percentile,
    thread_cpu,
)
from serve_inproc import ARCH, WARMUP, RequestStream, conservation

PASSES = 2               # timed runs: fresh server + closed-loop passes
REPLY_TIMEOUT_S = 60.0


class Server:
    """One ``tcp_server.py`` process and its line protocol."""

    def __init__(self, seed: int, traced: bool) -> None:
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "tcp_server.py"), "--seed", str(seed),
             "--traced", str(int(traced))],
            cwd=str(ROOT),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        self.cpu = None
        try:
            self.ready = self._read("ready")
            self.cpu = ProcessCPU(self.process.pid)
        except (RuntimeError, OSError):
            self.close()
            raise
        self.setup_s = time.perf_counter() - started
        # Trace, topology, cluster start and warm-up, on the CPU clock of
        # the nominal machine, as the server measured them.
        self.setup_cpu_s = self.ready["setup_cpu_s"]

    def _pump(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _read(self, key: str) -> dict:
        """The next ``{key: ...}`` line; other output lines are skipped."""
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError(
                    f"server sent no {key!r} within {REPLY_TIMEOUT_S:g} s"
                ) from None
            if line is None:
                raise RuntimeError(f"server exited before sending {key!r}")
            try:
                message = json.loads(line)
            except ValueError:
                continue
            if isinstance(message, dict) and key in message:
                return message[key]

    def send(self, command: str) -> None:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()

    def drain(self) -> dict:
        self.send("drain")
        document = self._read("drained")
        self.process.wait(timeout=30)
        return document

    def close(self) -> None:
        """Stop the process if it still runs, and wait for it."""
        if self.process.poll() is None:
            try:
                self.send("quit")
                self.process.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait()
        self.process.stdin.close()
        self._reader.join(timeout=10)
        self.process.stdout.close()
        if self.cpu is not None:
            self.cpu.close()


async def closed_loop(stream, transport, seconds: float, server_cpu) -> dict:
    """One caller, one request outstanding, for ``seconds``.

    Besides its wall-clock latency from send, each request is timed on
    the CPU clock: the caller's own CPU time for the call plus the CPU
    time the server process ran meanwhile (``server_cpu``, a
    :class:`~common.ProcessCPU`).  With one request in flight the server
    runs for nothing else, so that sum is the request's cost to the
    deployment, with the host's steal and the scheduler's wake-up delays
    left out.  A :class:`~common.Speedometer` in the caller ticks between
    requests and scales the sums to the nominal machine.  (Pinning
    caller and server to one CPU, so that the probes run where the
    server runs, was tried: it spread more, 0.11-0.18 against 0.06-0.08
    over five seeds, and cost a third of the throughput in context
    switches.)
    """
    clock = time.perf_counter
    latencies, cpu_latencies = [], []
    tally = {"errors": 0, "cache": 0, "origin": 0, "stops": 0, "issued": 0}
    speed = Speedometer(frames=True)
    started = clock()
    deadline = started + seconds
    while clock() < deadline:
        frame, address, origin = stream.next()
        tally["issued"] += 1
        speed.tick()
        server_before = server_cpu()
        cpu_sent = thread_cpu()
        sent = clock()
        try:
            reply = await transport.call(address, frame)
        except Exception:  # noqa: BLE001 - every failure is counted
            tally["errors"] += 1
            continue
        latencies.append(clock() - sent)
        cpu_latencies.append(thread_cpu() - cpu_sent + server_cpu() - server_before)
        hit = reply["hit_index"]
        tally["stops"] += hit + 1
        tally["cache" if hit < origin else "origin"] += 1
    tally["wall"] = clock() - started
    tally["latencies"] = latencies
    tally["speed"] = factor = speed.factor
    tally["cpu_latencies"] = [t * factor for t in cpu_latencies]
    return tally


def _stream(seed: int, addresses: dict):
    arch = inputs.architecture(ARCH)
    trace = inputs.make_trace(seed, inputs.catalog())
    nodes = {int(node): tuple(address) for node, address in addresses.items()}
    return RequestStream(
        arch, lambda client: nodes[arch.client_nodes[client]], trace, WARMUP
    )


def _check(result, loops, drained: dict) -> None:
    completed = sum(len(loop["latencies"]) for loop in loops)
    cache = sum(loop["cache"] for loop in loops)
    result.attempted += sum(loop["issued"] for loop in loops)
    result.failed += sum(loop["errors"] for loop in loops)
    result.failed += len(drained["invariant_failures"])
    conservation(
        result,
        completed,
        cache,
        sum(loop["stops"] for loop in loops),
        drained["counts_delta"],
    )
    for failure in drained["invariant_failures"]:
        result.problem(f"invariant: {failure}")
    if not drained["drained"]:
        result.problem("server did not drain")


def _session(seed: int, traced: bool, stretches):
    """Start a server, drive it closed loop for each stretch of seconds in
    turn (a traced server traces the second stretch only), drain it.

    Returns (server, one tally per stretch, the server's drain document).
    """
    from repro.serve.transport import TCPTransport

    server = Server(seed, traced)
    try:
        stream = _stream(seed, server.ready["addresses"])

        async def drive():
            transport = TCPTransport()
            loops = []
            try:
                for index, seconds in enumerate(stretches):
                    if traced and index == 1:
                        server.send("trace-on")
                    loops.append(
                        await closed_loop(stream, transport, seconds, server.cpu)
                    )
                if traced:
                    server.send("trace-off")
                return loops
            finally:
                await transport.close()

        loops = asyncio.run(drive())
        drained = server.drain()
    finally:
        server.close()
    return server, loops, drained


def run(workload: str, seed: int, seconds: float, traced: bool, result) -> None:
    """PASSES passes, each a fresh server and a closed-loop stretch,
    measured together."""
    if traced:
        server, loops, drained = _session(seed, True, [seconds / 2, seconds / 2])
        _check(result, loops, drained)
        _report_traced(result, server, loops, drained)
        return
    timings, setup_walls, loops, server_rss = [], [], [], 0.0
    for _ in range(PASSES):
        server, (loop,), drained = _session(seed, False, [seconds / PASSES])
        _check(result, [loop], drained)
        timings.append(server.setup_cpu_s)
        setup_walls.append(round(server.setup_s, 4))
        loops.append(loop)
        server_rss = max(server_rss, drained["peak_rss_mb"])
    latencies = [t for loop in loops for t in loop["latencies"]]
    cpu_latencies = [t for loop in loops for t in loop["cpu_latencies"]]
    result.metric(
        "setup_s", statistics.median(timings), "s", len(timings), alias="set-up CPU time"
    )
    result.metric(
        "throughput_rps",
        len(cpu_latencies) / sum(cpu_latencies),
        "1/s",
        len(cpu_latencies),
        alias="requests per CPU second of caller and server",
    )
    result.metric(
        "p50_ms",
        percentile(cpu_latencies, 0.5) * 1e3,
        "ms",
        len(cpu_latencies),
        alias="get latency on the CPU clock",
    )
    wall = sum(loop["wall"] for loop in loops)
    result.metric("served_rps", len(latencies) / wall, "1/s", len(latencies))
    result.metric(
        "wall_p50_ms", percentile(latencies, 0.5) * 1e3, "ms", len(latencies)
    )
    result.metric("p99_ms", percentile(latencies, 0.99) * 1e3, "ms", len(latencies))
    result.metric("peak_rss_mb", peak_rss_mb() + server_rss, "MiB", 2)
    result.info.update(
        {
            "setup_wall_s": setup_walls,
            "pass_speed": [round(loop["speed"], 4) for loop in loops],
            "pass_served_rps": [
                round(len(loop["latencies"]) / loop["wall"], 2) for loop in loops
            ],
            "cache_served": sum(loop["cache"] for loop in loops),
            "origin_served": sum(loop["origin"] for loop in loops),
        }
    )


def _report_traced(result, server, loops, drained: dict) -> None:
    import layers
    from spans import Stat, Tracer

    trace = drained["trace"]
    tracer = Tracer()
    for name, (calls, total, self_time) in trace["stats"].items():
        stat = tracer.stats[name] = Stat()
        stat.calls, stat.total, stat.self_time = calls, total, self_time
    tracer.counters.update(trace["counters"])
    plain, traced_loop = loops
    requests = len(traced_loop["latencies"])
    layers.put(result, "routing.build_s", server.ready["build_s"], 1)
    layers.put(result, "workload.generate_s", server.ready["generate_s"], 1)
    layers.report_serve(result, tracer, requests, 0)
    plain_rps = len(plain["latencies"]) / plain["wall"]
    traced_rps = requests / traced_loop["wall"]
    layers.put(
        result, "obs.trace_overhead_frac", plain_rps / traced_rps - 1.0, requests
    )
    # Waits on a socket overlap the work of the nodes they wait for, so
    # only the CPU-bound layers count; the server's time off the CPU is
    # its wait for the benchmark's next request.
    layers.check_attribution(
        result,
        layers.self_time(tracer, layers.CPU_SPANS),
        trace["wall"] - trace["cpu"],
        trace["wall"],
        trace["negative_self"],
        minimum=layers.ATTRIBUTED_MIN_TCP,
    )
