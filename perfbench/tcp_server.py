"""The ``serve-tcp`` server: the ``repro serve`` deployment, owned by
the benchmark.

Builds the same :class:`~repro.serve.cluster.Cluster` as ``repro serve``
(en-route, ``coordinated``, relative size 0.03), every node on its own
loopback socket of a :class:`~repro.serve.transport.TCPTransport`.  The
warm-up (the first half of the trace) is replayed in process before the
sockets carry any request: sequential replay through the in-process
codec path leaves every node in exactly the state the same replay over
TCP would, in a fraction of the time.

Protocol with the benchmark, one line per message:

* stdout ``{"ready": ...}`` once serving (addresses, warm-up timings);
* stdin ``trace-on`` / ``trace-off`` switch the span wrappers (installed
  only with ``--traced 1``), ``drain`` drains, checks every node's
  invariants, prints ``{"drained": ...}`` and exits, ``quit`` exits.

Usage: python3 perfbench/tcp_server.py --seed N [--traced 0|1]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time

import common


class WarmThenTCP:
    """Every node on TCP; calls stay in process until :attr:`warming`
    is switched off.  Implements the program's ``Transport`` interface."""

    def __init__(self) -> None:
        from repro.serve.transport import InProcessTransport, TCPTransport

        self.inproc = InProcessTransport()
        self.tcp = TCPTransport()
        self.warming = True
        self._node_of = {}

    async def start_node(self, node_id, handler):
        await self.inproc.start_node(node_id, handler)
        address = await self.tcp.start_node(node_id, handler)
        self._node_of[tuple(address)] = node_id
        return address

    async def call(self, address, message):
        if self.warming:
            return await self.inproc.call(self._node_of[tuple(address)], message)
        return await self.tcp.call(address, message)

    async def close(self) -> None:
        await self.inproc.close()
        await self.tcp.close()


def _emit(document: dict) -> None:
    sys.stdout.write(json.dumps(document) + "\n")
    sys.stdout.flush()


async def serve(seed: int, traced: bool) -> None:
    from serve_inproc import ServeState, node_counts

    tracer = None
    if traced:
        import layers
        from spans import Tracer

        tracer = Tracer()
        layers.wrap_serve(tracer, tcp=True)
    transport = WarmThenTCP()
    state = ServeState(seed)
    await state.setup(transport=transport)
    transport.warming = False
    cluster = state.cluster
    counts0 = node_counts(cluster)
    _emit(
        {
            "ready": {
                "addresses": {str(n): list(a) for n, a in cluster.addresses.items()},
                "setup_s": state.setup_s,
                "setup_cpu_s": state.setup_cpu_s,
                "generate_s": state.generate_s,
                "build_s": state.build_s,
                "warm_rps": state.warm_rps,
            }
        }
    )
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    traced_wall = traced_cpu = 0.0
    trace_started = cpu_started = None
    while True:
        line = (await reader.readline()).decode().strip()
        if line == "trace-on" and tracer is not None:
            tracer.enabled = True
            trace_started = time.perf_counter()
            cpu_started = time.process_time()
        elif line == "trace-off" and tracer is not None:
            tracer.enabled = False
            traced_wall += time.perf_counter() - trace_started
            traced_cpu += time.process_time() - cpu_started
        elif line in ("drain", "quit", ""):
            break
    if line != "drain":
        await cluster.stop(drain=False)
        return
    drained = await cluster.drain(timeout=10.0)
    counts1 = node_counts(cluster)
    failures = []
    for node_id, node in sorted(cluster.nodes.items()):
        try:
            node.scheme.check_invariants()
        except AssertionError as error:
            failures.append(f"node {node_id}: {error}")
    await cluster.stop(drain=False)
    document = {
        "drained": drained,
        "invariant_failures": failures,
        "counts_delta": [after - before for after, before in zip(counts1, counts0)],
        "peak_rss_mb": common.peak_rss_mb(),
    }
    if tracer is not None:
        tracer.restore()
        document["trace"] = {
            "wall": traced_wall,
            "cpu": traced_cpu,
            "stats": {
                name: [stat.calls, stat.total, stat.self_time]
                for name, stat in tracer.stats.items()
            },
            "counters": tracer.counters,
            "negative_self": tracer.negative_self(),
        }
        tracer.write(common.OUT_DIR / f"serve-tcp-seed{seed}-server-spans.jsonl")
    _emit({"drained": document})


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, default=0)
    args = parser.parse_args()
    if not common.bootstrap():
        sys.exit("src/repro not found: run from a checkout of the repository")
    asyncio.run(serve(args.seed, bool(args.traced)))
