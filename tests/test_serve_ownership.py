"""Message ownership and JSON transparency of direct handler calls.

The in-process transport -- and a TCP transport calling a node it hosts
-- hands message objects straight to handlers and returns the handlers'
reply objects, with no codec in between.  What the codec used to
guarantee for free -- every node sees a private copy, and every frame
means the same thing in process and on TCP -- now rests on the
ownership rules documented in :mod:`repro.serve.transport`.  This suite
checks them on every message and every reply of real replays:

* **JSON transparency** -- decoding the encoding of a message or reply
  gives an equal object, so tuples, sets and int dict keys cannot slip
  into a frame;
* **no mutation of inbound messages** -- a deep snapshot taken before
  dispatch equals the message after dispatch, and still equals it at
  the end of the run;
* **no returned object is kept** -- the caller gets a private copy of
  each reply while the original is wiped, so a handler that returned
  part of its own state (or of an inbound message) would see that state
  destroyed and the replay would stop matching the simulator.

Plus the codec-free guard: with the frame codec patched to raise, a
sequential replay -- in process, or on a single-process TCP cluster --
still completes and equals the simulator.
"""

from __future__ import annotations

import asyncio
import copy

import pytest

import repro.serve.protocol as protocol
import repro.serve.transport as transport
from repro.coherency import CoherencyConfig, build_policy
from repro.costs.model import LatencyCostModel
from repro.experiments.presets import build_architecture
from repro.faults import FaultInjector, FaultPlan, FaultyTransport, LinkRule
from repro.serve import (
    Cluster,
    InProcessTransport,
    LoadGenerator,
    ResilienceConfig,
    RetryPolicy,
    TCPTransport,
)
from repro.serve.protocol import HEADER_BYTES, decode_payload, encode_frame
from repro.serve.transport import Transport
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.factory import SCHEME_NAMES, build_scheme
from repro.workload.generator import BoeingLikeTraceGenerator, WorkloadConfig
from repro.workload.updates import generate_update_events

WORKLOAD = WorkloadConfig(
    num_objects=80,
    num_servers=3,
    num_clients=8,
    num_requests=400,
    zipf_theta=0.8,
    seed=7,
)
CONFIG = SimulationConfig(relative_cache_size=0.01, dcache_ratio=3.0)
FAST_RESILIENCE = ResilienceConfig(
    retry=RetryPolicy(
        attempts=3, backoff_base=0.0005, backoff_max=0.002, jitter=0.5
    )
)


def assert_transparent(message: dict, what: str) -> None:
    decoded = decode_payload(encode_frame(message)[HEADER_BYTES:])
    assert decoded == message, f"{what} is not JSON-transparent: {message!r}"


def wipe(value) -> None:
    """Destroy every container reachable from ``value``, in place."""
    if isinstance(value, dict):
        for item in value.values():
            wipe(item)
        value.clear()
    elif isinstance(value, list):
        for item in value:
            wipe(item)
        del value[:]


class OwnershipChecker(Transport):
    """Wraps a transport and polices the ownership rules on every hop."""

    def __init__(self, inner: Transport) -> None:
        self.inner = inner
        self.dispatched = []  # (inbound message, snapshot before dispatch)
        self.replies = 0

    async def start_node(self, node_id, handler):
        async def checked(message):
            assert_transparent(message, f"message to node {node_id}")
            snapshot = copy.deepcopy(message)
            self.dispatched.append((message, snapshot))
            try:
                reply = await handler(message)
            finally:
                assert message == snapshot, (
                    f"node {node_id} mutated an inbound message: "
                    f"{snapshot!r} -> {message!r}"
                )
            assert_transparent(reply, f"reply of node {node_id}")
            return reply

        return await self.inner.start_node(node_id, checked)

    async def call(self, address, message):
        reply = await self.inner.call(address, message)
        private = copy.deepcopy(reply)
        wipe(reply)
        self.replies += 1
        return private

    async def close(self) -> None:
        await self.inner.close()

    def assert_untouched(self) -> None:
        """Every inbound message still equals its pre-dispatch snapshot."""
        for message, snapshot in self.dispatched:
            assert message == snapshot, (
                f"inbound message changed after dispatch: "
                f"{snapshot!r} -> {message!r}"
            )


@pytest.fixture(scope="module")
def seeded_trace():
    generator = BoeingLikeTraceGenerator(WORKLOAD)
    return generator.generate(), generator.catalog


def simulate(arch, catalog, scheme_name, trace, updates=(), coherency=None):
    cost_model = LatencyCostModel(arch.network, catalog.mean_size)
    capacity = CONFIG.capacity_bytes(catalog.total_bytes)
    dcache = CONFIG.dcache_entries(catalog.total_bytes, catalog.mean_size)
    scheme = build_scheme(scheme_name, cost_model, capacity, dcache)
    policy = (
        build_policy(coherency, catalog.num_objects)
        if coherency is not None
        else None
    )
    engine = SimulationEngine(
        arch, cost_model, scheme, warmup_fraction=CONFIG.warmup_fraction
    )
    return engine.run(trace, updates=updates, coherency=policy)


def replay(
    arch,
    catalog,
    scheme_name,
    trace,
    transport,
    updates=(),
    coherency=None,
    **build,
):
    async def scenario():
        cluster = Cluster.build(
            arch,
            catalog,
            scheme_name,
            config=CONFIG,
            transport=transport,
            coherency=coherency,
            **build,
        )
        await cluster.start()
        loadgen = LoadGenerator(
            cluster,
            trace,
            updates=updates,
            warmup_fraction=CONFIG.warmup_fraction,
        )
        report = await loadgen.run(mode="sequential")
        await cluster.stop()
        return report

    return asyncio.run(scenario())


class TestOwnershipOracle:
    @pytest.mark.parametrize("arch_name", ["hierarchical", "en-route"])
    @pytest.mark.parametrize("scheme_name", sorted(SCHEME_NAMES))
    def test_sequential_replay(self, seeded_trace, scheme_name, arch_name):
        trace, catalog = seeded_trace
        arch = build_architecture(arch_name, WORKLOAD, seed=2)
        checker = OwnershipChecker(InProcessTransport())
        report = replay(arch, catalog, scheme_name, trace, checker)
        sim = simulate(arch, catalog, scheme_name, trace)
        assert report.summary == sim.summary
        assert checker.replies >= len(trace)
        checker.assert_untouched()

    @pytest.mark.parametrize("scheme_name", sorted(SCHEME_NAMES))
    def test_single_process_tcp_cluster(self, seeded_trace, scheme_name):
        """Every hop between nodes one TCP transport hosts is a direct
        handler call, held to the same rules."""
        trace, catalog = seeded_trace
        arch = build_architecture("en-route", WORKLOAD, seed=2)
        tcp = TCPTransport()
        checker = OwnershipChecker(tcp)
        report = replay(arch, catalog, scheme_name, trace, checker)
        sim = simulate(arch, catalog, scheme_name, trace)
        assert report.summary == sim.summary
        assert checker.replies >= len(trace)
        assert tcp._pools == {}  # no hop dialled a socket
        checker.assert_untouched()

    @pytest.mark.parametrize("arch_name", ["hierarchical", "en-route"])
    def test_channel_coherency(self, seeded_trace, arch_name):
        trace, catalog = seeded_trace
        arch = build_architecture(arch_name, WORKLOAD, seed=2)
        updates = generate_update_events(
            WORKLOAD.num_objects, trace.duration, update_rate=0.8, seed=7
        )
        coherency = CoherencyConfig(mode="channel", group_count=10)
        checker = OwnershipChecker(InProcessTransport())
        report = replay(
            arch,
            catalog,
            "coordinated",
            trace,
            checker,
            updates=updates,
            coherency=coherency,
        )
        sim = simulate(
            arch, catalog, "coordinated", trace, updates, coherency
        )
        assert report.summary == sim.summary
        kinds = {message["type"] for message, _ in checker.dispatched}
        assert {"sub", "pub", "event", "chsync"} <= kinds
        checker.assert_untouched()

    def test_fault_injection_duplicates_and_drops(self, seeded_trace):
        trace, catalog = seeded_trace
        arch = build_architecture("hierarchical", WORKLOAD, seed=2)
        updates = generate_update_events(
            WORKLOAD.num_objects, trace.duration, update_rate=0.8, seed=7
        )
        plan = FaultPlan(
            seed=4,
            links=(
                LinkRule(ops=("fwd",), drop_rate=0.02, duplicate_rate=0.05),
                LinkRule(ops=("event",), drop_rate=0.3, duplicate_rate=0.2),
            ),
        )
        coherency = CoherencyConfig(mode="channel", group_count=10)

        def run(inner):
            injector = FaultInjector(plan)
            report = replay(
                arch,
                catalog,
                "coordinated",
                trace,
                FaultyTransport(inner, injector),
                updates=updates,
                coherency=coherency,
                resilience=FAST_RESILIENCE,
                seed=plan.seed,
            )
            return report, injector.summary()

        checker = OwnershipChecker(InProcessTransport())
        checked, checked_faults = run(checker)
        plain, plain_faults = run(InProcessTransport())
        checker.assert_untouched()
        kinds = {message["type"] for message, _ in checker.dispatched}
        assert "catchup" in kinds
        assert checked.errors == 0
        assert checked_faults["duplicates"] > 0 and checked_faults["drops"] > 0
        # The checker is invisible: private copies and wiped originals
        # change nothing a correct handler can observe.
        assert checked_faults == plain_faults
        assert checked.summary == plain.summary
        assert checked.coherency == plain.coherency


class TestCodecFree:
    """Serving within one process never touches the frame codec."""

    def test_replay_with_codec_disabled(self, monkeypatch):
        self.replay_with_codec_disabled(monkeypatch, InProcessTransport())

    def test_tcp_replay_with_codec_disabled(self, monkeypatch):
        """A single-process TCP cluster calls its hosted nodes directly."""
        self.replay_with_codec_disabled(monkeypatch, TCPTransport())

    @staticmethod
    def replay_with_codec_disabled(monkeypatch, transport_under_test):
        generator = BoeingLikeTraceGenerator(
            WorkloadConfig(
                num_objects=80,
                num_servers=3,
                num_clients=8,
                num_requests=500,
                zipf_theta=0.8,
                seed=13,
            )
        )
        trace, catalog = generator.generate(), generator.catalog
        arch = build_architecture("en-route", WORKLOAD, seed=2)
        sim = simulate(arch, catalog, "coordinated", trace)

        def refuse(*args, **kwargs):
            raise AssertionError("the frame codec ran in process")

        for module in (protocol, transport):
            monkeypatch.setattr(module, "encode_frame", refuse)
            monkeypatch.setattr(module, "decode_payload", refuse)
        report = replay(
            arch, catalog, "coordinated", trace, transport_under_test
        )
        assert report.requests_total == len(trace) == 500
        assert report.errors == 0
        assert report.summary == sim.summary
