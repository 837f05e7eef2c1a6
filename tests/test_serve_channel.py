"""The live invalidation channel: broker, subscribers, and the oracle.

Three layers of contract:

* **Unit** -- the :class:`~repro.serve.channel.ChannelBroker` sequences
  and fans out events, replays catch-ups, and drops (not fails) on
  retryable fan-out errors; the
  :class:`~repro.serve.channel.ChannelSubscriber` dedups duplicates,
  pulls gaps, judges stale hits retroactively, and converges to zero
  pending after a sync.
* **Differential oracle** -- a channel-mode cluster replaying a trace
  sequentially reproduces the in-band cluster (and the simulator)
  bit-for-bit for every scheme on both architectures, and its merged
  coherency accounting equals the simulator's channel policy field for
  field.  A run over real loopback TCP sockets closes the loop.
* **Recovery** -- with fault-injected fan-out drops, gap detection and
  the drain-time sync still converge every node to zero pending.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.coherency import CoherencyConfig, build_policy
from repro.costs.model import LatencyCostModel
from repro.experiments.presets import build_architecture
from repro.serve import Cluster, ClusterClient, LoadGenerator, TCPTransport
from repro.serve.channel import (
    BROKER_NODE_ID,
    ChannelBroker,
    ChannelSubscriber,
    merge_channel_stats,
)
from repro.serve.protocol import (
    MSG_CATCHUP,
    MSG_CATCHUP_OK,
    MSG_CHSTATS,
    MSG_CHSTATS_OK,
    MSG_PING,
    MSG_PONG,
    MSG_PUB,
    MSG_PUB_OK,
    MSG_SUB,
    MSG_SUB_OK,
    CallTimeout,
    ProtocolError,
)
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.factory import SCHEME_NAMES, build_scheme
from repro.workload.generator import BoeingLikeTraceGenerator, WorkloadConfig
from repro.workload.groups import GroupAssignment
from repro.workload.updates import generate_update_events

WORKLOAD = WorkloadConfig(
    num_objects=200,
    num_servers=4,
    num_clients=12,
    num_requests=600,
    zipf_theta=0.8,
    seed=11,
)
CONFIG = SimulationConfig(relative_cache_size=0.02, dcache_ratio=3.0)


def run(coro, timeout=120.0):
    async def bounded():
        return await asyncio.wait_for(coro, timeout=timeout)

    return asyncio.run(bounded())


# -- unit: broker ------------------------------------------------------------


class FakeScheme:
    """Tracks per-(node, object) copies; invalidate_step removes one."""

    def __init__(self, copies=()):
        self.copies = set(copies)

    def invalidate_step(self, node_id, object_id):
        if (node_id, object_id) in self.copies:
            self.copies.discard((node_id, object_id))
            return 1
        return 0


class TestChannelBroker:
    def make(self, replies=None, fail=()):
        """A broker whose fan-out records frames and can inject faults."""
        sent = []

        async def fanout(node_id, frame):
            if node_id in fail:
                raise CallTimeout(f"node {node_id} dropped the frame")
            sent.append((node_id, frame))
            reply = {"type": "event-ok", "node": node_id, "removed": 0}
            if replies and node_id in replies:
                reply["removed"] = replies[node_id]
            return reply

        return ChannelBroker(fanout), sent

    def test_sub_registers_and_returns_latest(self):
        broker, _ = self.make()
        reply = run(broker.handle({"type": MSG_SUB, "node": 3}))
        assert reply["type"] == MSG_SUB_OK
        assert reply["latest"] == {}
        assert broker.stats.subscriptions == 1

    def test_pub_sequences_and_fans_out_in_node_order(self):
        broker, sent = self.make(replies={1: 2, 5: 1})
        for node in (5, 1, 9):
            run(broker.handle({"type": MSG_SUB, "node": node}))
        reply = run(broker.handle({"type": MSG_PUB, "group": 0, "time": 4.0}))
        assert reply == {
            "type": MSG_PUB_OK, "group": 0, "seq": 1, "removed": 3,
        }
        assert [node for node, _ in sent] == [1, 5, 9]
        assert all(f["seq"] == 1 and f["time"] == 4.0 for _, f in sent)
        again = run(broker.handle({"type": MSG_PUB, "group": 0, "time": 5.0}))
        assert again["seq"] == 2
        other = run(broker.handle({"type": MSG_PUB, "group": 7, "time": 5.0}))
        assert other["seq"] == 1  # sequences are per group
        assert broker.latest() == {0: 2, 7: 1}
        assert broker.stats.event_deliveries == 9

    def test_group_filter_limits_fanout(self):
        broker, sent = self.make()
        run(broker.handle({"type": MSG_SUB, "node": 1, "groups": [0]}))
        run(broker.handle({"type": MSG_SUB, "node": 2, "groups": [1]}))
        run(broker.handle({"type": MSG_PUB, "group": 1, "time": 1.0}))
        assert [node for node, _ in sent] == [2]

    def test_retryable_fanout_error_drops_not_fails(self):
        broker, sent = self.make(fail={2})
        for node in (1, 2, 3):
            run(broker.handle({"type": MSG_SUB, "node": node}))
        reply = run(broker.handle({"type": MSG_PUB, "group": 0, "time": 1.0}))
        assert reply["type"] == MSG_PUB_OK
        assert [node for node, _ in sent] == [1, 3]
        assert broker.event_drops == 1
        assert broker.stats.event_deliveries == 2
        # The dropped frame is still priced: it went on the wire.
        assert broker.stats_dict()["event_drops"] == 1

    def test_catchup_replays_suffix(self):
        broker, _ = self.make()
        for time in (1.0, 2.0, 3.0):
            run(broker.handle({"type": MSG_PUB, "group": 4, "time": time}))
        reply = run(
            broker.handle({"type": MSG_CATCHUP, "group": 4, "since": 1})
        )
        assert reply["type"] == MSG_CATCHUP_OK
        assert reply["events"] == [
            {"seq": 2, "time": 2.0}, {"seq": 3, "time": 3.0},
        ]
        empty = run(
            broker.handle({"type": MSG_CATCHUP, "group": 99, "since": 0})
        )
        assert empty["events"] == []
        assert broker.stats.catchups == 2

    def test_chstats_ping_and_unknown(self):
        broker, _ = self.make()
        stats = run(broker.handle({"type": MSG_CHSTATS}))
        assert stats["type"] == MSG_CHSTATS_OK
        assert stats["stats"]["mode"] == "channel"
        pong = run(broker.handle({"type": MSG_PING}))
        assert pong == {"type": MSG_PONG, "node": BROKER_NODE_ID}
        with pytest.raises(ProtocolError):
            run(broker.handle({"type": "walk"}))
        with pytest.raises(ProtocolError):
            run(broker.handle({"type": MSG_PUB, "group": 0}))  # no time


# -- unit: subscriber --------------------------------------------------------


class TestChannelSubscriber:
    def make(self, copies=(), groups=None):
        broker_calls = []
        broker = ChannelBroker(lambda node, frame: None)

        async def call_broker(frame):
            broker_calls.append(frame)
            return await broker.handle(frame)

        scheme = FakeScheme(copies)
        sub = ChannelSubscriber(
            7, scheme, groups or GroupAssignment.per_object(10), call_broker
        )
        return sub, scheme, broker, broker_calls

    def test_in_order_delivery_invalidates_stale_copy(self):
        sub, scheme, _, _ = self.make(copies=[(7, 3)])
        sub.note_insert(3, 1.0)
        removed = run(sub.deliver(group=3, seq=1, time=2.0, clock=5.0))
        assert removed == 1
        assert (7, 3) not in scheme.copies
        assert sub.applied == {3: 1}
        assert sub.stats.copies_invalidated == 1
        # Window = clock at application - event origin time.
        assert sub.stats.staleness_windows == [3.0]

    def test_fresh_copy_survives_the_event(self):
        sub, scheme, _, _ = self.make(copies=[(7, 3)])
        sub.note_insert(3, 4.0)  # inserted after the update happened
        removed = run(sub.deliver(group=3, seq=1, time=2.0, clock=5.0))
        assert removed == 0
        assert (7, 3) in scheme.copies

    def test_evicted_copy_counts_without_a_window(self):
        sub, scheme, _, _ = self.make(copies=[])  # eviction already won
        sub.note_insert(3, 1.0)
        removed = run(sub.deliver(group=3, seq=1, time=2.0, clock=5.0))
        assert removed == 0
        assert sub.stats.stale_copies_evicted == 1
        assert sub.stats.staleness_windows == []

    def test_duplicate_is_discarded(self):
        sub, scheme, _, _ = self.make(copies=[(7, 3)])
        sub.note_insert(3, 1.0)
        run(sub.deliver(group=3, seq=1, time=2.0, clock=5.0))
        removed = run(sub.deliver(group=3, seq=1, time=2.0, clock=6.0))
        assert removed == 0
        assert sub.duplicates == 1
        assert sub.stats.copies_invalidated == 1  # not double counted

    def test_gap_pulls_missed_events_from_broker(self):
        sub, scheme, broker, calls = self.make(copies=[(7, 2), (7, 5)])
        for time in (1.0, 2.0, 3.0):
            run(broker.handle({"type": MSG_PUB, "group": 2, "time": time}))
        sub.note_insert(2, 0.5)
        # First heard frame is seq 3: a gap past applied+1.
        removed = run(sub.deliver(group=2, seq=3, time=3.0, clock=4.0))
        assert removed == 1
        assert sub.gaps == 1
        assert sub.catchups == 1
        assert calls == [{"type": MSG_CATCHUP, "group": 2, "since": 0}]
        assert sub.applied == {2: 3}
        assert sub.pending() == 0

    def test_sync_converges_lagging_groups(self):
        sub, scheme, broker, _ = self.make(copies=[(7, 1), (7, 4)])
        run(broker.handle({"type": MSG_PUB, "group": 1, "time": 1.0}))
        run(broker.handle({"type": MSG_PUB, "group": 4, "time": 2.0}))
        sub.note_insert(1, 0.0)
        sub.note_insert(4, 0.0)
        # JSON transports stringify dict keys; sync must tolerate that.
        latest = {str(g): s for g, s in broker.latest().items()}
        removed = run(sub.sync(latest, clock=3.0))
        assert removed == 2
        assert sub.pending() == 0
        assert sub.to_dict()["applied_events"] == 2

    def test_stale_hits_judged_retroactively(self):
        sub, scheme, _, _ = self.make(copies=[(7, 3)])
        sub.note_insert(3, 0.0)
        sub.note_hit(3, 1.0, size=100)  # before the update: clean
        sub.note_hit(3, 2.5, size=100)  # after the update: stale
        sub.note_hit(3, 3.0, size=150)  # after the update: stale
        run(sub.deliver(group=3, seq=1, time=2.0, clock=4.0))
        assert sub.stats.stale_hits == 2
        assert sub.stats.stale_bytes == 250
        # Judged entries are pruned: a redelivered event can't recount.
        assert sub._hit_log == {}

    def test_hits_without_tracked_insert_are_ignored(self):
        sub, _, _, _ = self.make()
        sub.note_hit(3, 1.0, size=100)
        assert sub._hit_log == {}

    def test_merge_splits_wire_and_staleness(self):
        broker_stats = {
            "events_published": 4, "event_deliveries": 7,
            "channel_bytes": 200, "subscriptions": 2, "catchups": 1,
            "event_drops": 1,
        }
        nodes = [
            {"stale_hits": 1, "stale_bytes": 50, "copies_invalidated": 2,
             "windows": [1.0, 3.0], "gaps": 1, "catchups": 1, "pending": 0},
            {"stale_hits": 0, "stale_bytes": 0, "copies_invalidated": 1,
             "windows": [2.0], "duplicates": 2, "pending": 1},
        ]
        merged = merge_channel_stats(broker_stats, nodes)
        assert merged["mode"] == "channel"
        assert merged["channel_bytes"] == 200
        assert merged["protocol_bytes"] == 200
        assert merged["stale_hits"] == 1
        assert merged["copies_invalidated"] == 3
        assert merged["staleness_windows"] == 3
        assert merged["staleness_p50"] == 2.0
        assert merged["event_drops"] == 1
        assert merged["gaps"] == 1
        assert merged["duplicates"] == 2
        assert merged["node_catchups"] == 1
        assert merged["pending"] == 1


# -- the cluster-level differential oracle -----------------------------------


@pytest.fixture(scope="module")
def scenario():
    generator = BoeingLikeTraceGenerator(WORKLOAD)
    trace = generator.generate()
    catalog = generator.catalog
    updates = generate_update_events(
        WORKLOAD.num_objects, trace.duration, update_rate=0.8, seed=7
    )
    assert updates
    return trace, catalog, updates


def simulate(arch, catalog, scheme_name, trace, updates, coherency):
    cost_model = LatencyCostModel(arch.network, catalog.mean_size)
    capacity = CONFIG.capacity_bytes(catalog.total_bytes)
    dcache = CONFIG.dcache_entries(catalog.total_bytes, catalog.mean_size)
    scheme = build_scheme(scheme_name, cost_model, capacity, dcache)
    policy = build_policy(coherency, catalog.num_objects)
    engine = SimulationEngine(
        arch, cost_model, scheme, warmup_fraction=CONFIG.warmup_fraction
    )
    return engine.run(trace, updates=updates, coherency=policy), scheme


def serve_replay(
    arch,
    catalog,
    scheme_name,
    trace,
    updates,
    coherency,
    transport=None,
    client_transport=None,
):
    """Replay through the cluster itself, or -- with ``client_transport``
    -- through a :class:`ClusterClient` on that transport, as
    ``repro loadgen`` drives a cluster from another process."""

    async def scenario():
        cluster = Cluster.build(
            arch,
            catalog,
            scheme_name,
            config=CONFIG,
            coherency=coherency,
            transport=transport,
        )
        await cluster.start()
        driver = cluster
        if client_transport is not None:
            driver = ClusterClient(
                arch,
                cluster.cost_model,
                cluster.addresses,
                client_transport,
                coherency=coherency,
                groups=cluster.groups,
                broker_address=cluster.broker_address,
            )
        loadgen = LoadGenerator(
            driver,
            trace,
            updates=updates,
            warmup_fraction=CONFIG.warmup_fraction,
        )
        report = await loadgen.run(mode="sequential")
        if client_transport is not None:
            pooled = client_transport._pools.values()
            assert sum(len(pool) for pool in pooled) >= 1
            await driver.close()
        invalidations = sum(
            node.scheme.protocol_stats.invalidations
            for node in cluster.nodes.values()
            if hasattr(node.scheme, "protocol_stats")
        )
        snapshot = await cluster.stop()
        return report, snapshot, invalidations

    return run(scenario())


class TestChannelClusterOracle:
    """Channel-mode serve == in-band serve == simulator, bit for bit."""

    @pytest.mark.parametrize("arch_name", ["hierarchical", "en-route"])
    @pytest.mark.parametrize("scheme_name", sorted(SCHEME_NAMES))
    def test_channel_matches_inband(self, scenario, arch_name, scheme_name):
        trace, catalog, updates = scenario
        arch = build_architecture(arch_name, WORKLOAD, seed=0)
        inband, _, _ = serve_replay(
            arch, catalog, scheme_name, trace, updates,
            CoherencyConfig(mode="inband"),
        )
        channel, snapshot, _ = serve_replay(
            arch, catalog, scheme_name, trace, updates,
            CoherencyConfig(mode="channel"),
        )
        assert channel.summary == inband.summary
        assert channel.updates_applied == inband.updates_applied
        assert channel.copies_invalidated == inband.copies_invalidated
        stats = channel.coherency
        assert stats["mode"] == "channel"
        # Sequential replay applies every event before the next request:
        # nothing stale is ever served, nothing is left pending.
        assert stats["stale_hits"] == 0
        assert stats["pending"] == 0
        assert stats["event_drops"] == 0
        assert stats["events_published"] == len(updates)
        assert stats["event_deliveries"] == len(updates) * len(
            arch.cache_nodes
        )
        assert stats["inv_bytes"] == 0
        assert inband.coherency["inv_bytes"] > 0
        assert inband.coherency["channel_bytes"] == 0
        assert "channel" in snapshot
        assert "coherency" in snapshot
        assert snapshot["channel"]["broker"]["event_drops"] == 0

    @pytest.mark.parametrize("arch_name", ["hierarchical", "en-route"])
    def test_accounting_equals_simulator(self, scenario, arch_name):
        """Merged cluster stats == the sim channel policy, field by field."""
        trace, catalog, updates = scenario
        arch = build_architecture(arch_name, WORKLOAD, seed=0)
        config = CoherencyConfig(mode="channel")
        sim, _ = simulate(
            arch, catalog, "coordinated", trace, updates, config
        )
        report, _, _ = serve_replay(
            arch, catalog, "coordinated", trace, updates, config
        )
        live = dict(report.coherency)
        # The reliability counters are live-cluster-only extras.
        for key in (
            "event_drops", "gaps", "duplicates", "node_catchups", "pending"
        ):
            assert live.pop(key) == 0
        assert live == sim.coherency

    def test_live_tcp_channel_matches_simulator(self, scenario):
        """The full stack over real loopback sockets."""
        trace, catalog, updates = scenario
        arch = build_architecture("hierarchical", WORKLOAD, seed=0)
        config = CoherencyConfig(mode="channel")
        sim, _ = simulate(arch, catalog, "lru", trace, updates, config)
        report, snapshot, _ = serve_replay(
            arch, catalog, "lru", trace, updates, config,
            transport=TCPTransport(),
            client_transport=TCPTransport(),
        )
        assert report.summary == sim.summary
        assert report.copies_invalidated == sim.copies_invalidated
        assert report.coherency["pending"] == 0
        assert report.coherency["stale_hits"] == 0
        assert (
            report.coherency["channel_bytes"]
            == sim.coherency["channel_bytes"]
        )
        assert snapshot["coherency"]["mode"] == "channel"


class TestInbandParity:
    """Satellite: invalidate_step parity for every scheme, sim vs serve."""

    @pytest.mark.parametrize("scheme_name", sorted(SCHEME_NAMES))
    def test_interleaved_updates_match(self, scenario, scheme_name):
        trace, catalog, updates = scenario
        arch = build_architecture("hierarchical", WORKLOAD, seed=0)
        config = CoherencyConfig(mode="inband")
        sim, scheme = simulate(
            arch, catalog, scheme_name, trace, updates, config
        )
        report, _, served_invalidations = serve_replay(
            arch, catalog, scheme_name, trace, updates, config
        )
        assert report.summary == sim.summary
        assert report.updates_applied == sim.updates_applied
        assert report.copies_invalidated == sim.copies_invalidated
        assert report.coherency == sim.coherency
        if scheme_name == "coordinated":
            # Every in-band inv frame the cluster delivered is priced in
            # some node's ProtocolStats; the simulator prices the same
            # count on its single shared instance.
            assert (
                served_invalidations == scheme.protocol_stats.invalidations
            )
            assert sim.coherency["inv_frames"] == len(updates) * len(
                arch.cache_nodes
            )


class TestChannelRecovery:
    """Fan-out drops leave gaps; catchup + drain sync converge to zero."""

    def test_dropped_fanout_recovers_via_sync(self, scenario):
        trace, catalog, updates = scenario
        from repro.faults import FaultInjector, FaultPlan, FaultyTransport

        plan = FaultPlan.from_dict(
            {
                "seed": 3,
                "links": [{"ops": ["event"], "drop_rate": 0.5}],
            }
        )

        async def chaotic():
            from repro.serve.transport import InProcessTransport

            cluster = Cluster.build(
                build_architecture("hierarchical", WORKLOAD, seed=0),
                catalog,
                "lru",
                config=CONFIG,
                coherency=CoherencyConfig(mode="channel"),
                transport=FaultyTransport(
                    InProcessTransport(), FaultInjector(plan)
                ),
            )
            await cluster.start()
            loadgen = LoadGenerator(cluster, trace, updates=updates)
            report = await loadgen.run(mode="sequential")
            pending = await cluster.channel_sync()
            summary = cluster.coherency_summary()
            await cluster.stop()
            return report, pending, summary

        report, pending, summary = run(chaotic())
        assert summary["event_drops"] > 0, "the plan must actually drop"
        # Convergence: after the drain-time sync nothing is pending
        # anywhere, and every drop was recovered through a catchup.
        assert all(count == 0 for count in pending.values())
        assert summary["pending"] == 0
        assert summary["node_catchups"] > 0
        assert (
            report.coherency["copies_invalidated"]
            + report.coherency["stale_copies_evicted"]
            > 0
        )
