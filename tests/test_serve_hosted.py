"""Hosted dispatch: a TCP transport never dials an address it hosts.

:class:`~repro.serve.transport.TCPTransport` calls the handler of a node
it serves directly -- no socket, no codec -- under the message-ownership
rules of :mod:`repro.serve.transport`.  A hosted call must still behave
as a call to a remote peer would:

* a handler exception surfaces as ``RemoteProtocolError``;
* past ``call_timeout`` the caller gets ``CallTimeout`` while the
  callee's handler runs on to completion;
* after ``close()`` the address is gone (``NodeUnreachable``), and
  ``close()`` neither hangs on nor leaks an in-flight hosted call;
* a single-process TCP cluster under the example fault plan counts the
  same retries, timeouts, failovers and breaker trips as the same plan
  over :class:`~repro.serve.transport.InProcessTransport`.

The ownership oracle and the codec-free replay on a single-process TCP
cluster live in ``test_serve_ownership.py``; calls that must cross a
socket go through a second, client-only transport (``test_serve_tcp.py``).
"""

from __future__ import annotations

import asyncio
import dataclasses
from pathlib import Path

import pytest

import repro.serve.protocol as protocol
from repro.experiments.presets import SMALL_SCALE, build_architecture
from repro.faults import FaultInjector, FaultPlan, FaultyTransport
from repro.serve import (
    CallTimeout,
    Cluster,
    InProcessTransport,
    LoadGenerator,
    NodeUnreachable,
    ProtocolError,
    RemoteProtocolError,
    ResilienceConfig,
    RetryPolicy,
    TCPTransport,
)
from repro.sim.config import SimulationConfig
from repro.workload.generator import BoeingLikeTraceGenerator

FAULT_PLAN = Path(__file__).resolve().parent.parent / "examples" / "fault_plan.json"


def run(coro, timeout=60.0):
    async def bounded():
        return await asyncio.wait_for(coro, timeout=timeout)

    return asyncio.run(bounded())


async def pong(message):
    return {"type": "pong", "echo": message.get("n")}


class TestHostedCall:
    def test_hands_over_the_objects_without_socket_or_codec(
        self, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the frame codec ran for a hosted call")

        monkeypatch.setattr(protocol, "encode_frame", refuse)
        monkeypatch.setattr(protocol, "decode_payload", refuse)

        async def scenario():
            transport = TCPTransport()
            reply = {"type": "pong"}
            seen = []

            async def handler(message):
                seen.append(message)
                return reply

            address = await transport.start_node(1, handler)
            message = {"type": "ping"}
            assert await transport.call(address, message) is reply
            assert seen[0] is message
            assert transport._pools == {}
            await transport.close()

        run(scenario())

    def test_handler_exception_surfaces_as_remote_error(self):
        async def scenario():
            transport = TCPTransport()

            async def handler(message):
                raise KeyError("missing thing")

            address = await transport.start_node(1, handler)
            with pytest.raises(RemoteProtocolError, match="missing thing"):
                await transport.call(address, {"type": "ping"})
            await transport.close()

        run(scenario())

    def test_timeout_leaves_the_callee_running(self):
        async def scenario():
            transport = TCPTransport(call_timeout=0.05)
            completed = []

            async def handler(message):
                await asyncio.sleep(0.2)
                completed.append(message["n"])
                return {"type": "pong"}

            address = await transport.start_node(1, handler)
            with pytest.raises(CallTimeout):
                await transport.call(address, {"type": "ping", "n": 1})
            assert completed == []
            await asyncio.sleep(0.3)
            assert completed == [1]
            # The transport still answers within the deadline afterwards.
            fast = await transport.start_node(2, pong)
            assert (await transport.call(fast, {"n": 2}))["echo"] == 2
            await transport.close()

        run(scenario())

    def test_address_is_gone_after_close(self):
        async def scenario():
            transport = TCPTransport()
            address = await transport.start_node(1, pong)
            assert (await transport.call(address, {"n": 1}))["echo"] == 1
            await transport.close()
            with pytest.raises(NodeUnreachable):
                await transport.call(address, {"n": 2})

        run(scenario())

    def test_close_with_inflight_call_under_deadline(self):
        """close() drains the hosted dispatch task, cancels it past the
        drain window, and the caller sees the node stop mid-call."""

        async def scenario():
            transport = TCPTransport(call_timeout=30.0, drain_timeout=0.2)
            never = asyncio.Event()
            reported = []
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(
                lambda loop, context: reported.append(context)
            )
            before = asyncio.all_tasks()

            async def handler(message):
                await never.wait()
                return {"type": "pong"}

            address = await transport.start_node(1, handler)
            call = asyncio.ensure_future(
                transport.call(address, {"type": "ping"})
            )
            await asyncio.sleep(0.05)  # let the call reach the handler
            started = loop.time()
            await transport.close()
            elapsed = loop.time() - started
            (outcome,) = await asyncio.gather(call, return_exceptions=True)
            await asyncio.sleep(0.05)
            left = asyncio.all_tasks() - before
            return elapsed, outcome, left, reported

        elapsed, outcome, left, reported = run(scenario())
        assert elapsed < 5.0
        assert isinstance(outcome, ProtocolError)
        assert left == set()
        assert reported == []

    def test_close_with_inflight_plain_call(self):
        """Without a deadline the hosted dispatch runs in the caller's
        own task: close() returns at once and leaves that task to its
        owner, as the in-process transport does."""

        async def scenario():
            transport = TCPTransport(drain_timeout=5.0)
            release = asyncio.Event()

            async def handler(message):
                await release.wait()
                return {"type": "pong"}

            address = await transport.start_node(1, handler)
            call = asyncio.ensure_future(
                transport.call(address, {"type": "ping"})
            )
            await asyncio.sleep(0.05)
            loop = asyncio.get_running_loop()
            started = loop.time()
            await transport.close()
            elapsed = loop.time() - started
            release.set()
            return elapsed, await call

        elapsed, reply = run(scenario())
        assert elapsed < 1.0
        assert reply == {"type": "pong"}


def fault_plan_replay(inner):
    """A sequential small-scale replay under examples/fault_plan.json.

    Returns the report, the per-node counters, the injector's
    tally, and how many connections the transport held at the end.
    """
    plan = FaultPlan.from_json_file(FAULT_PLAN)
    workload = dataclasses.replace(SMALL_SCALE.workload, num_requests=1500)
    generator = BoeingLikeTraceGenerator(workload)
    trace, catalog = generator.generate(), generator.catalog
    arch = build_architecture("hierarchical", workload, seed=0)
    resilience = ResilienceConfig(
        retry=RetryPolicy(attempts=4, backoff_base=0.0005, backoff_max=0.002)
    )

    async def scenario():
        injector = FaultInjector(plan)
        cluster = Cluster.build(
            arch,
            catalog,
            "coordinated",
            config=SimulationConfig(relative_cache_size=0.03),
            transport=FaultyTransport(inner, injector),
            resilience=resilience,
            seed=plan.seed,
        )
        await cluster.start()
        report = await LoadGenerator(cluster, trace).run(mode="sequential")
        counters = {
            node_id: node.registry.snapshot().get(node_id, {})
            for node_id, node in cluster.nodes.items()
        }
        pooled = sum(len(pool) for pool in getattr(inner, "_pools", {}).values())
        snapshot = await cluster.stop()
        assert snapshot["invariant_violations"] == []
        return report, counters, injector.summary(), pooled

    return run(scenario(), timeout=120.0)


def test_fault_plan_counters_match_in_process():
    tcp = fault_plan_replay(TCPTransport(call_timeout=5.0))
    inproc = fault_plan_replay(InProcessTransport())
    report, counters, injected, pooled = tcp
    assert pooled == 0  # every hop was a hosted call
    assert report.errors == 0
    assert injected["drops"] > 0 and injected["refused_calls"] > 0
    for counter in ("rpc_retries", "rpc_timeouts", "failovers"):
        assert sum(node.get(counter, 0) for node in counters.values()) > 0
    assert counters == inproc[1]
    assert injected == inproc[2]
    assert report.summary == inproc[0].summary
