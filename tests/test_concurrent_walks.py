"""Two request walks interleaved by hand at the step level.

A live cluster runs the per-node protocol steps (``lookup_step``,
``decide_step``, ``deliver_step``) of many walks at once, so a walk's
response can pass a node that a concurrent walk changed after the first
walk looked there.  Sequential replay never produces these orders; this
suite builds them deterministically, for every scheme whose nodes pair
a main cache with a d-cache, and checks that each node stays consistent:

* **pass-through after a concurrent insert** -- walk A misses at node
  N, walk B caches the object at N, then A's response passes N without
  an insert instruction.  N must not gain a d-cache descriptor for the
  object it caches.
* **insert after a concurrent insert** -- both walks instruct N; the
  second application finds the copy already there and must evict
  nothing and count no insertion.
"""

from __future__ import annotations

import pytest

from repro.costs.model import LatencyCostModel
from repro.schemes.descriptor_scheme import DescriptorSchemeBase
from repro.schemes.node_state import DescriptorNode
from repro.sim.factory import SCHEME_NAMES, build_scheme
from repro.topology.builder import build_chain

PATH = [0, 1, 2, 3, 4]  # node 4 is the origin attachment
NODE_INDEX = 1
OBJECT_ID, SIZE = 7, 100


def make_scheme(name):
    network = build_chain([1.0] * 5)
    cost_model = LatencyCostModel(network, avg_size=100.0)
    return build_scheme(name, cost_model, 1500, 16)


DESCRIPTOR_SCHEMES = sorted(
    name
    for name in SCHEME_NAMES
    if isinstance(make_scheme(name), DescriptorSchemeBase)
)


def walk_up(scheme, now):
    """A walk's upstream half on a cold chain: misses up to the origin.

    Returns the decision the serving (origin) node ships downstream.
    """
    reports = []
    for node in PATH[:-1]:
        hit, report = scheme.lookup_step(node, OBJECT_ID, SIZE, now)
        assert not hit
        if report is not None:
            reports.append(report)
    return scheme.decide_step(
        PATH, len(PATH) - 1, reports, OBJECT_ID, SIZE, now
    )


def walk_down(scheme, decision, now):
    """A walk's downstream half; returns the per-index deliver results."""
    return {
        index: scheme.deliver_step(
            index, PATH, decision, OBJECT_ID, SIZE, now
        )
        for index in range(len(PATH) - 2, -1, -1)
    }


def test_every_descriptor_scheme_is_covered():
    assert {"coordinated", "adaptive", "costaware"} <= set(
        DESCRIPTOR_SCHEMES
    )


@pytest.mark.parametrize("scheme_name", DESCRIPTOR_SCHEMES)
def test_pass_through_after_concurrent_insert(scheme_name):
    scheme = make_scheme(scheme_name)
    decision_a = walk_up(scheme, now=1.0)
    decision_b = walk_up(scheme, now=2.0)
    decision_a["cache_at"] = []
    decision_b["cache_at"] = [PATH[NODE_INDEX]]
    delivered_b = walk_down(scheme, decision_b, now=3.0)
    assert delivered_b[NODE_INDEX] == (True, 0)
    delivered_a = walk_down(scheme, decision_a, now=4.0)
    assert delivered_a[NODE_INDEX] == (False, 0)
    scheme.check_invariants()  # "objects present in both caches" if not
    state = scheme.node_state(PATH[NODE_INDEX])
    assert OBJECT_ID in state.cache
    assert OBJECT_ID not in state.dcache


@pytest.mark.parametrize("scheme_name", DESCRIPTOR_SCHEMES)
def test_insert_after_concurrent_insert(scheme_name):
    scheme = make_scheme(scheme_name)
    decision_a = walk_up(scheme, now=1.0)
    decision_b = walk_up(scheme, now=2.0)
    decision_a["cache_at"] = [PATH[NODE_INDEX]]
    decision_b["cache_at"] = [PATH[NODE_INDEX]]
    walk_down(scheme, decision_b, now=3.0)
    state = scheme.node_state(PATH[NODE_INDEX])
    used = state.cache.used_bytes
    delivered_a = walk_down(scheme, decision_a, now=4.0)
    assert delivered_a[NODE_INDEX] == (False, 0)
    assert state.cache.used_bytes == used
    assert OBJECT_ID not in state.dcache
    scheme.check_invariants()


class TestDescriptorNodeIdempotence:
    """The node-level rule both interleavings rest on."""

    @staticmethod
    def cached_node():
        state = DescriptorNode(capacity_bytes=1000, dcache_entries=8)
        assert state.insert_object(OBJECT_ID, SIZE, 5.0, now=1.0) == []
        return state

    def test_insert_of_cached_object_refreshes_penalty_only(self):
        state = self.cached_node()
        assert state.insert_object(OBJECT_ID, SIZE, 9.0, now=2.0) is None
        assert state.descriptor(OBJECT_ID).miss_penalty == 9.0
        assert state.cache.used_bytes == SIZE
        assert len(state.dcache) == 0
        state.check_invariants()

    def test_dcache_refresh_of_cached_object_creates_nothing(self):
        state = self.cached_node()
        descriptor = state.ensure_dcache_descriptor(
            OBJECT_ID, SIZE, 3.0, now=2.0
        )
        assert descriptor is state.cache.entry(OBJECT_ID).descriptor
        assert descriptor.miss_penalty == 3.0
        assert len(state.dcache) == 0
        state.check_invariants()
