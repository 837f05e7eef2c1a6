"""The live out-of-band invalidation channel: broker and subscribers.

Implements channel-mode coherency for the serving cluster (the
squid-channels design the simulator models in
:class:`~repro.coherency.policy.ChannelCoherency`), on the same framed
JSON protocol every other cluster frame uses:

* every cache node ``sub``-scribes to a :class:`ChannelBroker` (hosted
  on the cluster transport at :data:`BROKER_NODE_ID`, *outside* the
  cache-node address map);
* an origin update is ``pub``-lished to the broker, which appends it to
  a per-group log under a monotonically increasing per-group sequence
  number and fans ``event`` frames out to the subscribers in sorted
  node order;
* a subscriber applies an event by invalidating its stale member
  copies (a copy is stale iff it was inserted before the event's
  origin timestamp) and accounting the staleness window;
* delivery is best-effort: a fan-out frame lost to a fault (timeout,
  unreachable node, corrupted frame) is simply dropped.  Recovery is
  sequence-number driven -- a subscriber that sees a gap (``seq``
  jumping past ``applied + 1``) pulls the missed events with a
  ``catchup``, duplicates (``seq <= applied``) are discarded, and the
  drain-time ``chsync`` replays every group to the broker's latest
  sequence -- so a channel cluster always converges to zero pending
  events, no matter which frames the network ate.

**Staleness accounting** mirrors the simulator policy exactly:

* a *stale copy* is a cached copy whose insertion time precedes the
  event's origin timestamp; applying the event removes it
  (``invalidate_step``) and records the window ``now - event_time``
  on the node's trace-time clock (a stale copy that capacity eviction
  already removed counts as ``stale_copies_evicted``, no window);
* a *stale hit* is a cache hit served off a stale copy between the
  origin update and the event's application.  Subscribers keep a small
  per-object log of ``(hit_time, copy_insert_time, size)`` entries and
  count them retroactively when the event arrives: a hit is stale iff
  ``hit_time >= event_time`` and ``copy_insert_time < event_time``.
  Each hit is counted at most once (entries are pruned as they are
  judged); the log is capped per object, so accounting is exact up to
  :data:`HIT_LOG_CAP` outstanding hits per object.

Under strictly sequential replay every event is applied before the
next request is issued, so no stale hit can occur and every staleness
window is zero -- which is why a channel-mode cluster reproduces the
in-band metrics bit-for-bit in the differential oracle.

Byte accounting is split to avoid double counting when broker and node
stats are merged: the broker prices all channel wire traffic (pub,
fan-out, catchup replay, subscription registration), while subscribers
only account staleness (stale hits/bytes, invalidated copies,
windows).  :func:`merge_channel_stats` folds both sides into one
:class:`~repro.coherency.stats.CoherencyStats`-shaped dict.
"""

from __future__ import annotations

from typing import Awaitable, Callable, Dict, List, Sequence, Tuple

from repro.coherency.stats import (
    CATCHUP_BYTES,
    EVENT_BYTES,
    SUB_BYTES,
    CoherencyStats,
)
from repro.serve.protocol import (
    MSG_CATCHUP,
    MSG_CATCHUP_OK,
    MSG_CHSTATS,
    MSG_CHSTATS_OK,
    MSG_EVENT,
    MSG_PING,
    MSG_PONG,
    MSG_PUB,
    MSG_PUB_OK,
    MSG_SUB,
    MSG_SUB_OK,
    RETRYABLE_ERRORS,
    ProtocolError,
)
from repro.workload.groups import GroupAssignment

# The broker's slot on the cluster transport.  Deliberately outside the
# non-negative cache-node id space so it can never collide with (or be
# mistaken for) a cache node; the cluster keeps its address out of the
# node address map, so invalidation broadcasts and stats sweeps never
# touch it.
BROKER_NODE_ID = -1

# Per-object bound on outstanding (not yet judged) hit-log entries; see
# the module docstring.  Generously above anything a real replay
# produces between two events for one object.
HIT_LOG_CAP = 256

# async (node_id, frame) -> reply: how the broker reaches a subscriber.
Fanout = Callable[[int, dict], Awaitable[dict]]
# async (frame) -> reply: how a subscriber reaches the broker.
BrokerCall = Callable[[dict], Awaitable[dict]]


class ChannelBroker:
    """Per-group sequenced event log with push fan-out.

    The broker is a transport handler like any cache node: ``sub``
    registers a subscriber, ``pub`` appends one event to the group's
    log and fans it out (best-effort -- a retryable failure drops that
    one delivery and is counted in ``event_drops``), ``catchup``
    replays a suffix of a group's log, and ``chstats`` exposes the
    accounting plus the latest sequence numbers (the drain-time sync
    source).
    """

    def __init__(self, fanout: Fanout) -> None:
        self._fanout = fanout
        # group id -> ordered event log; entry i holds seq == i + 1.
        self._log: Dict[int, List[dict]] = {}
        # node id -> subscribed group filter ("*" or a list of ids).
        self._subscribers: Dict[int, object] = {}
        self.stats = CoherencyStats(mode="channel")
        self.event_drops = 0

    # -- transport handler ---------------------------------------------------

    async def handle(self, message: dict) -> dict:
        kind = message["type"]
        if kind == MSG_SUB:
            return self._handle_sub(message)
        if kind == MSG_PUB:
            return await self._handle_pub(message)
        if kind == MSG_CATCHUP:
            return self._handle_catchup(message)
        if kind == MSG_CHSTATS:
            return {"type": MSG_CHSTATS_OK, "stats": self.stats_dict()}
        if kind == MSG_PING:
            return {"type": MSG_PONG, "node": BROKER_NODE_ID}
        raise ProtocolError(f"unexpected message type {kind!r} at broker")

    def _handle_sub(self, message: dict) -> dict:
        try:
            node = message["node"]
        except KeyError as missing:
            raise ProtocolError(f"sub frame missing field {missing}") from None
        self._subscribers[node] = message.get("groups", "*")
        self.stats.subscriptions += 1
        self.stats.channel_bytes += SUB_BYTES
        return {"type": MSG_SUB_OK, "node": node, "latest": self.wire_latest()}

    def _wants(self, node: int, group: int) -> bool:
        groups = self._subscribers[node]
        return groups == "*" or group in groups

    async def _handle_pub(self, message: dict) -> dict:
        try:
            group = message["group"]
            time = message["time"]
        except KeyError as missing:
            raise ProtocolError(f"pub frame missing field {missing}") from None
        log = self._log.setdefault(group, [])
        seq = len(log) + 1
        log.append({"seq": seq, "time": time})
        self.stats.events_published += 1
        self.stats.channel_bytes += EVENT_BYTES  # the pub frame itself
        removed = 0
        for node in sorted(self._subscribers):
            if not self._wants(node, group):
                continue
            self.stats.channel_bytes += EVENT_BYTES
            try:
                reply = await self._fanout(
                    node,
                    {
                        "type": MSG_EVENT,
                        "group": group,
                        "seq": seq,
                        "time": time,
                    },
                )
            except RETRYABLE_ERRORS:
                # Lost on the wire; the subscriber's gap detection or the
                # drain-time chsync will pull it via catchup.
                self.event_drops += 1
                continue
            self.stats.event_deliveries += 1
            removed += reply.get("removed", 0)
        return {
            "type": MSG_PUB_OK,
            "group": group,
            "seq": seq,
            "removed": removed,
        }

    def _handle_catchup(self, message: dict) -> dict:
        try:
            group = message["group"]
            since = message["since"]
        except KeyError as missing:
            raise ProtocolError(
                f"catchup frame missing field {missing}"
            ) from None
        # Copies: the log entries stay the broker's own.
        events = [dict(entry) for entry in self._log.get(group, [])[since:]]
        self.stats.catchups += 1
        self.stats.channel_bytes += CATCHUP_BYTES + EVENT_BYTES * len(events)
        return {"type": MSG_CATCHUP_OK, "group": group, "events": events}

    # -- introspection -------------------------------------------------------

    def latest(self) -> Dict[int, int]:
        """Latest sequence number per group, keyed by group id."""
        return {group: len(log) for group, log in self._log.items()}

    def wire_latest(self) -> Dict[str, int]:
        """:meth:`latest` as frames carry it: JSON object keys are
        strings, so in-process and TCP frames are identical."""
        return {str(group): seq for group, seq in self.latest().items()}

    def stats_dict(self) -> dict:
        return {
            **self.stats.to_dict(),
            "event_drops": self.event_drops,
            "latest": self.wire_latest(),
        }


class ChannelSubscriber:
    """One cache node's view of the channel: apply, dedup, catch up."""

    def __init__(
        self,
        node_id: int,
        scheme,
        groups: GroupAssignment,
        call_broker: BrokerCall,
    ) -> None:
        self.node_id = node_id
        self.scheme = scheme
        self.groups = groups
        self._call_broker = call_broker
        # group -> last contiguously applied sequence number.
        self.applied: Dict[int, int] = {}
        # group -> highest sequence number this node has heard of.
        self.latest_known: Dict[int, int] = {}
        # object -> insertion time of the currently cached copy.
        self._insert_times: Dict[int, float] = {}
        # object -> [(hit_time, copy_insert_time, size)] not yet judged.
        self._hit_log: Dict[int, List[Tuple[float, float, int]]] = {}
        self.stats = CoherencyStats(mode="channel")
        self.gaps = 0
        self.duplicates = 0
        self.catchups = 0

    # -- data-plane hooks (called from the node's walk) ----------------------

    def note_hit(self, object_id: int, now: float, size: int) -> None:
        """Log one cache hit for retroactive stale-hit judgement."""
        insert_time = self._insert_times.get(object_id)
        if insert_time is None:
            return
        log = self._hit_log.setdefault(object_id, [])
        log.append((now, insert_time, size))
        if len(log) > HIT_LOG_CAP:
            del log[0]

    def note_insert(self, object_id: int, now: float) -> None:
        """A fresh copy arrived from upstream (postdates every update)."""
        self._insert_times[object_id] = now

    # -- event application ---------------------------------------------------

    def apply_event(self, group: int, seq: int, time: float, clock: float) -> int:
        """Apply one in-order event; returns copies removed here.

        ``clock`` is the node's trace-time clock at application -- the
        staleness window of every removed stale copy.
        """
        stats = self.stats
        removed_total = 0
        for object_id in self.groups.members(group):
            log = self._hit_log.get(object_id)
            if log:
                kept = []
                for hit_time, copy_insert, size in log:
                    if copy_insert < time:
                        # This copy is stale relative to the event; the
                        # hit was stale iff it happened after the origin
                        # update.  Either way the entry is judged now --
                        # each hit is counted at most once.
                        if hit_time >= time:
                            stats.stale_hits += 1
                            stats.stale_bytes += size
                    else:
                        kept.append((hit_time, copy_insert, size))
                if kept:
                    self._hit_log[object_id] = kept
                else:
                    self._hit_log.pop(object_id, None)
            insert_time = self._insert_times.get(object_id)
            if insert_time is not None and insert_time < time:
                removed = self.scheme.invalidate_step(self.node_id, object_id)
                self._insert_times.pop(object_id, None)
                if removed:
                    removed_total += removed
                    stats.copies_invalidated += removed
                    stats.record_window(max(0.0, clock - time))
                else:
                    # The tracked copy is gone: capacity eviction beat
                    # the channel to it.  Over the wire this is an upper
                    # bound -- the node cannot see *when* the eviction
                    # happened, so a copy evicted even before the update
                    # still lands here.
                    stats.stale_copies_evicted += 1
        self.applied[group] = seq
        if self.latest_known.get(group, 0) < seq:
            self.latest_known[group] = seq
        return removed_total

    async def deliver(
        self, group: int, seq: int, time: float, clock: float
    ) -> int:
        """One pushed ``event`` frame: dedup, gap-detect, apply."""
        applied = self.applied.get(group, 0)
        if self.latest_known.get(group, 0) < seq:
            self.latest_known[group] = seq
        if seq <= applied:
            # Redelivery (e.g. a fault-injected duplicate): already
            # applied, drop it.
            self.duplicates += 1
            return 0
        if seq > applied + 1:
            # Missed at least one fan-out frame; pull the gap (which
            # includes this event) from the broker's log.
            self.gaps += 1
            return await self.catchup(group, clock)
        return self.apply_event(group, seq, time, clock)

    async def catchup(self, group: int, clock: float) -> int:
        """Replay every unapplied event of one group from the broker."""
        since = self.applied.get(group, 0)
        reply = await self._call_broker(
            {"type": MSG_CATCHUP, "group": group, "since": since}
        )
        self.catchups += 1
        removed = 0
        for entry in reply["events"]:
            if entry["seq"] <= self.applied.get(group, 0):
                continue
            removed += self.apply_event(
                group, entry["seq"], entry["time"], clock
            )
        return removed

    async def sync(self, latest: Dict, clock: float) -> int:
        """Catch up to the broker's latest seqs (the drain-time chsync).

        ``latest`` is the frame form, :meth:`ChannelBroker.wire_latest`:
        group ids as string keys.
        """
        removed = 0
        for group_key, seq in latest.items():
            group = int(group_key)
            if self.latest_known.get(group, 0) < seq:
                self.latest_known[group] = seq
            if self.applied.get(group, 0) < seq:
                removed += await self.catchup(group, clock)
        return removed

    # -- introspection -------------------------------------------------------

    def pending(self) -> int:
        """Known-but-unapplied events (zero after a successful sync)."""
        return sum(
            max(0, seq - self.applied.get(group, 0))
            for group, seq in self.latest_known.items()
        )

    def to_dict(self) -> dict:
        """The node's channel section in stats frames and snapshots."""
        stats = self.stats
        return {
            "applied_events": sum(self.applied.values()),
            "pending": self.pending(),
            "gaps": self.gaps,
            "duplicates": self.duplicates,
            "catchups": self.catchups,
            "stale_hits": stats.stale_hits,
            "stale_bytes": stats.stale_bytes,
            "copies_invalidated": stats.copies_invalidated,
            "stale_copies_evicted": stats.stale_copies_evicted,
            # Raw windows so cross-node percentile merges stay exact.
            "windows": list(stats.staleness_windows),
        }


def merge_channel_stats(
    broker_stats: dict, node_stats: Sequence[dict]
) -> dict:
    """Fold broker wire accounting and per-node staleness into one dict.

    The result is :meth:`CoherencyStats.to_dict`-shaped (so the
    warehouse ingests cluster runs and simulator runs through the same
    schema) plus the channel-specific reliability counters
    (``event_drops``, ``gaps``, ``duplicates``, ``node_catchups``,
    ``pending``).
    """
    merged = CoherencyStats(mode="channel")
    merged.events_published = broker_stats.get("events_published", 0)
    merged.event_deliveries = broker_stats.get("event_deliveries", 0)
    merged.polls = broker_stats.get("polls", 0)
    merged.subscriptions = broker_stats.get("subscriptions", 0)
    merged.catchups = broker_stats.get("catchups", 0)
    merged.channel_bytes = broker_stats.get("channel_bytes", 0)
    for node in node_stats:
        merged.stale_hits += node.get("stale_hits", 0)
        merged.stale_bytes += node.get("stale_bytes", 0)
        merged.copies_invalidated += node.get("copies_invalidated", 0)
        merged.stale_copies_evicted += node.get("stale_copies_evicted", 0)
        merged.staleness_windows.extend(node.get("windows", ()))
    result = merged.to_dict()
    result["event_drops"] = broker_stats.get("event_drops", 0)
    result["gaps"] = sum(node.get("gaps", 0) for node in node_stats)
    result["duplicates"] = sum(node.get("duplicates", 0) for node in node_stats)
    result["node_catchups"] = sum(node.get("catchups", 0) for node in node_stats)
    result["pending"] = sum(node.get("pending", 0) for node in node_stats)
    return result
