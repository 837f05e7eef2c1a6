"""In-memory span recorder and the wrappers the traced runs install.

A span is (name, start, end, parent, request id).  The current span
lives in a context variable, so asyncio tasks each nest their own
spans; a span's *self* time is its duration minus the time its child
spans cover.  Aggregates (calls, total, self) are kept for every span;
the raw spans are kept up to a cap and written out when the run ends.

Wrappers are installed around public functions and methods of the
program from here, never inside it: :meth:`Tracer.wrap` replaces an
attribute on a module or class and :meth:`Tracer.restore` puts every
original back.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

# Raw spans kept per run for the JSON-lines dump; aggregates cover all.
KEEP_SPANS = 20_000

_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "rid", "child")

    def __init__(self, name: str, parent: Optional["Span"], rid) -> None:
        self.name = name
        self.parent = parent
        self.rid = rid
        self.child = 0.0
        self.end = 0.0
        self.start = perf_counter()


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Records spans while ``enabled``; wrappers pass straight through
    otherwise."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self.dropped = 0
        self.stats: Dict[str, Stat] = {}
        self.counters: Dict[str, float] = {}
        self.request_id = None
        # Due time of the request in flight and the ingress waits seen
        # (open-loop workloads set ``due`` before each send).
        self.due: Optional[float] = None
        self.ingress_wait: List[float] = []
        self._patches: List[tuple] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str):
        """Open a span under the current one; returns (span, token)."""
        span = Span(name, _current.get(), self.request_id)
        return span, _current.set(span)

    def finish(self, span: Span, token) -> None:
        span.end = end = perf_counter()
        _current.reset(token)
        duration = end - span.start
        if span.parent is not None:
            span.parent.child += duration
        stat = self.stats.get(span.name)
        if stat is None:
            stat = self.stats[span.name] = Stat()
        stat.calls += 1
        stat.total += duration
        stat.self_time += duration - span.child
        if len(self.spans) < KEEP_SPANS:
            self.spans.append(span)
        else:
            self.dropped += 1

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- wrappers ------------------------------------------------------------

    def wrap(
        self,
        owner,
        attribute: str,
        name: str,
        after: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper.

        ``before(args, kwargs)`` and ``after(result, args, kwargs)`` run
        inside the span when tracing is enabled (counting bytes, frames,
        victims).  Coroutine functions get an ``async`` wrapper.
        """
        original = getattr(owner, attribute)
        own = attribute in vars(owner)
        tracer = self
        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return await original(*args, **kwargs)
                span, token = tracer.begin(name)
                try:
                    if before is not None:
                        before(args, kwargs)
                    result = await original(*args, **kwargs)
                    if after is not None:
                        after(result, args, kwargs)
                    return result
                finally:
                    tracer.finish(span, token)

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                span, token = tracer.begin(name)
                try:
                    if before is not None:
                        before(args, kwargs)
                    result = original(*args, **kwargs)
                    if after is not None:
                        after(result, args, kwargs)
                    return result
                finally:
                    tracer.finish(span, token)

        self._patches.append((owner, attribute, original, own))
        setattr(owner, attribute, wrapper)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attribute, original, own = self._patches.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    # -- results -------------------------------------------------------------

    def mean_us(self, name: str, self_time: bool = False) -> float:
        stat = self.stats.get(name)
        if stat is None or not stat.calls:
            return 0.0
        total = stat.self_time if self_time else stat.total
        return total / stat.calls * 1e6

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat.calls if stat is not None else 0

    def negative_self(self) -> float:
        """Most negative per-span self time seen in the kept spans (a
        child overlapping its parent would show here)."""
        worst = 0.0
        children: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                key = id(span.parent)
                children[key] = children.get(key, 0.0) + (span.end - span.start)
        for span in self.spans:
            own = (span.end - span.start) - children.get(id(span), 0.0)
            worst = min(worst, own)
        return worst

    def write(self, path: Path) -> None:
        """Dump the kept spans as JSON lines (times relative to the first)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        ids = {id(span): index for index, span in enumerate(self.spans)}
        origin = min((s.start for s in self.spans), default=0.0)
        with path.open("w") as handle:
            for index, span in enumerate(self.spans):
                parent = ids.get(id(span.parent)) if span.parent is not None else None
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "start_us": round((span.start - origin) * 1e6, 1),
                            "end_us": round((span.end - origin) * 1e6, 1),
                            "parent": parent,
                            "request": span.rid,
                        }
                    )
                    + "\n"
                )
