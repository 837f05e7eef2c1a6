"""Pluggable node-to-node transports for the live cluster.

A :class:`Transport` hosts node servers and carries request/reply
messages between them.  Two implementations:

* :class:`InProcessTransport` -- every node lives in the calling event
  loop; ``call`` hands the message object straight to the destination
  handler and returns the handler's reply object, with no encoding on
  the way.  Deterministic (no sockets, no scheduling races under
  sequential drivers), which is what the simulator-vs-cluster
  differential oracle runs on.
* :class:`TCPTransport` -- every node listens on its own TCP socket.
  Frames flow over loopback or a real network through the frame codec
  (:func:`encode_frame` / :func:`decode_payload`) only between
  processes: a call to an address the same transport hosts is a direct
  handler call, exactly as in process -- a process never dials itself.
  Connections are pooled per destination; a pooled connection is only
  ever used by one in-flight call at a time, so concurrent requests
  never interleave frames.

Handlers are ``async (dict) -> dict``.  A handler exception is converted
into an ``error`` frame by the hosting side and surfaces at the caller
as :class:`~repro.serve.protocol.RemoteProtocolError` -- identically on
both transports and for hosted and remote addresses alike.

**Message ownership.**  Across a socket the codec gives every node a
private copy of every message.  A direct handler call (in process, or
to an address a :class:`TCPTransport` hosts) copies nothing, so every
caller and handler keeps these rules, which make all paths behave the
same:

* a sender gives a message away on ``call`` and does not touch it again;
* a handler never mutates an inbound message (it may read and keep its
  parts) -- fault injection dispatches the *same* object again for a
  duplicate or a retry, so a mutation would leak into the redelivery;
* a handler never returns objects it keeps: a reply is built fresh,
  or copied from the handler's own state;
* the reply belongs to the caller, which may mutate it -- the response
  unwind advances ``decision["acc"]``, ``inserted`` and ``evictions``
  in the reply it got from upstream and hands the same object down.

Every message and reply must also be *JSON-transparent*: decoding its
encoding gives an equal object (string dict keys, lists not tuples), so
the bytes on TCP mean exactly what the object means in process.
"""

from __future__ import annotations

import abc
import asyncio
import contextlib
import random
from dataclasses import dataclass
from typing import Awaitable, Callable, Dict, List, Optional, Tuple

from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    CallTimeout,
    NodeUnreachable,
    ProtocolError,
    decode_payload,
    encode_frame,
    error_message,
    raise_if_error,
    read_message,
    write_message,
)

# The frame codec is re-exported so that instrumentation wrapping the
# codec at this module keeps a stable place to do so.
__all__ = [
    "CircuitBreaker",
    "Handler",
    "InProcessTransport",
    "READ_CHUNK_BYTES",
    "RetryPolicy",
    "TCPTransport",
    "Transport",
    "decode_payload",
    "encode_frame",
]

Handler = Callable[[dict], Awaitable[dict]]

# Bytes one socket read asks for.  asyncio's selector transports read
# with ``recv(256 KiB)`` by default: every read allocates a 256 KiB
# buffer only to shrink it to a frame of a few hundred bytes, and
# depending on the allocator's history each such buffer can be mapped
# or re-faulted afresh (measured on a 2-vCPU x86-64 VM, glibc malloc:
# about two page faults per read, a quarter of the CPU per request of a
# loopback cascade).  Reads this size stay in the allocator's ordinary
# heap; larger frames take more reads.
READ_CHUNK_BYTES = 16 * 1024


def _small_reads(writer: asyncio.StreamWriter) -> None:
    """Cap the read size of one connection (see :data:`READ_CHUNK_BYTES`).

    ``max_size`` is the read size of asyncio's selector transports;
    transports without it are left alone.
    """
    transport = writer.transport
    if hasattr(transport, "max_size"):
        transport.max_size = READ_CHUNK_BYTES


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with (seeded) jitter for retryable RPC failures.

    ``attempts`` bounds the *total* number of tries; the delay before try
    ``k+1`` is ``min(backoff_max, backoff_base * backoff_multiplier**k)``
    shrunk by up to ``jitter`` (a fraction in ``[0, 1]``) drawn from the
    caller's RNG -- seeded RNGs make the whole schedule reproducible,
    which is what lets the chaos suite assert identical retry counters
    across runs.
    """

    attempts: int = 3
    backoff_base: float = 0.01
    backoff_multiplier: float = 2.0
    backoff_max: float = 0.25
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be at least 1")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be a fraction in [0, 1]")

    def delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        raw = min(
            self.backoff_max,
            self.backoff_base * self.backoff_multiplier**attempt,
        )
        if self.jitter <= 0 or rng is None:
            return raw
        return raw * (1.0 - self.jitter * rng.random())


class CircuitBreaker:
    """A count-based per-upstream circuit breaker.

    Counts *logical* call failures (retries exhausted), not individual
    attempts.  After ``failure_threshold`` consecutive failures the
    breaker opens and the next ``cooldown_calls`` calls are rejected
    without touching the wire; then one half-open probe is admitted --
    success closes the breaker, failure re-opens it.  Deliberately
    count-based rather than clock-based so a seeded sequential replay
    trips and recovers identically on every run.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"

    def __init__(
        self, failure_threshold: int = 3, cooldown_calls: int = 8
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if cooldown_calls < 1:
            raise ValueError("cooldown_calls must be at least 1")
        self.failure_threshold = failure_threshold
        self.cooldown_calls = cooldown_calls
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.trips = 0
        self._rejections_left = 0

    def allow(self) -> bool:
        """Whether the next call may go out (may admit a half-open probe)."""
        if self.state == self.OPEN:
            if self._rejections_left > 0:
                self._rejections_left -= 1
                return False
            self.state = self.HALF_OPEN
        return True

    def record_success(self) -> None:
        self.state = self.CLOSED
        self.consecutive_failures = 0

    def record_failure(self) -> bool:
        """Record one exhausted call; returns True when the breaker trips."""
        self.consecutive_failures += 1
        if self.state == self.HALF_OPEN or (
            self.state == self.CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self.state = self.OPEN
            self._rejections_left = self.cooldown_calls
            self.trips += 1
            return True
        return False


class Transport(abc.ABC):
    """Hosts node servers and carries framed calls between them."""

    @abc.abstractmethod
    async def start_node(self, node_id: int, handler: Handler):
        """Start serving one node; returns its published address."""

    @abc.abstractmethod
    async def call(self, address, message: dict) -> dict:
        """Send one message to an address and await the reply.

        Raises :class:`ProtocolError` on framing violations and
        :class:`~repro.serve.protocol.RemoteProtocolError` when the peer
        answers with an ``error`` frame.
        """

    @abc.abstractmethod
    async def close(self) -> None:
        """Stop all node servers and drop any pooled connections."""


async def _dispatch(handler: Handler, message: dict) -> dict:
    """Run a handler, converting failures into ``error`` frames."""
    try:
        return await handler(message)
    except Exception as error:  # noqa: BLE001 - the frame carries the type
        return error_message(error)


class InProcessTransport(Transport):
    """Deterministic single-process transport used by tests and examples.

    Messages and replies pass by reference under the ownership rules in
    the module docstring.  ``call_timeout`` bounds one dispatch; it is
    meant for single-hop handlers (a timeout cancels the handler
    mid-flight, which for a nested walk would abandon in-flight upstream
    calls), so cluster runs leave it ``None`` and let injected faults
    model lost frames instead.
    """

    def __init__(self, call_timeout: Optional[float] = None) -> None:
        self._handlers: Dict[int, Handler] = {}
        self.call_timeout = call_timeout

    async def start_node(self, node_id: int, handler: Handler) -> int:
        if node_id in self._handlers:
            raise ValueError(f"node {node_id} already started")
        self._handlers[node_id] = handler
        return node_id

    async def call(self, address: int, message: dict) -> dict:
        handler = self._handlers.get(address)
        if handler is None:
            raise NodeUnreachable(f"no node at in-process address {address!r}")
        if self.call_timeout is None:
            reply = await _dispatch(handler, message)
        else:
            try:
                reply = await asyncio.wait_for(
                    _dispatch(handler, message), timeout=self.call_timeout
                )
            except asyncio.TimeoutError:
                raise CallTimeout(
                    f"in-process call to node {address} exceeded "
                    f"{self.call_timeout}s"
                ) from None
        return raise_if_error(reply)

    async def close(self) -> None:
        self._handlers.clear()


class TCPTransport(Transport):
    """One listening socket per node; framed request/reply over TCP.

    A call to an address this transport hosts never touches a socket:
    it dispatches straight to the node's handler under the ownership
    rules in the module docstring.  Only addresses hosted elsewhere
    (another transport, another process) are dialled.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        max_frame_bytes: int = MAX_FRAME_BYTES,
        call_timeout: Optional[float] = None,
        drain_timeout: float = 5.0,
        max_connections_per_address: Optional[int] = None,
    ) -> None:
        """``call_timeout`` is the per-RPC deadline (``None`` = wait forever);
        ``drain_timeout`` bounds how long :meth:`close` waits for server-side
        connection loops to exit; ``max_connections_per_address`` caps how
        many connections this transport holds toward one destination
        (``None`` = one per concurrent call) -- excess callers queue for a
        slot, bounding the process's file descriptors under heavy open-loop
        load.  Hosted calls use no connection and no slot; they keep
        ``call_timeout``."""
        if call_timeout is not None and call_timeout <= 0:
            raise ValueError("call_timeout must be positive")
        if drain_timeout <= 0:
            raise ValueError("drain_timeout must be positive")
        if (
            max_connections_per_address is not None
            and max_connections_per_address < 1
        ):
            raise ValueError("max_connections_per_address must be at least 1")
        self.host = host
        self.max_frame_bytes = max_frame_bytes
        self.call_timeout = call_timeout
        self.drain_timeout = drain_timeout
        self.max_connections_per_address = max_connections_per_address
        self._servers: List[asyncio.base_events.Server] = []
        self._pools: Dict[
            Tuple[str, int],
            List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]],
        ] = {}
        self._conn_slots: Dict[Tuple[str, int], asyncio.Semaphore] = {}
        self._conn_tasks: set = set()
        self._conn_writers: set = set()
        # Handlers of the nodes this transport serves, by bound address,
        # and the dispatch tasks of hosted calls under a deadline.
        self._hosted: Dict[Tuple[str, int], Handler] = {}
        self._hosted_tasks: set = set()
        self._closed = False

    async def start_node(
        self, node_id: int, handler: Handler, port: int = 0
    ) -> Tuple[str, int]:
        """Listen for this node; ``port=0`` lets the OS assign one."""
        server = await asyncio.start_server(
            lambda r, w: self._serve_connection(handler, r, w),
            host=self.host,
            port=port,
        )
        self._servers.append(server)
        bound = server.sockets[0].getsockname()
        address = (bound[0], bound[1])
        self._hosted[address] = handler
        return address

    async def _serve_connection(
        self,
        handler: Handler,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Per-connection server loop: read frame, dispatch, reply.

        A framing violation from the peer is answered with one ``error``
        frame and the connection is closed -- the stream can no longer
        be trusted past a corrupt frame.
        """
        if self._closed:
            writer.close()
            return
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._conn_writers.add(writer)
        _small_reads(writer)
        try:
            while True:
                try:
                    message = await read_message(reader, self.max_frame_bytes)
                except ProtocolError as error:
                    with contextlib.suppress(Exception):
                        await write_message(writer, error_message(error))
                    return
                if message is None:
                    return  # clean EOF at a frame boundary
                reply = await _dispatch(handler, message)
                await write_message(writer, reply)
        except ConnectionError:
            pass
        except asyncio.CancelledError:
            # close() cancelled a dispatch stuck past its drain window.  End
            # the task normally: asyncio reports a cancelled connection task
            # as an exception in a callback, with a traceback.
            if not self._closed:
                raise
        finally:
            self._conn_writers.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _connection(
        self, address: Tuple[str, int]
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        pool = self._pools.get(address)
        if pool:
            return pool.pop()
        host, port = address
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except OSError as error:
            raise NodeUnreachable(
                f"cannot connect to {host}:{port}: {error!r}"
            ) from error
        _small_reads(writer)
        return reader, writer

    async def _round_trip(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        message: dict,
    ) -> Optional[dict]:
        await write_message(writer, message)
        return await read_message(reader, self.max_frame_bytes)

    async def call(self, address, message: dict) -> dict:
        address = (address[0], address[1])
        handler = self._hosted.get(address)
        if handler is not None:
            if self._closed:
                raise NodeUnreachable(
                    f"node at {address[0]}:{address[1]} has stopped"
                )
            return await self._call_hosted(address, handler, message)
        if self.max_connections_per_address is None:
            return await self._call_on_connection(address, message)
        slot = self._conn_slots.get(address)
        if slot is None:
            slot = asyncio.Semaphore(self.max_connections_per_address)
            self._conn_slots[address] = slot
        async with slot:
            return await self._call_on_connection(address, message)

    async def _call_hosted(
        self, address: Tuple[str, int], handler: Handler, message: dict
    ) -> dict:
        """A call to a node this transport hosts: no socket, no codec.

        Without a deadline the handler is a plain await.  With one, the
        handler runs in its own task: a caller past the deadline gets
        :class:`CallTimeout` while the handler carries on, as a remote
        server would, and :meth:`close` drains that task like a
        connection's.
        """
        if self.call_timeout is None:
            return raise_if_error(await _dispatch(handler, message))
        task = asyncio.ensure_future(_dispatch(handler, message))
        self._hosted_tasks.add(task)
        task.add_done_callback(self._hosted_tasks.discard)
        try:
            reply = await asyncio.wait_for(
                asyncio.shield(task), timeout=self.call_timeout
            )
        except asyncio.TimeoutError:
            raise CallTimeout(
                f"call to {address[0]}:{address[1]} exceeded "
                f"{self.call_timeout}s"
            ) from None
        except asyncio.CancelledError:
            if not (task.cancelled() and self._closed):
                raise  # the caller itself was cancelled
            raise ProtocolError(
                f"node at {address[0]}:{address[1]} stopped before replying"
            ) from None
        return raise_if_error(reply)

    async def _call_on_connection(
        self, address: Tuple[str, int], message: dict
    ) -> dict:
        reader, writer = await self._connection(address)
        try:
            if self.call_timeout is None:
                reply = await self._round_trip(reader, writer, message)
            else:
                reply = await asyncio.wait_for(
                    self._round_trip(reader, writer, message),
                    timeout=self.call_timeout,
                )
        except asyncio.TimeoutError:
            # The connection may still carry a late reply; never pool it.
            writer.close()
            raise CallTimeout(
                f"call to {address[0]}:{address[1]} exceeded "
                f"{self.call_timeout}s"
            ) from None
        except ProtocolError:
            writer.close()
            raise
        except ConnectionError as error:
            writer.close()
            raise ProtocolError(
                f"connection to {address[0]}:{address[1]} failed "
                f"mid-call: {error!r}"
            ) from error
        if reply is None:
            writer.close()
            raise ProtocolError(
                f"peer {address[0]}:{address[1]} closed the connection "
                "before replying"
            )
        if self._closed:
            writer.close()
        else:
            self._pools.setdefault(address, []).append((reader, writer))
        return raise_if_error(reply)

    async def close(self) -> None:
        self._closed = True
        for server in self._servers:
            server.close()
        for server in self._servers:
            with contextlib.suppress(Exception):
                await server.wait_closed()
        self._servers.clear()
        # Let connection tasks created just before the close take their
        # first step: each sees the transport closed and ends, rather than
        # being cancelled unstarted at event-loop shutdown.
        await asyncio.sleep(0)
        for pool in self._pools.values():
            for _, writer in pool:
                writer.close()
        self._pools.clear()
        # Drain server-side connection loops and hosted dispatches: closing
        # the writers feeds EOF into the pending reads, so every loop exits
        # cleanly before the event loop shuts down (no dangling tasks).
        for writer in list(self._conn_writers):
            writer.close()
        owned = self._conn_tasks | self._hosted_tasks
        tasks = [t for t in owned if not t.done()]
        if tasks:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    asyncio.gather(*tasks, return_exceptions=True),
                    timeout=self.drain_timeout,
                )
        # Anything still running past the drain deadline is a handler
        # stuck mid-dispatch (e.g. asleep); cancel it so close() never
        # leaves dangling tasks behind in the event loop.
        stragglers = [t for t in owned if not t.done()]
        for task in stragglers:
            task.cancel()
        if stragglers:
            await asyncio.gather(*stragglers, return_exceptions=True)
        self._conn_slots.clear()
