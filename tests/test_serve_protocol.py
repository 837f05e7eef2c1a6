"""Robustness tests for the live cluster's wire protocol.

Satellite of the serving layer: partial reads, zero-length and oversized
frames, malformed payloads, and peers disconnecting mid-request must all
surface as clean :class:`~repro.serve.protocol.ProtocolError`\\ s --
never a hang, never silent corruption.
"""

from __future__ import annotations

import asyncio
import json
import struct

import pytest

from repro.serve.protocol import (
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    FrameDecoder,
    ProtocolError,
    RemoteProtocolError,
    decode_payload,
    encode_frame,
    error_message,
    raise_if_error,
    read_message,
)
from repro.serve.transport import (
    READ_CHUNK_BYTES,
    InProcessTransport,
    TCPTransport,
)


def run(coro, timeout=10.0):
    """Drive a coroutine with a hang guard: every await must finish."""

    async def bounded():
        return await asyncio.wait_for(coro, timeout=timeout)

    return asyncio.run(bounded())


class TestFraming:
    def test_round_trip(self):
        message = {"type": "get", "object_id": 7, "acc": 0.125}
        frame = encode_frame(message)
        (length,) = struct.unpack(">I", frame[:HEADER_BYTES])
        assert length == len(frame) - HEADER_BYTES
        assert decode_payload(frame[HEADER_BYTES:]) == message

    def test_float_exactness(self):
        # JSON shortest-repr round-trips doubles exactly -- the property
        # the bit-for-bit simulator oracle rests on.
        values = [0.1, 1 / 3, 2.5000000000000004, 1e-17, 123456.789]
        frame = encode_frame({"type": "x", "v": values})
        assert decode_payload(frame[HEADER_BYTES:])["v"] == values

    def test_oversized_frame_rejected_on_encode(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame({"type": "x", "pad": "a" * MAX_FRAME_BYTES})

    def test_payload_must_be_json(self):
        with pytest.raises(ProtocolError, match="malformed"):
            decode_payload(b"\xff\xfe not json")

    def test_payload_must_be_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_payload(b"[1, 2, 3]")

    def test_payload_must_carry_type(self):
        with pytest.raises(ProtocolError, match="'type'"):
            decode_payload(b'{"object_id": 5}')


class TestFrameDecoder:
    def test_byte_by_byte_partial_reads(self):
        messages = [{"type": "a", "i": i} for i in range(3)]
        stream = b"".join(encode_frame(m) for m in messages)
        decoder = FrameDecoder()
        seen = []
        for i in range(len(stream)):
            seen.extend(decoder.feed(stream[i : i + 1]))
        assert seen == messages
        assert decoder.at_boundary
        decoder.finish()

    def test_many_frames_in_one_chunk(self):
        messages = [{"type": "b", "i": i} for i in range(5)]
        stream = b"".join(encode_frame(m) for m in messages)
        decoder = FrameDecoder()
        assert decoder.feed(stream) == messages

    def test_split_inside_header(self):
        frame = encode_frame({"type": "c"})
        decoder = FrameDecoder()
        assert decoder.feed(frame[:2]) == []
        assert decoder.feed(frame[2:]) == [{"type": "c"}]

    def test_zero_length_frame(self):
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError, match="zero-length"):
            decoder.feed(struct.pack(">I", 0))

    def test_oversized_frame(self):
        decoder = FrameDecoder(max_frame_bytes=64)
        with pytest.raises(ProtocolError, match="exceeds"):
            decoder.feed(struct.pack(">I", 65))

    def test_finish_mid_frame(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frame({"type": "d"})[:-1])
        assert not decoder.at_boundary
        with pytest.raises(ProtocolError, match="mid-frame"):
            decoder.finish()


class TestAsyncReads:
    """read_message against a hand-fed StreamReader: every truncation
    point must produce an error, clean EOF must produce None."""

    @staticmethod
    def _read(data: bytes):
        """Feed bytes + EOF into a StreamReader and read one message."""

        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            return await read_message(reader)

        return run(scenario())

    def test_clean_eof_returns_none(self):
        assert self._read(b"") is None

    def test_whole_message(self):
        assert self._read(encode_frame({"type": "ping"})) == {"type": "ping"}

    def test_disconnect_mid_header(self):
        with pytest.raises(ProtocolError, match="mid-header"):
            self._read(b"\x00\x00")

    def test_disconnect_mid_frame(self):
        with pytest.raises(ProtocolError, match="mid-frame"):
            self._read(encode_frame({"type": "ping"})[:-3])

    def test_zero_length_frame(self):
        with pytest.raises(ProtocolError, match="zero-length"):
            self._read(struct.pack(">I", 0) + b"x")

    def test_oversized_frame(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            self._read(struct.pack(">I", MAX_FRAME_BYTES + 1))


class TestErrorFrames:
    def test_error_round_trip(self):
        frame = error_message(ProtocolError("boom"))
        assert frame["type"] == "error"
        with pytest.raises(RemoteProtocolError, match="boom"):
            raise_if_error(frame)

    def test_non_error_passes_through(self):
        assert raise_if_error({"type": "pong"}) == {"type": "pong"}


class TestInProcessTransport:
    def test_handler_exception_surfaces_remotely(self):
        async def scenario():
            transport = InProcessTransport()

            async def handler(message):
                raise ValueError("node exploded")

            await transport.start_node(1, handler)
            with pytest.raises(RemoteProtocolError, match="node exploded"):
                await transport.call(1, {"type": "ping"})
            await transport.close()

        run(scenario())

    def test_unknown_address(self):
        async def scenario():
            transport = InProcessTransport()
            with pytest.raises(ProtocolError, match="no node"):
                await transport.call(42, {"type": "ping"})

        run(scenario())

    def test_call_hands_over_the_objects(self):
        # No codec in process: the handler gets the sender's message
        # object and the caller gets the handler's reply object (the
        # ownership rules are checked in tests/test_serve_ownership.py).
        async def scenario():
            transport = InProcessTransport()
            reply = {"type": "pong"}
            seen = []

            async def handler(message):
                seen.append(message)
                return reply

            await transport.start_node(1, handler)
            message = {"type": "ping"}
            assert await transport.call(1, message) is reply
            assert seen == [message] and seen[0] is message
            await transport.close()

        run(scenario())


class TestTCPTransportRobustness:
    """A server transport hosts the node; calls that must cross a socket
    go through a second, client-only transport (a transport calling an
    address it hosts dispatches directly, see test_serve_hosted.py)."""

    @staticmethod
    async def _echo_node(transport):
        async def handler(message):
            return {"type": "pong", "echo": message.get("n")}

        return await transport.start_node(1, handler)

    def test_request_reply_and_pooling(self):
        async def scenario():
            server, client = TCPTransport(), TCPTransport()
            address = await self._echo_node(server)
            for n in range(3):  # sequential calls reuse one pooled conn
                reply = await client.call(address, {"type": "ping", "n": n})
                assert reply == {"type": "pong", "echo": n}
            assert len(client._pools[address]) == 1
            await client.close()
            await server.close()

        run(scenario())

    def test_small_reads_carry_frames_larger_than_one_read(self):
        async def scenario():
            server, client = TCPTransport(), TCPTransport()
            address = await self._echo_node(server)
            big = "x" * (3 * READ_CHUNK_BYTES)
            reply = await client.call(address, {"type": "ping", "n": big})
            assert reply == {"type": "pong", "echo": big}
            (_, writer), = client._pools[address]
            assert writer.transport.max_size == READ_CHUNK_BYTES
            await client.close()
            await server.close()

        run(scenario())

    def test_malformed_frame_gets_error_reply_then_close(self):
        async def scenario():
            transport = TCPTransport()
            host, port = await self._echo_node(transport)
            reader, writer = await asyncio.open_connection(host, port)
            garbage = b"this is not json"
            writer.write(struct.pack(">I", len(garbage)) + garbage)
            await writer.drain()
            reply = await read_message(reader)
            assert reply["type"] == "error"
            assert "malformed" in reply["detail"]
            assert await reader.read() == b""  # server closed the stream
            writer.close()
            await transport.close()

        run(scenario())

    def test_zero_length_frame_gets_error_reply(self):
        async def scenario():
            transport = TCPTransport()
            host, port = await self._echo_node(transport)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(struct.pack(">I", 0))
            await writer.drain()
            reply = await read_message(reader)
            assert reply["type"] == "error"
            assert "zero-length" in reply["detail"]
            writer.close()
            await transport.close()

        run(scenario())

    def test_client_disconnect_mid_request_leaves_server_serving(self):
        async def scenario():
            transport = TCPTransport()
            host, port = await self._echo_node(transport)
            _, writer = await asyncio.open_connection(host, port)
            frame = encode_frame({"type": "ping", "n": 9})
            writer.write(frame[: len(frame) // 2])  # die mid-frame
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            # The server must shrug that connection off and keep serving.
            client = TCPTransport()
            reply = await client.call((host, port), {"type": "ping", "n": 1})
            assert reply == {"type": "pong", "echo": 1}
            assert client._pools[(host, port)]  # the reply crossed a socket
            await client.close()
            await transport.close()

        run(scenario())

    def test_peer_closing_before_reply_raises(self):
        async def scenario():
            # A server that accepts and immediately hangs up.
            async def slam(reader, writer):
                writer.close()

            server = await asyncio.start_server(slam, host="127.0.0.1")
            host, port = server.sockets[0].getsockname()[:2]
            transport = TCPTransport()
            with pytest.raises(ProtocolError):
                await transport.call((host, port), {"type": "ping"})
            server.close()
            await server.wait_closed()
            await transport.close()

        run(scenario())

    def test_handler_exception_surfaces_remotely(self):
        async def scenario():
            server, client = TCPTransport(), TCPTransport()

            async def handler(message):
                raise KeyError("missing thing")

            address = await server.start_node(1, handler)
            with pytest.raises(RemoteProtocolError, match="missing thing"):
                await client.call(address, {"type": "ping"})
            assert client._pools[address]  # the error frame crossed a socket
            await client.close()
            await server.close()

        run(scenario())

    def test_frames_with_payload_survive_chunked_delivery(self):
        # Drip-feed a frame over many tiny writes; the server must
        # reassemble it exactly once and reply once.
        async def scenario():
            transport = TCPTransport()
            host, port = await self._echo_node(transport)
            reader, writer = await asyncio.open_connection(host, port)
            frame = encode_frame({"type": "ping", "n": json.loads("123")})
            for i in range(len(frame)):
                writer.write(frame[i : i + 1])
                await writer.drain()
            reply = await read_message(reader)
            assert reply == {"type": "pong", "echo": 123}
            writer.close()
            await transport.close()

        run(scenario())
