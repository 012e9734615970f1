"""Supervisor <-> child control-plane framing.

Pure framing tests over in-memory streams: newline JSON round trips,
and the loud failure on anything that is not a JSON object line
(a framing bug must never hang a readline or pass for a frame).
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rt.proc.control import (
    ProcessControlError,
    encode_control,
    read_control,
)
from tests.net.test_message import json_values

frames = st.dictionaries(
    st.text(min_size=1, max_size=10), json_values, min_size=1, max_size=5
)


def roundtrip(data: bytes, limit: int = 2**16):
    async def go():
        reader = asyncio.StreamReader(limit=limit)
        reader.feed_data(data)
        reader.feed_eof()
        out = []
        while True:
            frame = await read_control(reader)
            if frame is None:
                return out
            out.append(frame)

    return asyncio.run(go())


class TestControlRoundTrip:
    @settings(deadline=None)
    @given(frame=frames)
    def test_json_round_trip(self, frame):
        assert roundtrip(encode_control(frame)) == [frame]

    def test_many_frames_in_sequence(self):
        batch = [{"kind": "cmd", "id": i, "op": "ping"} for i in range(3)]
        assert roundtrip(b"".join(encode_control(f) for f in batch)) == batch

    def test_eof_returns_none(self):
        assert roundtrip(b"") == []

    def test_reset_returns_none(self):
        # A peer SIGKILLed with our bytes unread resets the connection.
        async def go():
            reader = asyncio.StreamReader()
            reader.set_exception(ConnectionResetError(104, "reset by peer"))
            return await read_control(reader)

        assert asyncio.run(go()) is None


class TestControlRejection:
    def test_oversized_frame_rejected(self):
        raw = encode_control({"kind": "reply", "records": "x" * 4096})
        with pytest.raises(ProcessControlError, match="oversized control frame"):
            roundtrip(raw, limit=1024)

    def test_malformed_frame_rejected(self):
        with pytest.raises(ProcessControlError, match="malformed control frame"):
            roundtrip(b'{"kind": "hel\n')

    def test_non_object_frame_rejected(self):
        with pytest.raises(ProcessControlError, match="not an object"):
            roundtrip(b'["not", "a", "dict"]\n')

    def test_json_reader_rejects_binary_peer(self):
        # What the retired packed control format put on the wire: a u32
        # length prefix (leading NUL) before a 0xB3-tagged body. Neither
        # byte can begin a JSON line, and neither may surface as a bare
        # UnicodeDecodeError.
        for raw in (b"\x00\x00\x00\x08\xb3\x81\xa4kind\n", b"\xb3\x81\xa4kind\n"):
            with pytest.raises(ProcessControlError, match="malformed control frame"):
                roundtrip(raw)
