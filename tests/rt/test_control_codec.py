"""Supervisor <-> child control-plane framing.

Pure framing tests over :class:`ControlDecoder`: newline JSON round
trips under any chunking of the stream, and the loud failure on
anything that is not a JSON object line (a framing bug must never pass
for a frame, nor grow a buffer without bound). Plus the supervisor's
end of a connection: its end, by EOF or by a reset, reports the child
gone once.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rt.proc.control import (
    ControlDecoder,
    ProcessControlError,
    encode_control,
)
from repro.rt.proc.supervisor import _ControlConnection
from tests.net.test_message import json_values

frames = st.dictionaries(
    st.text(min_size=1, max_size=10), json_values, min_size=1, max_size=5
)


def roundtrip(data: bytes, limit: int = 2**16) -> list[dict]:
    return ControlDecoder(max_line=limit).feed(data)


class TestControlRoundTrip:
    @settings(deadline=None)
    @given(frame=frames)
    def test_json_round_trip(self, frame):
        assert roundtrip(encode_control(frame)) == [frame]

    def test_many_frames_in_sequence(self):
        batch = [{"kind": "cmd", "id": i, "op": "ping"} for i in range(3)]
        assert roundtrip(b"".join(encode_control(f) for f in batch)) == batch

    @settings(deadline=None)
    @given(batch=st.lists(frames, max_size=6), data=st.data())
    def test_any_split_into_feeds_decodes_the_same_frames(self, batch, data):
        stream = b"".join(encode_control(frame) for frame in batch)
        cuts = sorted(
            data.draw(st.lists(st.integers(0, len(stream)), max_size=8))
        )
        decoder = ControlDecoder()
        decoded = []
        for start, end in zip([0, *cuts], [*cuts, len(stream)]):
            decoded += decoder.feed(stream[start:end])
        assert decoded == batch

class TestControlRejection:
    def test_oversized_frame_rejected(self):
        raw = encode_control({"kind": "reply", "records": "x" * 4096})
        with pytest.raises(ProcessControlError, match="oversized control frame"):
            roundtrip(raw, limit=1024)

    def test_an_over_cap_line_in_small_feeds_fails_once_it_passes_the_cap(self):
        decoder = ControlDecoder(max_line=1024)
        raw = encode_control({"kind": "reply", "records": "x" * 4096})
        with pytest.raises(ProcessControlError, match="oversized control frame"):
            for end in range(100, len(raw), 100):
                decoder.feed(raw[end - 100 : end])
        # Failed as soon as the open line passed the cap, long before
        # its newline: the buffer never holds more than one feed over.
        assert end == 1100

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


class _Transport:
    def __init__(self) -> None:
        self.aborted = False

    def abort(self) -> None:
        self.aborted = True


def connected(tmp_path):
    """A supervisor-side connection bound to child ``p1`` by its hello,
    over a stand-in cluster that lists the children reported gone."""
    handle = SimpleNamespace(
        site_id="p1",
        control=None,
        alive=False,
        hello=None,
        incarnation=SimpleNamespace(trace_file=None),
        pending={},
    )
    gone: list = []
    cluster = SimpleNamespace(
        _children={"p1": handle}, data_dir=tmp_path, _on_child_gone=gone.append
    )
    connection = _ControlConnection(cluster)
    connection.connection_made(_Transport())
    connection.data_received(
        encode_control({"kind": "hello", "site": "p1", "trace": "trace.9.jsonl"})
    )
    assert handle.alive and handle.control is connection
    return connection, handle, gone


class TestConnectionEnd:
    def test_eof_reports_the_child_gone(self, tmp_path):
        connection, handle, gone = connected(tmp_path)
        assert handle.incarnation.trace_file == tmp_path / "p1" / "trace.9.jsonl"
        connection.connection_lost(None)
        assert gone == [handle]

    def test_reset_reports_the_child_gone(self, tmp_path):
        # A child SIGKILLed with our bytes unread resets the connection.
        connection, handle, gone = connected(tmp_path)
        connection.connection_lost(ConnectionResetError(104, "reset by peer"))
        assert gone == [handle]

    def test_a_bad_frame_ends_the_connection(self, tmp_path):
        connection, _, gone = connected(tmp_path)
        connection.data_received(b'{"kind": "hel\n')
        assert connection.transport.aborted and gone == []
