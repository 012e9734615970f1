"""Wire-codec tests: framing round trips and malformed-frame rejection."""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.net.message import Message
from repro.rt.codec import (
    HEADER,
    MAX_FRAME_BYTES,
    FrameDecoder,
    decode_body,
    encode_frame,
    encode_message,
)
from tests.net.test_message import messages


def read_stream(data: bytes) -> tuple[list[Message], int]:
    """Feed a whole stream to one decoder, as a connection that then
    ends does: the messages, and the bytes left of a cut-off frame."""
    decoder = FrameDecoder()
    return decoder.feed(data), decoder.pending_bytes


class TestFraming:
    def test_frame_is_header_plus_json_body(self):
        message = Message("PREPARE", "tm", "p0", "t1", {"note": "hî"})
        frame = encode_frame(message)
        (length,) = HEADER.unpack(frame[: HEADER.size])
        assert length == len(frame) - HEADER.size
        assert json.loads(frame[HEADER.size :].decode("utf-8"))["kind"] == "PREPARE"

    @given(message=messages, chunk=st.integers(min_value=1, max_value=7))
    def test_round_trip_survives_any_chunking(self, message, chunk):
        frame = encode_frame(message)
        decoder = FrameDecoder()
        out: list[Message] = []
        for start in range(0, len(frame), chunk):
            out.extend(decoder.feed(frame[start : start + chunk]))
        assert out == [message]
        assert decoder.pending_bytes == 0

    @given(batch=st.lists(messages, min_size=2, max_size=5))
    def test_many_frames_in_one_feed(self, batch):
        stream = b"".join(encode_frame(m) for m in batch)
        assert FrameDecoder().feed(stream) == batch


class TestRejection:
    def test_oversized_announcement_rejected_before_buffering(self):
        decoder = FrameDecoder()
        with pytest.raises(CodecError, match="over the"):
            decoder.feed(HEADER.pack(MAX_FRAME_BYTES + 1))
        # The body was never buffered — the limit guards allocation.
        assert decoder.pending_bytes == 0

    def test_custom_limit(self):
        decoder = FrameDecoder(max_frame_bytes=16)
        with pytest.raises(CodecError):
            decoder.feed(HEADER.pack(17))

    def test_encode_rejects_oversized_message(self):
        huge = Message("BLOB", "a", "b", "t", {"data": "x" * (MAX_FRAME_BYTES + 1)})
        with pytest.raises(CodecError, match="over the"):
            encode_message(huge)

    def test_encode_rejects_non_json_payload(self):
        bad = Message("BLOB", "a", "b", "t", {"keys": {1, 2}})
        with pytest.raises(CodecError, match="not JSON-representable"):
            encode_message(bad)

    def test_malformed_json_body_rejected(self):
        body = b"this is not json"
        with pytest.raises(CodecError, match="malformed frame body"):
            FrameDecoder().feed(HEADER.pack(len(body)) + body)

    def test_malformed_utf8_body_rejected(self):
        body = b"\xff\xfe\xfd"
        with pytest.raises(CodecError, match="malformed frame body"):
            decode_body(body)

    def test_valid_json_invalid_schema_rejected(self):
        body = json.dumps({"kind": "A"}).encode()
        with pytest.raises(CodecError, match="missing wire keys"):
            decode_body(body)

    def test_reader_clean_eof_returns_none(self):
        # An empty stream ends at a frame boundary: nothing is cut off.
        assert read_stream(b"") == ([], 0)
        frame = encode_frame(Message("PING", "a", "b"))
        assert read_stream(frame) == ([Message("PING", "a", "b")], 0)

    def test_reader_eof_mid_header(self):
        assert read_stream(b"\x00\x00") == ([], 2)

    def test_reader_eof_mid_body(self):
        frame = encode_frame(Message("PING", "a", "b"))
        # The header counts: a frame cut right after it is pending too.
        assert read_stream(frame[:-1]) == ([], len(frame) - 1)
        assert read_stream(frame[: HEADER.size]) == ([], HEADER.size)
        assert read_stream(frame + frame[:-1]) == (
            [Message("PING", "a", "b")],
            len(frame) - 1,
        )

    def test_reader_rejects_oversized_announcement(self):
        decoder = FrameDecoder()
        with pytest.raises(CodecError, match="over the"):
            decoder.feed(HEADER.pack(MAX_FRAME_BYTES + 1) + b"x")
        assert decoder.pending_bytes == 0


# -- the binary codec --------------------------------------------------------

from repro.rt.codec import (  # noqa: E402  (grouped with the binary tests)
    HANDSHAKE_TAG,
    MESSAGE_TAG,
    WIRE_CODEC_VERSION,
    WIRE_CODECS,
    BinaryWireCodec,
    JsonWireCodec,
    wire_codec,
)


def binary_pair(intern=()):
    """An encoder plus a decoder that has already eaten the handshake."""
    codec = BinaryWireCodec(intern)
    decode = codec.body_decoder()
    assert decode(codec.preamble[HEADER.size :]) is None
    return codec, decode


class TestWireCodecFactory:
    def test_names(self):
        assert isinstance(wire_codec("json"), JsonWireCodec)
        assert isinstance(wire_codec("binary"), BinaryWireCodec)
        assert set(WIRE_CODECS) == {"json", "binary"}

    def test_unknown_name_rejected(self):
        with pytest.raises(CodecError, match="unknown wire codec"):
            wire_codec("msgpack")

    def test_json_codec_has_no_preamble(self):
        assert JsonWireCodec().preamble == b""


class TestBinaryRoundTrip:
    @given(message=messages, chunk=st.integers(min_value=1, max_value=7))
    def test_round_trip_survives_any_chunking(self, message, chunk):
        codec = BinaryWireCodec(["tm", "p0"])
        decoder = FrameDecoder(decode=codec.body_decoder())
        stream = codec.preamble + codec.encode_frame(message)
        out: list[Message] = []
        for start in range(0, len(stream), chunk):
            out.extend(decoder.feed(stream[start : start + chunk]))
        assert out == [message]
        assert decoder.pending_bytes == 0

    @given(batch=st.lists(messages, min_size=2, max_size=5))
    def test_many_frames_in_one_feed(self, batch):
        codec = BinaryWireCodec()
        decoder = FrameDecoder(decode=codec.body_decoder())
        stream = codec.preamble + b"".join(codec.encode_frame(m) for m in batch)
        assert decoder.feed(stream) == batch

    @given(message=messages)
    def test_preamble_and_frames_in_one_feed(self, message):
        codec = BinaryWireCodec(["tm"])
        decoder = FrameDecoder(decode=codec.body_decoder())
        stream = codec.preamble + codec.encode_frame(message) * 2
        assert decoder.feed(stream) == [message, message]
        assert decoder.pending_bytes == 0

    def test_interned_routing_fields_are_compact(self):
        codec, decode = binary_pair(["tm", "p0"])
        interned = codec.encode_message(Message("PREPARE", "tm", "p0", "t1"))
        stranger = codec.encode_message(Message("PREPARE", "tm", "elsewhere", "t1"))
        # The uninterned receiver travels inline, costing its length.
        assert len(stranger) > len(interned)
        assert decode(HEADER.pack(0) * 0 + interned) is not None  # sanity

    def test_decoder_adopts_senders_table(self):
        # Peers with different intern tables still interoperate: the
        # decoder uses the table announced in the *sender's* handshake.
        sender = BinaryWireCodec(["siteA", "siteB"])
        receiver_side = sender.body_decoder()  # fresh state, no local table
        assert receiver_side(sender.preamble[HEADER.size :]) is None
        message = Message("COMMIT", "siteA", "siteB", "t7", {"ok": True})
        assert receiver_side(sender.encode_frame(message)[HEADER.size :]) == message

    def test_binary_frames_smaller_than_json(self):
        codec, _ = binary_pair(["tm", "site0_prn"])
        message = Message(
            "COMMIT", "tm", "site0_prn", "t0042", {"participants": ["a", "b", "c"]}
        )
        assert len(codec.encode_frame(message)) < len(encode_frame(message))


class TestBinaryRejection:
    def test_oversized_announcement_rejected_before_buffering(self):
        codec = BinaryWireCodec()
        decoder = FrameDecoder(decode=codec.body_decoder())
        with pytest.raises(CodecError, match="over the"):
            decoder.feed(HEADER.pack(MAX_FRAME_BYTES + 1))
        assert decoder.pending_bytes == 0

    def test_encode_rejects_oversized_message(self):
        codec = BinaryWireCodec()
        huge = Message("BLOB", "a", "b", "t", {"data": "x" * (MAX_FRAME_BYTES + 1)})
        with pytest.raises(CodecError, match="over the"):
            codec.encode_message(huge)

    def test_encode_rejects_non_json_payload(self):
        codec = BinaryWireCodec()
        bad = Message("BLOB", "a", "b", "t", {"keys": {1, 2}})
        with pytest.raises(CodecError, match="not binary-encodable"):
            codec.encode_message(bad)

    def test_message_before_handshake_rejected(self):
        codec = BinaryWireCodec()
        decode = codec.body_decoder()
        body = codec.encode_message(Message("PING", "a", "b"))
        with pytest.raises(CodecError, match="open with a handshake"):
            decode(body)

    def test_duplicate_handshake_rejected(self):
        codec, decode = binary_pair()
        with pytest.raises(CodecError, match="duplicate handshake"):
            decode(codec.preamble[HEADER.size :])

    def test_version_mismatch_rejected(self):
        codec = BinaryWireCodec()
        decode = codec.body_decoder()
        handshake = bytearray(codec.preamble[HEADER.size :])
        handshake[1] = WIRE_CODEC_VERSION + 1
        with pytest.raises(CodecError, match="wire codec v"):
            decode(bytes(handshake))

    def test_unknown_tag_rejected(self):
        _, decode = binary_pair()
        with pytest.raises(CodecError, match="unknown binary frame tag"):
            decode(bytes((0xB7,)) + b"junk")

    def test_truncated_message_header_rejected(self):
        _, decode = binary_pair()
        with pytest.raises(CodecError, match="truncated binary message header"):
            decode(bytes((MESSAGE_TAG, 0x00)))

    @given(message=messages, cut=st.integers(min_value=HEADER.size + 1, max_value=200))
    def test_truncated_body_rejected(self, message, cut):
        codec = BinaryWireCodec()
        frame = codec.encode_frame(message)
        body = frame[HEADER.size :]
        cut = min(cut, len(body) - 1)
        if cut < _MSG_HEADER_SIZE:
            return  # covered by the truncated-header test
        _, decode = binary_pair()
        with pytest.raises(CodecError):
            decode(body[:cut])

    def test_trailing_garbage_rejected(self):
        codec, decode = binary_pair()
        body = codec.encode_message(Message("PING", "a", "b"))
        with pytest.raises(CodecError, match="trailing garbage"):
            decode(body + b"\x00")

    def test_interned_id_outside_table_rejected(self):
        # Handshake with an empty table, then a message referencing
        # id 0: the decoder must bound-check against the *adopted* table.
        from repro.packing import pack_value

        handshake = bytes((HANDSHAKE_TAG, WIRE_CODEC_VERSION)) + pack_value([])
        decode = BinaryWireCodec().body_decoder()
        assert decode(handshake) is None
        import struct as _struct

        body = (
            _struct.pack(">BHHH", MESSAGE_TAG, 0, 0xFFFF, 0xFFFF)
            + pack_value("a")
            + pack_value("b")
            + pack_value("t")
            + pack_value({})
        )
        with pytest.raises(CodecError, match="outside the peer's"):
            decode(body)

    def test_non_dict_payload_rejected(self):
        from repro.packing import pack_value
        import struct as _struct

        codec, decode = binary_pair()
        body = (
            _struct.pack(">BHHH", MESSAGE_TAG, 0xFFFF, 0xFFFF, 0xFFFF)
            + pack_value("PING")
            + pack_value("a")
            + pack_value("b")
            + pack_value("t")
            + pack_value(["not", "a", "dict"])
        )
        with pytest.raises(CodecError, match="payload must be a dict"):
            decode(body)

    def test_empty_kind_rejected(self):
        codec, decode = binary_pair()
        body = codec.encode_message(Message("PING", "a", "b"))
        # Re-encode with an empty kind via the inline path.
        from repro.packing import pack_value
        import struct as _struct

        bad = (
            _struct.pack(">BHHH", MESSAGE_TAG, 0xFFFF, 0xFFFF, 0xFFFF)
            + pack_value("")
            + pack_value("a")
            + pack_value("b")
            + pack_value("t")
            + pack_value({})
        )
        with pytest.raises(CodecError, match="'kind' must be non-empty"):
            decode(bad)


class TestMixedCodecDetection:
    """Both ends must run the same --codec; the first frame says so."""

    def test_json_site_receiving_binary_frame_fails_loudly(self):
        codec = BinaryWireCodec()
        body = codec.preamble[HEADER.size :]
        with pytest.raises(CodecError, match="binary-codec frame to a json-codec"):
            decode_body(body)

    def test_binary_site_receiving_json_frame_fails_loudly(self):
        _, decode = binary_pair()
        body = encode_message(Message("PING", "a", "b"))
        with pytest.raises(CodecError, match="json-codec frame to a binary-codec"):
            decode(body)

    def test_binary_site_receiving_json_first_frame_fails_loudly(self):
        # Even before the handshake: a '{' body can never be binary.
        decode = BinaryWireCodec().body_decoder()
        body = encode_message(Message("PING", "a", "b"))
        with pytest.raises(CodecError, match="json-codec frame to a binary-codec"):
            decode(body)

    def test_empty_body_rejected(self):
        _, decode = binary_pair()
        with pytest.raises(CodecError, match="empty frame body"):
            decode(b"")


_MSG_HEADER_SIZE = 7  # >BHHH: tag + three u16 ids
