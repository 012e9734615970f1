"""Wire codecs for :class:`~repro.net.message.Message`.

Every frame on the live wire is length-prefixed::

    +----------------+----------------------------+
    | 4-byte big-    | frame body                  |
    | endian length  | (codec-specific encoding)   |
    +----------------+----------------------------+

The length counts the body only. A frame larger than
:data:`MAX_FRAME_BYTES` is rejected *before* the body is buffered, so a
corrupt or hostile peer cannot make a site allocate unbounded memory —
the decoder raises :class:`~repro.errors.CodecError` and the transport
drops the connection (an omission failure, which the protocols already
tolerate).

Two body encodings sit behind the same framing (the codec seam):

* ``json`` — the original UTF-8 JSON body (``Message.to_wire()``
  dict). Every JSON body starts with ``{`` (0x7b).
* ``binary`` — a compact struct-packed body. Each binary body starts
  with a reserved tag byte that can never begin a JSON body: 0xb0 for
  the connection handshake, 0xb1 for a message. A connection's first
  binary frame is the *handshake*: codec version plus the sender's
  interning dictionary (the routing strings — message kinds and site
  ids — that subsequent message headers reference by u16 index).
  Because each side checks its first received body's leading byte, two
  peers configured with different codecs fail loudly at connect time
  instead of exchanging garbage.

Binary message body layout (after the 0xb1 tag)::

    >HHH   kind_id, sender_id, receiver_id  (0xffff = inline string
            follows, for strings absent from the handshake dictionary)
    ...    inline strings for any 0xffff field, in kind/sender/receiver
            order, as packed str values
    ...    packed txn_id (str), packed payload (dict)

Field packing is :mod:`repro.packing` — a dependency-free msgpack-style
tagged encoding covering exactly the JSON value domain, which is what
keeps the two codecs observationally equivalent twins.

:class:`FrameDecoder` parses the stream incrementally: the transport
feeds it each chunk a socket delivers and gets back every message the
chunk completed. It takes the codec's stateful body decoder, so the
handshake state machine lives in one place per connection.
"""

from __future__ import annotations

import json
import struct
from typing import Callable, Iterable, Optional, Sequence, Union

from repro.errors import CodecError
from repro.net.message import Message
from repro.packing import (
    PackError,
    pack_into,
    pack_value,
    unpack_prefix,
    unpack_value,
)
from repro.protocols import base as _proto
from repro.replication.messages import REPLICATION_KINDS

#: 4-byte unsigned big-endian length prefix.
HEADER = struct.Struct(">I")

#: Hard ceiling on one frame's body. Generous: the largest real
#: message (a CL_REDO shipping a whole redo set) is a few KiB.
MAX_FRAME_BYTES = 1 << 20

#: Version of the binary body encoding, announced in the handshake. A
#: peer announcing a different version is refused at connect time.
WIRE_CODEC_VERSION = 1

#: First body byte of a binary handshake frame. 0xb0/0xb1 are invalid
#: as a UTF-8 first byte and can never begin a JSON body, which is what
#: makes mixed-codec peers mutually detectable from the first frame.
HANDSHAKE_TAG = 0xB0
#: First body byte of a binary message frame.
MESSAGE_TAG = 0xB1

#: Struct-packed binary message header (tag + three interned-string
#: ids). 0xffff in an id slot means the string was not in the
#: handshake dictionary and follows inline.
_MSG_HEADER = struct.Struct(">BHHH")
_INLINE = 0xFFFF

#: The message-kind vocabulary every topology can speak: the commit
#: protocols' kinds plus the Paxos Commit replication layer's. Site ids
#: are appended per cluster. Kinds outside this list still travel
#: (inline-encoded), just less compactly.
WIRE_KINDS: tuple[str, ...] = (
    _proto.PREPARE,
    _proto.VOTE_YES,
    _proto.VOTE_NO,
    _proto.VOTE_READ,
    _proto.COMMIT,
    _proto.ABORT,
    _proto.ACK,
    _proto.INQUIRY,
    _proto.CL_RECOVER,
    _proto.CL_REDO,
    _proto.CL_CHECKPOINT,
) + tuple(sorted(REPLICATION_KINDS))


def encode_message(message: Message) -> bytes:
    """Serialize one message body (no length prefix) to UTF-8 JSON.

    Raises:
        CodecError: if the payload is not JSON-representable or the
            body would exceed :data:`MAX_FRAME_BYTES`.
    """
    try:
        body = json.dumps(
            message.to_wire(), separators=(",", ":"), ensure_ascii=False
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise CodecError(f"payload of {message.kind!r} is not JSON-representable: {exc}")
    if len(body) > MAX_FRAME_BYTES:
        raise CodecError(
            f"encoded {message.kind!r} frame is {len(body)} bytes, "
            f"over the {MAX_FRAME_BYTES}-byte limit"
        )
    return body


def encode_frame(message: Message) -> bytes:
    """Serialize one message to a length-prefixed JSON wire frame."""
    body = encode_message(message)
    return HEADER.pack(len(body)) + body


def decode_body(body: bytes) -> Message:
    """Parse one JSON frame body back into a message.

    Raises:
        CodecError: on malformed UTF-8, malformed JSON, or a JSON value
            that is not a valid wire message. A body carrying a binary
            tag byte is called out explicitly — it means the peer is
            configured with the other codec.
    """
    if body[:1] and body[0] in (HANDSHAKE_TAG, MESSAGE_TAG):
        raise CodecError(
            "peer sent a binary-codec frame to a json-codec site; "
            "both ends must run with the same --codec"
        )
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CodecError(f"malformed frame body: {exc}")
    return Message.from_wire(data)


# -- the codec seam ----------------------------------------------------------


class JsonWireCodec:
    """The original length-prefixed JSON encoding (no handshake)."""

    name = "json"
    #: Bytes to send once per (re)connection before any message frame.
    preamble = b""

    def encode_frame(self, message: Message) -> bytes:
        return encode_frame(message)

    def body_decoder(self) -> Callable[[bytes], Optional[Message]]:
        """A per-connection body decoder (stateless for JSON)."""
        return decode_body


class BinaryWireCodec:
    """Struct-packed binary encoding with an interned-string handshake.

    Args:
        intern: routing strings (site ids; the protocol kinds from
            :data:`WIRE_KINDS` are always included) that message
            headers may reference by index instead of repeating
            inline. The table is announced to every peer in the
            connection handshake, so decoding always uses the *sender's*
            table — two sites with different tables still interoperate.
    """

    name = "binary"

    def __init__(self, intern: Iterable[str] = ()) -> None:
        table: list[str] = []
        seen: set[str] = set()
        for entry in (*WIRE_KINDS, *intern):
            if entry not in seen:
                seen.add(entry)
                table.append(entry)
        if len(table) >= _INLINE:
            raise CodecError(
                f"intern table of {len(table)} entries exceeds the u16 id space"
            )
        self._table = table
        self._ids = {text: index for index, text in enumerate(table)}
        handshake = (
            bytes((HANDSHAKE_TAG, WIRE_CODEC_VERSION)) + pack_value(table)
        )
        self.preamble = HEADER.pack(len(handshake)) + handshake

    @property
    def intern_table(self) -> tuple[str, ...]:
        return tuple(self._table)

    def encode_message(self, message: Message) -> bytes:
        """The binary body of one message (no length prefix)."""
        return bytes(self._encode(message, header=False))

    def encode_frame(self, message: Message) -> bytes:
        return bytes(self._encode(message, header=True))

    def _encode(self, message: Message, header: bool) -> bytearray:
        # One growable buffer for the whole frame; the length prefix is
        # back-patched once the body size is known.
        ids = self._ids
        get = ids.get
        inline: list[str] = []
        out = bytearray(HEADER.size) if header else bytearray()
        body_start = len(out)
        indices = []
        for text in (message.kind, message.sender, message.receiver):
            index = get(text, _INLINE)
            indices.append(index)
            if index == _INLINE:
                inline.append(text)
        out += _MSG_HEADER.pack(MESSAGE_TAG, *indices)
        try:
            for text in inline:
                pack_into(out, text)
            pack_into(out, message.txn_id)
            pack_into(out, message.payload)
        except PackError as exc:
            raise CodecError(
                f"payload of {message.kind!r} is not binary-encodable: {exc}"
            )
        body_len = len(out) - body_start
        if body_len > MAX_FRAME_BYTES:
            raise CodecError(
                f"encoded {message.kind!r} frame is {body_len} bytes, "
                f"over the {MAX_FRAME_BYTES}-byte limit"
            )
        if header:
            HEADER.pack_into(out, 0, body_len)
        return out

    def body_decoder(self) -> "BinaryBodyDecoder":
        return BinaryBodyDecoder()


class BinaryBodyDecoder:
    """Per-connection binary body decoder.

    The first body must be the peer's handshake (version check +
    dictionary adoption) and yields ``None``; every later body must be
    a tagged message. Any JSON body (leading ``{``) raises the
    mixed-codec error immediately.
    """

    def __init__(self) -> None:
        self._table: Optional[list[str]] = None

    def __call__(self, body: bytes) -> Optional[Message]:
        if not body:
            raise CodecError("empty frame body")
        tag = body[0]
        if tag == ord("{"):
            raise CodecError(
                "peer sent a json-codec frame to a binary-codec site; "
                "both ends must run with the same --codec"
            )
        if self._table is None:
            if tag != HANDSHAKE_TAG:
                raise CodecError(
                    f"binary connection must open with a handshake frame, "
                    f"got tag 0x{tag:02x}"
                )
            if len(body) < 2:
                raise CodecError("truncated handshake frame")
            version = body[1]
            if version != WIRE_CODEC_VERSION:
                raise CodecError(
                    f"peer speaks binary wire codec v{version}, "
                    f"this site speaks v{WIRE_CODEC_VERSION}"
                )
            try:
                table = unpack_value(body[2:])
            except PackError as exc:
                raise CodecError(f"malformed handshake dictionary: {exc}")
            if not isinstance(table, list) or not all(
                isinstance(entry, str) for entry in table
            ):
                raise CodecError("handshake dictionary must be a list of strings")
            self._table = table
            return None
        if tag == HANDSHAKE_TAG:
            raise CodecError("duplicate handshake frame")
        if tag != MESSAGE_TAG:
            raise CodecError(f"unknown binary frame tag 0x{tag:02x}")
        return self._decode_message(body)

    def _decode_message(self, body: bytes) -> Message:
        table = self._table or []
        try:
            _, kind_id, sender_id, receiver_id = _MSG_HEADER.unpack_from(body)
        except struct.error as exc:
            raise CodecError(f"truncated binary message header: {exc}")
        offset = _MSG_HEADER.size
        fields: list[str] = []
        try:
            for index in (kind_id, sender_id, receiver_id):
                if index == _INLINE:
                    text, offset = unpack_prefix(body, offset)
                else:
                    if index >= len(table):
                        raise CodecError(
                            f"interned id {index} outside the peer's "
                            f"{len(table)}-entry dictionary"
                        )
                    text = table[index]
                if not isinstance(text, str):
                    raise CodecError(
                        f"routing field must be a string, got "
                        f"{type(text).__name__}"
                    )
                fields.append(text)
            txn_id, offset = unpack_prefix(body, offset)
            payload, offset = unpack_prefix(body, offset)
        except PackError as exc:
            raise CodecError(f"malformed binary frame body: {exc}")
        if offset != len(body):
            raise CodecError(
                f"trailing garbage in binary frame: "
                f"{len(body) - offset} unconsumed bytes"
            )
        kind, sender, receiver = fields
        # Constructed directly rather than via Message.from_wire: the
        # header walk above already guarantees string routing fields,
        # so only the schema checks from_wire would add remain.
        if not kind:
            raise CodecError("wire field 'kind' must be non-empty")
        if not isinstance(txn_id, str):
            raise CodecError(
                f"wire field 'txn' must be a string, got "
                f"{type(txn_id).__name__}"
            )
        if not isinstance(payload, dict):
            raise CodecError(
                f"wire payload must be a dict, got {type(payload).__name__}"
            )
        return Message(
            kind=kind,
            sender=sender,
            receiver=receiver,
            txn_id=txn_id,
            payload=payload,
        )


WireCodec = Union[JsonWireCodec, BinaryWireCodec]

#: The --codec vocabulary, shared by the CLI and config validation.
WIRE_CODECS = ("json", "binary")


def wire_codec(name: str, intern: Sequence[str] = ()) -> WireCodec:
    """Build a codec by name (``json`` or ``binary``)."""
    if name == "json":
        return JsonWireCodec()
    if name == "binary":
        return BinaryWireCodec(intern)
    raise CodecError(f"unknown wire codec {name!r} (expected one of {WIRE_CODECS})")


class FrameDecoder:
    """Incremental frame parser over an arbitrary chunking of the stream.

    Args:
        max_frame_bytes: per-frame body ceiling.
        decode: body decoder — :func:`decode_body` (the default, JSON)
            or a :class:`BinaryBodyDecoder`. A ``None`` return means
            the body was a control frame (the binary handshake) and
            produces no message.

    Example:
        >>> from repro.net.message import Message
        >>> decoder = FrameDecoder()
        >>> frame = encode_frame(Message("PREPARE", "tm", "p0", "t1"))
        >>> [m.kind for m in decoder.feed(frame[:3]) + decoder.feed(frame[3:])]
        ['PREPARE']
    """

    def __init__(
        self,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        decode: Optional[Callable[[bytes], Optional[Message]]] = None,
    ) -> None:
        self._max = max_frame_bytes
        self._decode = decode if decode is not None else decode_body
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes of a frame not yet complete, its header included. Not
        zero at the end of a stream: the stream was cut mid-frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[Message]:
        """Consume a chunk; return every message it completed.

        Raises:
            CodecError: on an oversized frame announcement or a
                malformed body. The buffer is emptied and the caller
                must drop the connection; resynchronising inside a
                corrupt length-prefixed stream is not possible.
        """
        buffer = self._buffer
        buffer += data
        messages: list[Message] = []
        start, size = 0, len(buffer)
        try:
            while size - start >= HEADER.size:
                (length,) = HEADER.unpack_from(buffer, start)
                if length > self._max:
                    raise CodecError(
                        f"incoming frame announces {length} bytes, "
                        f"over the {self._max}-byte limit"
                    )
                end = start + HEADER.size + length
                if end > size:
                    break
                message = self._decode(bytes(buffer[start + HEADER.size : end]))
                start = end
                if message is not None:
                    messages.append(message)
        except CodecError:
            buffer.clear()
            raise
        del buffer[:start]
        return messages
