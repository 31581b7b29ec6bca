"""Wire protocol: frame layout, payload codecs, checksums.

Frame layout (all integers little-endian):

    4 bytes   magic "SWP2"
    1 byte    message kind; bit 7 (``NO_REPLY``) marks a frame whose sender
              reads no reply
    16 bytes  session id
    8 bytes   payload length
    N bytes   payload (kind-specific)
    8 bytes   BLAKE2b-64 checksum of the payload: BLAKE2b with an 8-byte
              digest (RFC 7693), read little-endian

Each payload type is described once, by its ``_CODECS`` entry: kind, fixed
fields, whether a blob follows, encode, decode and size. Inside the simulator
messages travel as objects; ``framed_nbytes`` sizes them from the same
entries, so the simulated byte counters match the real transport, and
``decode_frame`` refuses a payload of any other length. Activation blobs may
be raw float32 (row-major) or blockwise int8 per quantize.py, and the
simulator may carry shape-only synthetic blobs that are never encoded.
``HiddenBlob.shape_only`` hands out one shared blob per (rows, cols,
quantized), from a bounded cache, with its size worked out once: a shape-only
blob is never mutated, by this module or any other. Other modules read no
header byte: they ask ``frame_len`` and ``wants_reply``.
"""

from __future__ import annotations

import enum
import hashlib
import json
import struct
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ProtocolError
from .quantize import (BLOCK_SIZE, QuantizedHidden, dequantize_hidden, n_blocks_for,
                       quantize_hidden)

MAGIC = b"SWP2"
_HEADER = struct.Struct("<4sB16sQ")   # magic, kind byte, session id, payload length
HEADER_LEN = _HEADER.size
TRAILER_LEN = 8
NO_REPLY = 0x80      # kind-byte flag: the sender reads no reply to this frame
FRAME_OVERHEAD = HEADER_LEN + TRAILER_LEN
MAX_FRAME_LEN = 1 << 24   # 16 MiB: longest frame a receiver reads (docs/wire.md)


def fnv1a64(data: bytes) -> int:
    """The frame trailer: BLAKE2b-64 of ``data`` (an 8-byte digest, RFC
    7693), read little-endian.

    The name is a tracer hook: tracers patch ``wire.fnv1a64`` and
    ``server.fnv1a64`` by name, so it stays until the next benchmark change
    renames it together with them."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


class Kind(enum.IntEnum):
    OPEN_SESSION = 1
    STEP = 2
    STEP_RESULT = 3
    RESTORE = 4
    REORDER = 5
    FORWARD = 6
    BACKWARD = 7
    PING = 8
    PONG = 9
    ANNOUNCE = 10
    CLOSE = 11
    ERROR = 12


# ---------------------------------------------------------------------------
# activation blob
# ---------------------------------------------------------------------------

_BLOB_HEADER = struct.Struct("<BII")          # encoding, rows, cols
_QUANT_HEADER = struct.Struct("<II")          # block_size, n_blocks

ENC_RAW = 0
ENC_QUANT = 1
SHAPE_CACHE_MAX = 128     # shared shape-only blobs kept; a full cache starts over


@dataclass
class HiddenBlob:
    """Activation matrix on the wire: raw f32, quantized, or shape-only."""

    rows: int
    cols: int
    data: np.ndarray | None = None
    quant: QuantizedHidden | None = None
    synthetic: bool = False
    quantize_flag: bool = False   # synthetic blobs: which encoding to size as
    _nbytes = None                # not a field: a shared shape-only blob's size

    @classmethod
    def from_array(cls, a: np.ndarray, quantized: bool = False) -> "HiddenBlob":
        a2 = np.ascontiguousarray(a, dtype=np.float32)
        if a2.ndim != 2:
            a2 = a2.reshape(-1, a2.shape[-1])
        if quantized:
            return cls(a2.shape[0], a2.shape[1], quant=quantize_hidden(a2))
        return cls(a2.shape[0], a2.shape[1], data=a2)

    @classmethod
    def shape_only(cls, rows: int, cols: int, quantized: bool = False) -> "HiddenBlob":
        """The shared synthetic blob of this shape; callers never mutate it."""
        key = (rows, cols, quantized)
        try:
            return _SHAPES[key]
        except KeyError:
            pass
        if len(_SHAPES) >= SHAPE_CACHE_MAX:
            _SHAPES.clear()
        blob = _SHAPES[key] = cls(rows, cols, synthetic=True, quantize_flag=quantized)
        blob._nbytes = blob.nbytes()
        return blob

    def array(self) -> np.ndarray:
        """Decode to a float32 [rows, cols] matrix."""
        if self.synthetic:
            raise ProtocolError("synthetic blob carries no data")
        if self.quant is not None:
            return dequantize_hidden(self.quant).reshape(self.rows, self.cols)
        return self.data

    def nbytes(self) -> int:
        if self._nbytes is not None:
            return self._nbytes
        n = self.rows * self.cols
        if self.quant is not None or (self.synthetic and self.quantize_flag):
            block = self.quant.block_size if self.quant is not None else BLOCK_SIZE
            n_blocks = n_blocks_for(self.rows, self.cols, block)
            return _BLOB_HEADER.size + _QUANT_HEADER.size + 4 * n_blocks + n
        return _BLOB_HEADER.size + 4 * n

    def encode(self) -> bytes:
        if self.synthetic:
            raise ProtocolError("synthetic blob cannot be encoded")
        if self.quant is not None:
            q = self.quant
            return (_BLOB_HEADER.pack(ENC_QUANT, self.rows, self.cols)
                    + _QUANT_HEADER.pack(q.block_size, q.n_blocks)
                    + q.scales.astype("<f4").tobytes()
                    + q.codes.tobytes())
        return _BLOB_HEADER.pack(ENC_RAW, self.rows, self.cols) + self.data.astype("<f4").tobytes()

    @classmethod
    def decode(cls, buf: bytes, offset: int = 0) -> tuple["HiddenBlob", int]:
        enc, rows, cols = _BLOB_HEADER.unpack_from(buf, offset)
        offset += _BLOB_HEADER.size
        n = rows * cols
        if enc == ENC_RAW:
            data = np.frombuffer(buf, "<f4", count=n, offset=offset).reshape(rows, cols).copy()
            return cls(rows, cols, data=data), offset + 4 * n
        if enc == ENC_QUANT:
            block, n_blocks = _QUANT_HEADER.unpack_from(buf, offset)
            if block < 1 or n_blocks != n_blocks_for(rows, cols, block):
                raise ProtocolError(f"{n_blocks} int8 blocks of {block} for a {rows}x{cols} blob")
            offset += _QUANT_HEADER.size
            scales = np.frombuffer(buf, "<f4", count=n_blocks, offset=offset).copy()
            offset += 4 * n_blocks
            codes = np.frombuffer(buf, "i1", count=n, offset=offset).copy()
            return cls(rows, cols, quant=QuantizedHidden((rows, cols), block, scales, codes)), offset + n
        raise ProtocolError(f"unknown blob encoding {enc}")


_SHAPES: dict[tuple[int, int, bool], HiddenBlob] = {}


# ---------------------------------------------------------------------------
# payloads
# ---------------------------------------------------------------------------

@dataclass
class OpenSession:
    start: int
    end: int
    width: int = 1
    quantized: bool = False


@dataclass
class Step:
    position_offset: int
    blob: HiddenBlob
    width: int = 1
    n_new: int = 1


@dataclass
class StepResult:
    blob: HiddenBlob


@dataclass
class Restore:
    t: int
    blob: HiddenBlob          # width*t rows
    width: int = 1
    want_outputs: bool = True # gap fills need them; lone replacements save the bytes


@dataclass
class Reorder:
    indices: list[int]        # 1-based slots, length = new width


@dataclass
class Forward:
    req_id: int
    blob: HiddenBlob          # batch*tokens rows
    batch: int
    tokens: int
    start: int                # blocks [start, end) to run
    end: int
    record: bool = False      # keep inputs for a matching BACKWARD
    quantize_reply: bool = False


@dataclass
class Backward:
    req_id: int
    blob: HiddenBlob          # grad wrt outputs, batch*tokens rows
    batch: int
    tokens: int
    start: int                # the interval of the matching FORWARD
    end: int


@dataclass
class Ping:
    pass


@dataclass
class Pong:
    pass


@dataclass
class Announce:
    record: dict
    _nbytes = None    # not a field: the frame size of a ``fixed`` announce

    @classmethod
    def fixed(cls, record: dict) -> "Announce":
        """An announce sized once, for a sender that resends it unchanged:
        neither it nor ``record`` changes afterwards."""
        a = cls(record)
        a._nbytes = FRAME_OVERHEAD + len(_canon_json(record))
        return a


@dataclass
class Close:
    pass


@dataclass
class Error:
    code: str
    detail: str = ""


Payload = (OpenSession | Step | StepResult | Restore | Reorder | Forward
           | Backward | Ping | Pong | Announce | Close | Error)


class _Codec(NamedTuple):
    """One payload type on the wire: its kind byte, its encoding, the
    payload an encoding decodes to, and the length of a frame carrying it."""

    kind: Kind
    encode: Callable[[Payload], bytes]
    decode: Callable[[bytes], Payload]
    framed_nbytes: Callable[[Payload], int]


def _fields(kind: Kind, fmt: str, values: Callable, build: Callable,
            blob: bool = False) -> _Codec:
    """Fixed fields packed as ``fmt``, then an activation blob when ``blob``.
    ``values(p)`` lists a payload's fields in ``fmt`` order; ``build`` makes
    the payload from them, with the blob as its last argument."""
    fixed = struct.Struct(fmt)
    n = fixed.size
    framed = FRAME_OVERHEAD + n
    if not blob:
        return _Codec(kind, lambda p: fixed.pack(*values(p)),
                      lambda buf: build(*fixed.unpack_from(buf)), lambda p: framed)
    return _Codec(kind, lambda p: fixed.pack(*values(p)) + p.blob.encode(),
                  lambda buf: build(*fixed.unpack_from(buf), HiddenBlob.decode(buf, n)[0]),
                  lambda p: framed + p.blob.nbytes())


def _canon_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _json(kind: Kind, obj: Callable, build: Callable) -> _Codec:
    """Canonical JSON of the object ``obj(p)``: sorted keys, no spaces,
    ASCII. ``build`` makes the payload from a decoded object."""
    def decode(buf: bytes) -> Payload:
        o = json.loads(buf.decode())
        if not isinstance(o, dict):
            raise ProtocolError("JSON payload is not an object")
        return build(o)

    def framed_nbytes(p: Payload) -> int:
        # an ``Announce.fixed`` carries the size worked out when it was made
        return (getattr(p, "_nbytes", None)
                or FRAME_OVERHEAD + len(_canon_json(obj(p))))
    return _Codec(kind, lambda p: _canon_json(obj(p)), decode, framed_nbytes)


def _decode_reorder(buf: bytes) -> Reorder:
    (n,) = struct.unpack_from("<H", buf)
    return Reorder(list(struct.unpack_from(f"<{n}H", buf, 2)))


# Every payload type's layout, once; ``docs/wire.md`` mirrors it. Integers
# are little-endian.
_CODECS: dict[type, _Codec] = {
    OpenSession: _fields(
        Kind.OPEN_SESSION, "<IIHB",
        lambda p: (p.start, p.end, p.width, bool(p.quantized)),
        lambda start, end, width, flags: OpenSession(start, end, width, bool(flags & 1))),
    Step: _fields(
        Kind.STEP, "<IHH", lambda p: (p.position_offset, p.width, p.n_new),
        lambda pos, width, n_new, blob: Step(pos, blob, width, n_new), blob=True),
    StepResult: _fields(Kind.STEP_RESULT, "", lambda p: (), StepResult, blob=True),
    Restore: _fields(
        Kind.RESTORE, "<IHB", lambda p: (p.t, p.width, bool(p.want_outputs)),
        lambda t, width, want, blob: Restore(t, blob, width, bool(want)), blob=True),
    Reorder: _Codec(
        Kind.REORDER,
        lambda p: struct.pack(f"<H{len(p.indices)}H", len(p.indices), *p.indices),
        _decode_reorder, lambda p: FRAME_OVERHEAD + 2 + 2 * len(p.indices)),
    Forward: _fields(
        Kind.FORWARD, "<QBIIII",
        lambda p: (p.req_id, bool(p.record) | bool(p.quantize_reply) << 1,
                   p.batch, p.tokens, p.start, p.end),
        lambda req_id, flags, batch, tokens, start, end, blob: Forward(
            req_id, blob, batch, tokens, start, end, bool(flags & 1), bool(flags & 2)),
        blob=True),
    Backward: _fields(
        Kind.BACKWARD, "<QIIII", lambda p: (p.req_id, p.batch, p.tokens, p.start, p.end),
        lambda req_id, batch, tokens, start, end, blob: Backward(
            req_id, blob, batch, tokens, start, end),
        blob=True),
    Ping: _fields(Kind.PING, "", lambda p: (), Ping),
    Pong: _fields(Kind.PONG, "", lambda p: (), Pong),
    Announce: _json(Kind.ANNOUNCE, lambda p: p.record, Announce),
    Close: _fields(Kind.CLOSE, "", lambda p: (), Close),
    Error: _json(Kind.ERROR, lambda p: {"code": p.code, "detail": p.detail},
                 lambda o: Error(o["code"], o["detail"])),
}
_BY_KIND = {c.kind: c for c in _CODECS.values()}
# the simulator sizes every leg: one flat lookup, no codec object per call
_FRAMED_NBYTES = {t: c.framed_nbytes for t, c in _CODECS.items()}


def encode_payload(payload: Payload) -> bytes:
    codec = _CODECS.get(type(payload))
    if codec is None:
        raise ProtocolError(f"unknown payload {type(payload)}")
    return codec.encode(payload)


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

@dataclass
class WireMessage:
    payload: Payload
    session_id: int = 0       # 128-bit

    @property
    def kind(self) -> Kind:
        return _CODECS[type(self.payload)].kind


def framed_nbytes(msg: WireMessage) -> int:
    p = msg.payload
    try:
        size = _FRAMED_NBYTES[type(p)]
    except KeyError:
        raise ProtocolError(f"unknown payload {type(p)}") from None
    return size(p)


def frame_len(head: bytes) -> int:
    """The length of the whole frame whose first ``HEADER_LEN`` bytes are
    ``head``; ProtocolError when they do not start with the magic or claim
    a frame longer than ``MAX_FRAME_LEN``."""
    magic, _, _, plen = _HEADER.unpack_from(head)
    if magic != MAGIC:
        raise ProtocolError("bad magic")
    if plen > MAX_FRAME_LEN - FRAME_OVERHEAD:
        raise ProtocolError(f"{plen}-byte payload exceeds the {MAX_FRAME_LEN}-byte frame cap")
    return HEADER_LEN + plen + TRAILER_LEN


def wants_reply(frame: bytes) -> bool:
    """False when the frame's sender set ``NO_REPLY``."""
    return not _HEADER.unpack_from(frame)[1] & NO_REPLY


def encode_frame(msg: WireMessage, reply: bool = True) -> bytes:
    """The frame of ``msg``; ``reply=False`` sets ``NO_REPLY`` in the kind
    byte, which leaves the frame's size unchanged."""
    body = encode_payload(msg.payload)
    head = _HEADER.pack(MAGIC, msg.kind if reply else msg.kind | NO_REPLY,
                        msg.session_id.to_bytes(16, "little"), len(body))
    return head + body + fnv1a64(body).to_bytes(TRAILER_LEN, "little")


def decode_frame(buf: bytes) -> tuple[WireMessage, int]:
    """Decode one frame; returns (message, bytes consumed). The ``NO_REPLY``
    bit is ignored here: ``wants_reply`` reads it. Every malformed frame
    raises ProtocolError: bad magic, a length over ``MAX_FRAME_LEN``, a
    checksum mismatch, an unknown kind, a payload that does not parse as its
    kind, and a payload longer or shorter than its kind's encoding of what it
    decodes to."""
    if len(buf) < HEADER_LEN:
        raise ProtocolError("short frame header")
    end = frame_len(buf) - TRAILER_LEN
    _, kind, session_id, plen = _HEADER.unpack_from(buf)
    if len(buf) < end + TRAILER_LEN:
        raise ProtocolError("truncated frame")
    body = buf[HEADER_LEN:end]
    if fnv1a64(body) != int.from_bytes(buf[end:end + TRAILER_LEN], "little"):
        raise ProtocolError("payload checksum mismatch")
    try:
        payload = _BY_KIND[Kind(kind & ~NO_REPLY)].decode(body)
    except (ValueError, KeyError, TypeError, OverflowError, struct.error) as e:
        # unknown kind, short fixed fields, a blob past the payload's end,
        # bad UTF-8 or JSON
        raise ProtocolError(f"malformed {kind:#x} frame: {e}") from e
    msg = WireMessage(payload, int.from_bytes(session_id, "little"))
    nbytes = framed_nbytes(msg) - FRAME_OVERHEAD
    if nbytes != plen:
        raise ProtocolError(f"{plen}-byte payload for a {nbytes}-byte {type(payload).__name__}")
    return msg, end + TRAILER_LEN
