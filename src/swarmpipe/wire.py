"""Wire protocol: frame layout, payload codecs, checksums.

Frame layout (all integers little-endian):

    4 bytes   magic "SWP1"
    1 byte    message kind; bit 7 (``NO_REPLY``) marks a frame whose sender
              reads no reply
    16 bytes  session id
    8 bytes   payload length
    N bytes   payload (kind-specific)
    8 bytes   BLAKE2b-64 checksum of the payload: BLAKE2b with an 8-byte
              digest (RFC 7693), read little-endian

Inside the simulator messages travel as objects; ``framed_nbytes`` reports
exactly what the byte encoding would occupy so the simulated byte counters
match the real transport (asserted in tests). Activation blobs may be raw
float32 (row-major) or blockwise int8 per quantize.py, and the simulator may
carry shape-only synthetic blobs that are never encoded.
"""

from __future__ import annotations

import enum
import hashlib
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ProtocolError
from .quantize import (BLOCK_SIZE, QuantizedHidden, dequantize_hidden, n_blocks_for,
                       quantize_hidden)

MAGIC = b"SWP1"
HEADER_LEN = 4 + 1 + 16 + 8
TRAILER_LEN = 8
NO_REPLY = 0x80      # kind-byte flag: the sender reads no reply to this frame


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


@dataclass
class HiddenBlob:
    """Activation matrix on the wire: raw f32, quantized, or shape-only."""

    rows: int
    cols: int
    data: np.ndarray | None = None
    quant: QuantizedHidden | None = None
    synthetic: bool = False
    quantize_flag: bool = False   # synthetic blobs: which encoding to size as

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
        return cls(rows, cols, synthetic=True, quantize_flag=quantized)

    def array(self) -> np.ndarray:
        """Decode to a float32 [rows, cols] matrix."""
        if self.synthetic:
            raise ProtocolError("synthetic blob carries no data")
        if self.quant is not None:
            return dequantize_hidden(self.quant).reshape(self.rows, self.cols)
        return self.data

    def nbytes(self) -> int:
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


# ---------------------------------------------------------------------------
# payloads
# ---------------------------------------------------------------------------

# reserved fields are written as 0 and ignored on decode; they keep every
# frame the size it had in SWP1 and go with the next magic bump
_OPEN = struct.Struct("<IIHB12x")    # start, end, width, flags, reserved
_STEP = struct.Struct("<IHH8x")       # position_offset, width, n_new, reserved
_RESTORE = struct.Struct("<IHB")      # t, width, want_outputs
_FORWARD = struct.Struct("<QBIIII")   # req_id, flags, batch, tokens, start, end
_BACKWARD = struct.Struct("<QIIII")   # req_id, batch, tokens, start, end


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
    position_offset: int
    blob: HiddenBlob
    width: int = 1
    n_new: int = 1


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


@dataclass
class Close:
    pass


@dataclass
class Error:
    code: str
    detail: str = ""


Payload = (OpenSession | Step | StepResult | Restore | Reorder | Forward
           | Backward | Ping | Pong | Announce | Close | Error)

_KIND_OF = {
    OpenSession: Kind.OPEN_SESSION, Step: Kind.STEP, StepResult: Kind.STEP_RESULT,
    Restore: Kind.RESTORE, Reorder: Kind.REORDER, Forward: Kind.FORWARD,
    Backward: Kind.BACKWARD, Ping: Kind.PING, Pong: Kind.PONG,
    Announce: Kind.ANNOUNCE, Close: Kind.CLOSE, Error: Kind.ERROR,
}


def kind_of(payload: Payload) -> Kind:
    return _KIND_OF[type(payload)]


# payload size by type; a blob payload is its fixed fields plus its blob
_NBYTES = {
    OpenSession: lambda p: _OPEN.size,
    Step: lambda p: _STEP.size + p.blob.nbytes(),
    StepResult: lambda p: _STEP.size + p.blob.nbytes(),
    Restore: lambda p: _RESTORE.size + p.blob.nbytes(),
    Reorder: lambda p: 2 + 2 * len(p.indices),
    Forward: lambda p: _FORWARD.size + p.blob.nbytes(),
    Backward: lambda p: _BACKWARD.size + p.blob.nbytes(),
    Ping: lambda p: 0,
    Pong: lambda p: 0,
    Close: lambda p: 0,
    Announce: lambda p: len(_canon_json(p.record)),
    Error: lambda p: len(_canon_json({"code": p.code, "detail": p.detail})),
}


def payload_nbytes(payload: Payload) -> int:
    size = _NBYTES.get(type(payload))
    if size is None:
        raise ProtocolError(f"unknown payload {type(payload)}")
    return size(payload)


def _canon_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def encode_payload(payload: Payload) -> bytes:
    if isinstance(payload, OpenSession):
        return _OPEN.pack(payload.start, payload.end, payload.width,
                          1 if payload.quantized else 0)
    if isinstance(payload, (Step, StepResult)):
        return _STEP.pack(payload.position_offset, payload.width,
                          payload.n_new) + payload.blob.encode()
    if isinstance(payload, Restore):
        return _RESTORE.pack(payload.t, payload.width,
                             1 if payload.want_outputs else 0) + payload.blob.encode()
    if isinstance(payload, Reorder):
        return struct.pack(f"<H{len(payload.indices)}H", len(payload.indices), *payload.indices)
    if isinstance(payload, Forward):
        flags = (1 if payload.record else 0) | (2 if payload.quantize_reply else 0)
        return _FORWARD.pack(payload.req_id, flags, payload.batch, payload.tokens,
                             payload.start, payload.end) + payload.blob.encode()
    if isinstance(payload, Backward):
        return _BACKWARD.pack(payload.req_id, payload.batch, payload.tokens,
                              payload.start, payload.end) + payload.blob.encode()
    if isinstance(payload, (Ping, Pong, Close)):
        return b""
    if isinstance(payload, Announce):
        return _canon_json(payload.record)
    if isinstance(payload, Error):
        return _canon_json({"code": payload.code, "detail": payload.detail})
    raise ProtocolError(f"unknown payload {type(payload)}")


def decode_payload(kind: Kind, buf: bytes) -> Payload:
    if kind == Kind.OPEN_SESSION:
        start, end, width, flags = _OPEN.unpack_from(buf)
        return OpenSession(start, end, width, bool(flags & 1))
    if kind in (Kind.STEP, Kind.STEP_RESULT):
        pos, width, n_new = _STEP.unpack_from(buf)
        blob, _ = HiddenBlob.decode(buf, _STEP.size)
        cls = Step if kind == Kind.STEP else StepResult
        return cls(pos, blob, width, n_new)
    if kind == Kind.RESTORE:
        t, width, want = _RESTORE.unpack_from(buf)
        blob, _ = HiddenBlob.decode(buf, _RESTORE.size)
        return Restore(t, blob, width, bool(want))
    if kind == Kind.REORDER:
        (n,) = struct.unpack_from("<H", buf)
        return Reorder(list(struct.unpack_from(f"<{n}H", buf, 2)))
    if kind == Kind.FORWARD:
        req_id, flags, batch, tokens, start, end = _FORWARD.unpack_from(buf)
        blob, _ = HiddenBlob.decode(buf, _FORWARD.size)
        return Forward(req_id, blob, batch, tokens, start, end, bool(flags & 1), bool(flags & 2))
    if kind == Kind.BACKWARD:
        req_id, batch, tokens, start, end = _BACKWARD.unpack_from(buf)
        blob, _ = HiddenBlob.decode(buf, _BACKWARD.size)
        return Backward(req_id, blob, batch, tokens, start, end)
    if kind == Kind.PING:
        return Ping()
    if kind == Kind.PONG:
        return Pong()
    if kind == Kind.CLOSE:
        return Close()
    if kind == Kind.ANNOUNCE:
        return Announce(_json_object(buf))
    if kind == Kind.ERROR:
        obj = _json_object(buf)
        return Error(obj["code"], obj.get("detail", ""))
    raise ProtocolError(f"unknown kind {kind}")


def _json_object(buf: bytes) -> dict:
    obj = json.loads(buf.decode())
    if not isinstance(obj, dict):
        raise ProtocolError("JSON payload is not an object")
    return obj


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

@dataclass
class WireMessage:
    payload: Payload
    session_id: int = 0       # 128-bit

    @property
    def kind(self) -> Kind:
        return kind_of(self.payload)


def framed_nbytes(msg: WireMessage) -> int:
    return HEADER_LEN + payload_nbytes(msg.payload) + TRAILER_LEN


def encode_frame(msg: WireMessage, reply: bool = True) -> bytes:
    """The frame of ``msg``; ``reply=False`` sets ``NO_REPLY`` in the kind
    byte, which leaves the frame's size unchanged."""
    body = encode_payload(msg.payload)
    head = (MAGIC + bytes([msg.kind if reply else msg.kind | NO_REPLY])
            + msg.session_id.to_bytes(16, "little")
            + len(body).to_bytes(8, "little"))
    return head + body + fnv1a64(body).to_bytes(8, "little")


def decode_frame(buf: bytes) -> tuple[WireMessage, int]:
    """Decode one frame; returns (message, bytes consumed). The ``NO_REPLY``
    bit is ignored: the transport reads it from the header. Every malformed
    frame raises ProtocolError: bad magic, a checksum mismatch, an unknown
    kind, and a payload that does not parse as its kind."""
    if len(buf) < HEADER_LEN:
        raise ProtocolError("short frame header")
    if buf[:4] != MAGIC:
        raise ProtocolError("bad magic")
    session_id = int.from_bytes(buf[5:21], "little")
    plen = int.from_bytes(buf[21:29], "little")
    end = HEADER_LEN + plen
    if len(buf) < end + TRAILER_LEN:
        raise ProtocolError("truncated frame")
    body = buf[HEADER_LEN:end]
    checksum = int.from_bytes(buf[end:end + TRAILER_LEN], "little")
    if fnv1a64(body) != checksum:
        raise ProtocolError("payload checksum mismatch")
    try:
        payload = decode_payload(Kind(buf[4] & ~NO_REPLY), body)
    except (ValueError, KeyError, TypeError, OverflowError, struct.error) as e:
        # unknown kind, short fixed fields, a blob past the payload's end,
        # bad UTF-8 or JSON
        raise ProtocolError(f"malformed {buf[4]:#x} frame: {e}") from e
    return WireMessage(payload, session_id), end + TRAILER_LEN
