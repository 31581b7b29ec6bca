"""Wire codec: blockwise int8 quantization and frame round-trips."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swarmpipe import server, wire
from swarmpipe.client import Strategy
from swarmpipe.errors import ProtocolError
from swarmpipe.model import ModelConfig
from swarmpipe.netsim import NetProfile
from swarmpipe.quantize import dequantize_hidden, quantize_hidden
from swarmpipe.swarm import build_sim_swarm
from swarmpipe.wire import (MAGIC, NO_REPLY, Announce, Backward, Close, Error, Forward,
                            HiddenBlob, Kind, OpenSession, Ping, Pong, Reorder, Restore,
                            Step, StepResult, WireMessage, decode_frame, encode_frame,
                            encode_payload, fnv1a64, framed_nbytes)


class TestQuantize:
    def test_all_zero_round_trips_exactly(self):
        h = np.zeros((4, 64), np.float32)
        q = quantize_hidden(h)
        assert (q.scales == 0).all()
        assert np.array_equal(dequantize_hidden(q), h)

    def test_hot_block_example(self):
        """One block of 127 ones and a single 127.0: scale 1.0, error <= 1."""
        h = np.ones(128, np.float32)
        h[7] = 127.0
        q = quantize_hidden(h, block_size=128)
        assert q.scales[0] == pytest.approx(1.0)
        err = np.abs(dequantize_hidden(q) - h)
        assert err.max() <= 1.0

    def test_random_matrix_within_bound(self, rng):
        h = rng.standard_normal((64, 64)).astype(np.float32)
        q = quantize_hidden(h)
        back = dequantize_hidden(q)
        blocks = h.ravel().reshape(-1, 64)
        bounds = np.abs(blocks).max(1) / 127.0
        errs = np.abs((back - h).ravel().reshape(-1, 64)).max(1)
        assert (errs <= bounds + 1e-7).all()

    def test_rows_code_alike_alone_and_together(self, tiny_config, rng):
        """A RESTORE carries the rows that STEPs sent one at a time; with
        ``hidden_dim`` under 64 both must decode to the same values."""
        d = tiny_config.hidden_dim
        rows = (rng.standard_normal((5, d)) * [[0.1], [1.0], [3.0], [30.0], [0.5]]).astype(np.float32)
        together = HiddenBlob.from_array(rows, quantized=True)
        alone = np.vstack([HiddenBlob.from_array(r[None], quantized=True).array() for r in rows])
        assert together.array().tobytes() == alone.tobytes()
        assert together.quant.n_blocks == 5

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 300), st.integers(0, 2 ** 31))
    def test_bound_property(self, n, seed):
        h = np.random.default_rng(seed).uniform(-50, 50, n).astype(np.float32)
        q = quantize_hidden(h)
        back = dequantize_hidden(q)
        padded = np.zeros(q.n_blocks * q.block_size, np.float32)
        padded[:n] = h
        bounds = np.abs(padded.reshape(-1, 64)).max(1) / 127.0
        err = np.abs(back - h)
        for b in range(q.n_blocks):
            lo, hi = b * 64, min((b + 1) * 64, n)
            if lo < n:
                assert err[lo:hi].max() <= bounds[b] + 1e-6


def _all_kind_messages(rng):
    h = rng.standard_normal((5, 64)).astype(np.float32)
    return [
        WireMessage(OpenSession(0, 4, 2, True), 3),
        WireMessage(Step(11, HiddenBlob.from_array(h), 1, 5), 3),
        WireMessage(StepResult(HiddenBlob.from_array(h, quantized=True)), 3),
        WireMessage(Restore(5, HiddenBlob.from_array(h), 1, want_outputs=False), 3),
        WireMessage(Reorder([2, 2, 1, 3, 2])),
        WireMessage(Forward(41, HiddenBlob.from_array(h), 1, 5, 2, 6, record=True)),
        WireMessage(Backward(41, HiddenBlob.from_array(h), 1, 5, 2, 6)),
        WireMessage(Ping()),
        WireMessage(Pong()),
        WireMessage(Announce({"server_id": "a", "throughput": 12.5, "start": 0, "end": 4})),
        WireMessage(Close()),
        WireMessage(Error("desync", "positions diverged")),
    ]


# sha256 of the frames in test_frame_bytes_of_every_kind_are_pinned
_PINNED_DIGESTS = {
    "announce": "3351d57fd966f8368cf17956fde8d0396af1ff84d53324ae41227165784c272f",
    "backward_raw": "b06b1a008cc3b2f38b52e856c788101658655653bb14da532b99699c4f0395f0",
    "close": "f8ebc9331632d843390db3798cd1c7b636a9971aa5128ecda9cf297f8a0ac5eb",
    "close_no_reply": "d9e267c8d249e0fd5241608d9006808bfb317d430dee606b0cc6c5d7715b2064",
    "error": "c43a24d91465fcddb1578da15c44ca77b4562c68d154d9b45927216011c49341",
    "forward_int8": "b06c71009af7046f2ce4865ca4a213982dd8dc197c8864f7ebf5adcb5df1ee45",
    "forward_raw": "482d4c49bd6e70d6d3cc109ca08ce3c5db55c66547debf6a69ad74c6cdd3cdec",
    "open_session": "5db6d1a0ba469fc7fa24d2719ad70d8bd8825c3feb9a73655760b8c4f1f19d3b",
    "ping": "0223710cbe3bec97cd4bfe9533be93c256fefdc7b0f646ceac3997feb4c9897a",
    "pong": "7041b4c03c68904af52cf6888923d81269f4238396123291400bf7d4dff460ee",
    "reorder": "1b45a2138f0ef1fea0045144024fdf4ece4e7b6b358e54e540ad8825c3c76305",
    "restore_int8": "db75b719d60f95cf45d195d739982cadae05dae9366e5ce483d1209245929259",
    "step_int8": "5522092a600450dbd593a892445fa48d2a62a0d2864e0ea2f2dd6c2c60615008",
    "step_raw": "04c78608712a3e6ddcc020b4cb5fe82b24aa7c8bc0654b5c907dd6c412478774",
    "step_result_int8": "81380036b3384dee349d2ee861959e3248bbb4674420b3b6d3212ccad536e8c6",
    "step_result_raw": "011ca16d51a963733f70e416e2b4e2d182091ee7bb991886ba97e76252ea7b17",
}


class TestFraming:
    def test_every_kind_round_trips(self, rng):
        msgs = _all_kind_messages(rng)
        assert {m.kind for m in msgs} == set(Kind)
        for m in msgs:
            raw = encode_frame(m)
            decoded, used = decode_frame(raw)
            assert used == len(raw)
            assert decoded.kind == m.kind
            assert decoded.session_id == m.session_id
            assert encode_payload(decoded.payload) == encode_payload(m.payload)

    def test_framed_size_matches_encoding(self, rng):
        """Simulated byte counters must equal real encodings for every kind."""
        for m in _all_kind_messages(rng):
            assert framed_nbytes(m) == len(encode_frame(m))

    def test_step_payload_contents_survive(self, rng):
        h = rng.standard_normal((5, 64)).astype(np.float32)
        m = WireMessage(Step(2, HiddenBlob.from_array(h), 1, 5), 42)
        back, _ = decode_frame(encode_frame(m))
        assert np.array_equal(back.payload.blob.array(), h)
        assert back.payload.position_offset == 2

    def test_open_session_fields_survive(self):
        m = WireMessage(OpenSession(1, 3, 4, True), 5)
        back, _ = decode_frame(encode_frame(m))
        assert back.payload == OpenSession(1, 3, 4, True)

    def test_training_intervals_survive(self, rng):
        h = rng.standard_normal((5, 64)).astype(np.float32)
        for m in _all_kind_messages(rng):
            if not isinstance(m.payload, (Forward, Backward)):
                continue
            back, _ = decode_frame(encode_frame(m))
            assert (back.payload.start, back.payload.end) == (2, 6)
        back, _ = decode_frame(encode_frame(WireMessage(
            Forward(3, HiddenBlob.from_array(h), 1, 5, 0, 4, quantize_reply=True))))
        assert not back.payload.record and back.payload.quantize_reply

    def test_swp2_frames_carry_only_read_fields(self, rng):
        """SWP2 frames hold no reserved bytes and STEP_RESULT only its blob,
        and an SWP1 frame is refused for its magic."""
        h = rng.standard_normal((1, 64)).astype(np.float32)
        blob = HiddenBlob.from_array(h)
        for msg, size in ((WireMessage(OpenSession(0, 2)), 48),
                          (WireMessage(Step(0, blob, 1, 1), 7), 310),
                          (WireMessage(StepResult(blob), 7), 302)):
            assert framed_nbytes(msg) == len(encode_frame(msg)) == size
        swp1 = b"SWP1" + encode_frame(WireMessage(Ping()))[4:]
        with pytest.raises(ProtocolError, match="^bad magic$"):
            decode_frame(swp1)

    def test_frame_cap_admits_a_full_restore_and_refuses_one_byte_more(self):
        """A raw restore of ``max_seq_len`` rows at beam width 4 fits under
        ``MAX_FRAME_LEN``; a header claiming one byte more than the cap is
        refused by ``frame_len`` and ``decode_frame`` alike."""
        cfg = ModelConfig()
        blob = HiddenBlob.shape_only(4 * cfg.max_seq_len, cfg.hidden_dim)
        assert framed_nbytes(WireMessage(Restore(cfg.max_seq_len, blob, 4))) < wire.MAX_FRAME_LEN
        at_cap = wire.MAX_FRAME_LEN - wire.FRAME_OVERHEAD
        head = struct.pack("<4sB16sQ", MAGIC, Kind.PING, bytes(16), at_cap)
        assert wire.frame_len(head) == wire.MAX_FRAME_LEN
        over = struct.pack("<4sB16sQ", MAGIC, Kind.PING, bytes(16), at_cap + 1)
        for read in (wire.frame_len, decode_frame):
            with pytest.raises(ProtocolError, match="frame cap"):
                read(over)

    def test_frame_bytes_of_every_kind_are_pinned(self):
        """Frames of every kind, built from arithmetic arrays, hash to pinned
        digests: a codec entry that moves, swaps or drops a field changes its
        kind's digest."""
        h = (np.arange(5 * 64, dtype=np.float32).reshape(5, 64) - 150.0) / 16.0
        raw, q = HiddenBlob.from_array(h), HiddenBlob.from_array(h, quantized=True)
        sid = (1 << 127) | 0x0123456789abcdef
        frames = {
            "open_session": WireMessage(OpenSession(1, 7, 4, True), sid),
            "step_raw": WireMessage(Step(300, raw, 1, 5), sid),
            "step_int8": WireMessage(Step(300, q, 5, 1), sid),
            "step_result_raw": WireMessage(StepResult(raw), sid),
            "step_result_int8": WireMessage(StepResult(q), sid),
            "restore_int8": WireMessage(Restore(5, q, 1, want_outputs=False), sid),
            "reorder": WireMessage(Reorder([3, 1, 2, 2]), sid),
            "forward_raw": WireMessage(Forward(2 ** 40 + 9, raw, 1, 5, 2, 6, record=True), 5),
            "forward_int8": WireMessage(Forward(8, q, 5, 1, 0, 8, quantize_reply=True), 5),
            "backward_raw": WireMessage(Backward(2 ** 40 + 9, raw, 1, 5, 2, 6), 5),
            "ping": WireMessage(Ping()),
            "pong": WireMessage(Pong(), 6),
            "announce": WireMessage(Announce({"server_id": "s1", "address": "10.0.0.1:70",
                                              "start": 2, "end": 6, "throughput": 12.25})),
            "close": WireMessage(Close(), sid),
            "error": WireMessage(Error("desync", "positions diverged"), sid),
        }
        digests = {name: hashlib.sha256(encode_frame(m)).hexdigest()
                   for name, m in frames.items()}
        digests["close_no_reply"] = hashlib.sha256(
            encode_frame(frames["close"], reply=False)).hexdigest()
        assert {m.kind for m in frames.values()} == set(Kind)
        assert digests == _PINNED_DIGESTS

    def test_checksum_mismatch_detected(self, rng):
        raw = bytearray(encode_frame(_all_kind_messages(rng)[1]))
        raw[45] ^= 0x40
        with pytest.raises(ProtocolError, match="checksum"):
            decode_frame(bytes(raw))

    def test_bad_magic_rejected(self):
        raw = bytearray(encode_frame(WireMessage(Ping())))
        raw[0] = ord("X")
        with pytest.raises(ProtocolError, match="magic"):
            decode_frame(bytes(raw))

    def test_trailer_known_answers(self):
        """The trailer is BLAKE2b with an 8-byte digest, read little-endian."""
        assert fnv1a64(b"") == 0xb4b2797457a0a6e4
        assert fnv1a64(b"a") == 0x2f42665b399ef840
        assert encode_frame(WireMessage(Ping())).endswith(
            hashlib.blake2b(b"", digest_size=8).digest())

    def test_every_checksum_goes_through_the_tracer_hook(self, monkeypatch):
        """Tracers patch ``wire.fnv1a64`` (and ``server.fnv1a64``) by name, so
        both frame ends must checksum through that module attribute."""
        calls = []
        checksum = wire.fnv1a64
        monkeypatch.setattr(wire, "fnv1a64", lambda data: calls.append(data) or checksum(data))
        decode_frame(encode_frame(WireMessage(Ping())))
        assert len(calls) == 2
        assert server.fnv1a64 is checksum

    def test_quantized_step_halves_wire_size(self, rng):
        h = rng.standard_normal((16, 64)).astype(np.float32)
        raw = framed_nbytes(WireMessage(Step(0, HiddenBlob.from_array(h), 1, 16)))
        quant = framed_nbytes(WireMessage(Step(0, HiddenBlob.from_array(h, True), 1, 16)))
        assert quant < 0.5 * raw

    def test_quantized_blob_with_wrong_block_count_rejected(self, rng):
        enc = bytearray(HiddenBlob.from_array(rng.standard_normal((3, 8)), quantized=True).encode())
        assert HiddenBlob.decode(bytes(enc))[0].quant.n_blocks == 3
        enc[13:17] = (1).to_bytes(4, "little")      # n_blocks of a row-major cut
        with pytest.raises(ProtocolError):
            HiddenBlob.decode(bytes(enc))

    def test_synthetic_blob_sizes_match_real(self, rng):
        h = rng.standard_normal((16, 64)).astype(np.float32)
        assert (HiddenBlob.shape_only(16, 64).nbytes()
                == HiddenBlob.from_array(h).nbytes())
        assert (HiddenBlob.shape_only(16, 64, quantized=True).nbytes()
                == HiddenBlob.from_array(h, quantized=True).nbytes())
        with pytest.raises(ProtocolError):
            HiddenBlob.shape_only(4, 4).encode()

    def test_shape_only_blobs_are_shared_and_never_change(self):
        """One blob per shape, handed to every message of that shape: running
        shape-only cells must leave each one with its shape and size, and
        leave the cache within its bound."""
        assert HiddenBlob.shape_only(3, 64, True) is HiddenBlob.shape_only(3, 64, True)
        held = [HiddenBlob.shape_only(r, 64, q) for r in (1, 9) for q in (False, True)]

        def unchanged(blob, rows, cols, quantized):
            fresh = HiddenBlob(rows, cols, synthetic=True, quantize_flag=quantized)
            return ((blob.rows, blob.cols, blob.quantize_flag, blob.synthetic,
                     blob.data, blob.quant, blob.nbytes())
                    == (rows, cols, quantized, True, None, None, fresh.nbytes()))

        for strategy in (Strategy.DUAL_CACHE, Strategy.CACHELESS):
            sw = build_sim_swarm(ModelConfig(seed=0, max_seq_len=2052), seed=1,
                                 engine="timed", profile=NetProfile(1e9, 2.0, 1e-2))
            sw.client().generate([1, 2, 3, 4], 2048, strategy=strategy)
            assert 0 < len(wire._SHAPES) <= wire.SHAPE_CACHE_MAX
            assert all(unchanged(b, *key) for key, b in wire._SHAPES.items())
            assert all(unchanged(b, b.rows, 64, q)
                       for b, q in zip(held, (False, True) * 2))


def _frame(kind: int, body: bytes, session_id: int = 0) -> bytes:
    """A frame with a valid checksum around any kind byte and payload."""
    return (MAGIC + bytes([kind]) + session_id.to_bytes(16, "little")
            + len(body).to_bytes(8, "little") + body + fnv1a64(body).to_bytes(8, "little"))


_VALID = [(int(m.kind), encode_payload(m.payload))
          for m in _all_kind_messages(np.random.default_rng(0))]

# STEP fixed fields, then a raw blob header claiming 0xFFFFFFFF x 0xFFFFFFFF
# (about 2^64) floats and no data
_HUGE_BLOB_STEP = (struct.pack("<IHH", 0, 1, 1)
                   + wire._BLOB_HEADER.pack(wire.ENC_RAW, 0xFFFFFFFF, 0xFFFFFFFF))


class TestMalformedFrames:
    """A frame whose checksum holds may still be malformed; decoding it
    raises ProtocolError and nothing else."""

    @pytest.mark.parametrize("kind, body", [
        pytest.param(99, b"", id="unknown-kind"),
        pytest.param(0, b"", id="kind-zero"),
        pytest.param(Kind.STEP, b"", id="step-without-fixed-fields"),
        pytest.param(Kind.OPEN_SESSION, b"\x00" * 5, id="short-open"),
        pytest.param(Kind.REORDER, b"\x05\x00\x01\x00", id="reorder-5-slots-1-sent"),
        pytest.param(Kind.STEP, _VALID[1][1][:-4], id="blob-past-payload"),
        pytest.param(Kind.STEP, _HUGE_BLOB_STEP, id="blob-2^64-floats"),
        pytest.param(Kind.ANNOUNCE, b"{not json", id="announce-bad-json"),
        pytest.param(Kind.ANNOUNCE, b"[1, 2]", id="announce-not-an-object"),
        pytest.param(Kind.ERROR, b"\xff\xfe", id="error-not-utf8"),
        pytest.param(Kind.ERROR, b'{"detail": "x"}', id="error-without-code"),
        pytest.param(Kind.STEP, _VALID[1][1] + b"junk", id="step-trailing-bytes"),
        pytest.param(Kind.OPEN_SESSION, _VALID[0][1] + b"\x00" * 40, id="open-trailing-bytes"),
        pytest.param(Kind.PING, b"\x00", id="ping-with-payload"),
    ])
    def test_rejected_as_protocol_error(self, kind, body):
        with pytest.raises(ProtocolError):
            decode_frame(_frame(kind, body))

    def test_huge_blob_reaches_the_blob_decoder(self):
        enc, rows, cols = wire._BLOB_HEADER.unpack_from(_HUGE_BLOB_STEP, struct.calcsize("<IHH"))
        assert (enc, rows, cols) == (wire.ENC_RAW, 0xFFFFFFFF, 0xFFFFFFFF)
        with pytest.raises(ProtocolError) as e:
            decode_frame(_frame(Kind.STEP, _HUGE_BLOB_STEP))
        # the float count, rows * cols, does not fit the buffer reader's size
        assert isinstance(e.value.__cause__, OverflowError)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.sampled_from(_VALID), st.data())
    def test_mutated_frames_decode_or_raise_protocol_error(self, valid, data):
        kind, body = valid
        body = bytearray(body)
        if data.draw(st.booleans()):
            kind = data.draw(st.integers(0, 255))
        for _ in range(data.draw(st.integers(0, 3))):
            if body:
                i = data.draw(st.integers(0, len(body) - 1))
                body[i] = data.draw(st.integers(0, 255))
        body = body[:data.draw(st.integers(0, len(body)))] + data.draw(st.binary(max_size=8))
        try:
            msg, used = decode_frame(_frame(kind, bytes(body)))
        except ProtocolError:
            return
        assert isinstance(msg, WireMessage) and used == len(body) + 37 == framed_nbytes(msg)

    def test_no_reply_bit_keeps_size_and_decodes_alike(self, rng):
        for m in _all_kind_messages(rng):
            posted = encode_frame(m, reply=False)
            assert len(posted) == len(encode_frame(m)) == framed_nbytes(m)
            assert posted[4] == m.kind | NO_REPLY
            back, _ = decode_frame(posted)
            assert back.kind == m.kind and back.session_id == m.session_id
