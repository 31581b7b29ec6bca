"""Wire codec: blockwise int8 quantization and frame round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swarmpipe.errors import ProtocolError
from swarmpipe.quantize import dequantize_hidden, quantize_hidden
from swarmpipe.wire import (MAGIC, NO_REPLY, Announce, Backward, Close, Error, Forward,
                            HiddenBlob, Kind, OpenSession, Ping, Pong, Reorder, Restore,
                            Step, StepResult, WireMessage, decode_frame, encode_frame,
                            encode_payload, fnv1a64, framed_nbytes, payload_nbytes)


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

    def test_encoded_size_under_half(self, rng):
        h = rng.standard_normal((32, 64)).astype(np.float32)
        q = quantize_hidden(h)
        assert q.encoded_nbytes() < 0.5 * h.nbytes

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
        WireMessage(StepResult(11, HiddenBlob.from_array(h, quantized=True), 1, 5), 3),
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

    def test_reserved_fields_keep_frame_sizes(self, rng):
        """OPEN_SESSION and STEP keep their reserved words, so every simulated
        byte count stays what it was when those words carried data."""
        assert len(encode_frame(WireMessage(OpenSession(0, 2)))) == 60
        h = rng.standard_normal((1, 64)).astype(np.float32)
        step = WireMessage(Step(0, HiddenBlob.from_array(h), 1, 1), 7)
        assert len(encode_frame(step)) == framed_nbytes(step) == 318

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

    def test_fnv_reference_vectors(self):
        # standard FNV-1a 64 test values
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C

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


def _frame(kind: int, body: bytes, session_id: int = 0) -> bytes:
    """A frame with a valid checksum around any kind byte and payload."""
    return (MAGIC + bytes([kind]) + session_id.to_bytes(16, "little")
            + len(body).to_bytes(8, "little") + body + fnv1a64(body).to_bytes(8, "little"))


_VALID = [(int(m.kind), encode_payload(m.payload))
          for m in _all_kind_messages(np.random.default_rng(0))]


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
        pytest.param(Kind.STEP, _VALID[1][1][:16] + b"\xff" * 8, id="blob-2^64-floats"),
        pytest.param(Kind.ANNOUNCE, b"{not json", id="announce-bad-json"),
        pytest.param(Kind.ANNOUNCE, b"[1, 2]", id="announce-not-an-object"),
        pytest.param(Kind.ERROR, b"\xff\xfe", id="error-not-utf8"),
        pytest.param(Kind.ERROR, b'{"detail": "x"}', id="error-without-code"),
    ])
    def test_rejected_as_protocol_error(self, kind, body):
        with pytest.raises(ProtocolError):
            decode_frame(_frame(kind, body))

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
        assert isinstance(msg, WireMessage) and used == len(body) + 37

    def test_no_reply_bit_keeps_size_and_decodes_alike(self, rng):
        for m in _all_kind_messages(rng):
            posted = encode_frame(m, reply=False)
            assert len(posted) == len(encode_frame(m)) == framed_nbytes(m)
            assert posted[4] == m.kind | NO_REPLY
            back, _ = decode_frame(posted)
            assert back.kind == m.kind and back.session_id == m.session_id
