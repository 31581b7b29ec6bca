"""Block server protocol: sessions, restore, reorder, training, injection."""

import numpy as np
import pytest

from swarmpipe.directory import DirectoryBoard
from swarmpipe.errors import ConnectionFailed
from swarmpipe.model import (KVCache, ModelConfig, block_backward,
                             block_forward_batched, init_model, params_hash)
from swarmpipe.netsim import NetProfile, SimNetwork
from swarmpipe.server import (BlockServer, RealServerEngine, ServerCfg,
                              TimedServerEngine, _micro_batches)
from swarmpipe.wire import (Backward, Close, Error, Forward, HiddenBlob,
                            OpenSession, Pong, Reorder, Restore, Step, StepResult,
                            WireMessage)


@pytest.fixture()
def cfg():
    return ModelConfig(seed=1)


@pytest.fixture()
def sim(cfg):
    net = SimNetwork(seed=0, default_profile=NetProfile(rtt_ms=0.0))
    board = DirectoryBoard(cfg.n_blocks, lambda: net.clock.now)
    return net, board


def _server(net, board, cfg, start=0, capacity=4, engine=None, **kw):
    eng = engine or RealServerEngine(cfg)
    srv = BlockServer(ServerCfg(f"srv{start}", capacity, start, **kw), eng, net, board)
    net.register(srv.server_id, srv)
    return srv


def _rpc(net, srv, payload, sid=1):
    return net.rpc("cli", srv.server_id, WireMessage(payload, sid))


class TestSessions:
    def test_five_steps_match_local_stage(self, sim, cfg, rng):
        net, board = sim
        srv = _server(net, board, cfg, start=2, capacity=3)
        blocks, _ = init_model(cfg)
        _rpc(net, srv, OpenSession(2, 5))
        caches = [KVCache.empty(cfg) for _ in range(3)]
        x_all = rng.standard_normal((5, cfg.hidden_dim)).astype(np.float32)
        for i in range(5):
            res = _rpc(net, srv, Step(i, HiddenBlob.from_array(x_all[i:i + 1]), 1, 1))
            # local oracle for the same stage
            x = x_all[i:i + 1][None]
            for bi, c in zip(range(2, 5), caches):
                x, kn, vn = block_forward_batched(blocks[bi], x, c.keys, c.values)
                c.append(kn, vn)
            assert np.abs(res.payload.blob.array() - x[0]).max() < 1e-5
        assert srv.sessions[1].positions == 5
        assert all(c.length == 5 for c in srv.sessions[1].caches)

    def test_open_outside_interval_not_serving(self, sim, cfg):
        net, board = sim
        srv = _server(net, board, cfg, start=0, capacity=4)
        res = _rpc(net, srv, OpenSession(2, 5))
        assert isinstance(res.payload, Error) and res.payload.code == "not_serving"

    def test_position_desync(self, sim, cfg, rng):
        net, board = sim
        srv = _server(net, board, cfg)
        _rpc(net, srv, OpenSession(0, 4))
        blob = HiddenBlob.from_array(rng.standard_normal((1, 64)).astype(np.float32))
        res = _rpc(net, srv, Step(3, blob, 1, 1))
        assert isinstance(res.payload, Error) and res.payload.code == "desync"

    def test_session_ttl_expires(self, sim, cfg, rng):
        net, board = sim
        srv = _server(net, board, cfg, session_ttl_s=100.0)
        _rpc(net, srv, OpenSession(0, 4))
        net.clock.advance(101.0)
        blob = HiddenBlob.from_array(rng.standard_normal((1, 64)).astype(np.float32))
        res = _rpc(net, srv, Step(0, blob, 1, 1))
        assert isinstance(res.payload, Error) and res.payload.code == "expired"

    def test_close_discards_state(self, sim, cfg):
        net, board = sim
        srv = _server(net, board, cfg)
        _rpc(net, srv, OpenSession(0, 4))
        assert srv.sessions
        _rpc(net, srv, Close())
        assert not srv.sessions

    def test_interleaved_sessions_isolated(self, sim, cfg, rng):
        """Two interleaved sessions produce exactly what serial runs produce."""
        net, board = sim
        srv = _server(net, board, cfg)
        xa = rng.standard_normal((6, cfg.hidden_dim)).astype(np.float32)
        xb = rng.standard_normal((6, cfg.hidden_dim)).astype(np.float32)

        def run(sid, xs, order):
            outs = []
            _rpc(net, srv, OpenSession(0, 4), sid=sid)
            for i in order:
                res = _rpc(net, srv, Step(i, HiddenBlob.from_array(xs[i:i + 1]), 1, 1),
                           sid=sid)
                outs.append(res.payload.blob.array())
            return np.concatenate(outs)

        serial_a = run(10, xa, range(6))
        serial_b = run(11, xb, range(6))
        # interleaved replay on fresh sessions
        _rpc(net, srv, OpenSession(0, 4), sid=20)
        _rpc(net, srv, OpenSession(0, 4), sid=21)
        inter = {20: [], 21: []}
        for i in range(6):
            for sid, xs in ((20, xa), (21, xb)):
                res = _rpc(net, srv, Step(i, HiddenBlob.from_array(xs[i:i + 1]), 1, 1),
                           sid=sid)
                inter[sid].append(res.payload.blob.array())
        assert np.array_equal(np.concatenate(inter[20]), serial_a)
        assert np.array_equal(np.concatenate(inter[21]), serial_b)


class TestRestore:
    def test_restore_then_continue_matches_uninterrupted(self, sim, cfg, rng):
        net, board = sim
        srv = _server(net, board, cfg)
        x = rng.standard_normal((11, cfg.hidden_dim)).astype(np.float32)
        # uninterrupted run
        _rpc(net, srv, OpenSession(0, 4), sid=1)
        direct = [
            _rpc(net, srv, Step(i, HiddenBlob.from_array(x[i:i + 1]), 1, 1), sid=1)
            .payload.blob.array() for i in range(11)]
        # restore-at-10 run
        _rpc(net, srv, OpenSession(0, 4), sid=2)
        _rpc(net, srv, Restore(10, HiddenBlob.from_array(x[:10]), 1), sid=2)
        res = _rpc(net, srv, Step(10, HiddenBlob.from_array(x[10:11]), 1, 1), sid=2)
        assert np.abs(res.payload.blob.array() - direct[10]).max() < 1e-5

    def test_restore_empty_history_is_fresh(self, sim, cfg, rng):
        net, board = sim
        srv = _server(net, board, cfg)
        _rpc(net, srv, OpenSession(0, 4), sid=3)
        res = _rpc(net, srv, Restore(0, HiddenBlob.shape_only(0, 64), 1), sid=3)
        assert isinstance(res.payload, StepResult)
        assert srv.sessions[3].positions == 0

    def test_restore_request_bytes_are_t_times_hidden(self, sim, cfg, rng):
        net, board = sim
        srv = _server(net, board, cfg)
        _rpc(net, srv, OpenSession(0, 4), sid=4)
        t = 10
        before = net.links[("cli", srv.server_id)].bytes
        blob = HiddenBlob.from_array(rng.standard_normal((t, 64)).astype(np.float32))
        _rpc(net, srv, Restore(t, blob, 1, want_outputs=False), sid=4)
        sent = net.links[("cli", srv.server_id)].bytes - before
        assert abs(sent - t * 64 * 4) < 64   # payload plus framing slop

    def test_capacity_guard(self, sim, cfg):
        net, board = sim
        srv = _server(net, board, cfg)
        _rpc(net, srv, OpenSession(0, 4), sid=5)
        res = _rpc(net, srv, Restore(cfg.max_seq_len + 1,
                                     HiddenBlob.shape_only(0, 64), 1), sid=5)
        assert isinstance(res.payload, Error) and res.payload.code == "capacity"


class TestReorder:
    def test_paper_indices_example(self, sim, cfg, rng):
        net, board = sim
        srv = _server(net, board, cfg)
        _rpc(net, srv, OpenSession(0, 4, width=5), sid=6)
        x = rng.standard_normal((5, cfg.hidden_dim)).astype(np.float32)
        _rpc(net, srv, Step(0, HiddenBlob.from_array(x), 5, 1), sid=6)
        old = [c.keys.copy() for c in srv.sessions[6].caches]
        res = _rpc(net, srv, Reorder([2, 2, 1, 3, 2]), sid=6)
        assert isinstance(res.payload, Pong)
        for before, cache in zip(old, srv.sessions[6].caches):
            for new_slot, old_slot in enumerate([2, 2, 1, 3, 2]):
                assert np.array_equal(cache.keys[new_slot], before[old_slot - 1])

    def test_out_of_range_index(self, sim, cfg):
        net, board = sim
        srv = _server(net, board, cfg)
        _rpc(net, srv, OpenSession(0, 4, width=2), sid=7)
        res = _rpc(net, srv, Reorder([3]), sid=7)
        assert isinstance(res.payload, Error) and res.payload.code == "bad_index"

    def test_widening_from_prefill(self, sim, cfg, rng):
        net, board = sim
        srv = _server(net, board, cfg)
        _rpc(net, srv, OpenSession(0, 4, width=1), sid=8)
        x = rng.standard_normal((3, cfg.hidden_dim)).astype(np.float32)
        _rpc(net, srv, Step(0, HiddenBlob.from_array(x), 1, 3), sid=8)
        _rpc(net, srv, Reorder([1, 1, 1, 1]), sid=8)
        s = srv.sessions[8]
        assert s.width == 4
        assert all(c.width == 4 and c.length == 3 for c in s.caches)


class TestTraining:
    def test_forward_backward_matches_local(self, sim, cfg, rng):
        net, board = sim
        srv = _server(net, board, cfg, start=1, capacity=3)
        blocks, _ = init_model(cfg)
        x = rng.standard_normal((2, 4, cfg.hidden_dim)).astype(np.float32)
        gy = rng.standard_normal((2, 4, cfg.hidden_dim)).astype(np.float32)
        before = params_hash(blocks)

        fwd = _rpc(net, srv, Forward(1, HiddenBlob.from_array(x.reshape(8, -1)),
                                     2, 4, 1, 4, record=True), sid=9)
        bwd = _rpc(net, srv, Backward(1, HiddenBlob.from_array(gy.reshape(8, -1)),
                                      2, 4, 1, 4), sid=9)
        got_y = fwd.payload.blob.array().reshape(2, 4, -1)
        got_g = bwd.payload.blob.array().reshape(2, 4, -1)

        # local oracle over the same stage
        y = x
        per_block = []
        for bi in range(1, 4):
            per_block.append(y)
            y, _, _ = block_forward_batched(
                blocks[bi], y, np.zeros((2, 0, 4, 16), np.float32),
                np.zeros((2, 0, 4, 16), np.float32))
        g = gy
        for bi, xin in zip(reversed(range(1, 4)), reversed(per_block)):
            g = block_backward(blocks[bi], xin, g, 4)
        assert np.abs(got_y - y).max() < 1e-5
        assert np.abs(got_g - g).max() < 1e-5
        assert params_hash(srv.engine.blocks) == before

    def test_backward_without_forward_errors(self, sim, cfg, rng):
        net, board = sim
        srv = _server(net, board, cfg)
        g = HiddenBlob.from_array(rng.standard_normal((4, 64)).astype(np.float32))
        res = _rpc(net, srv, Backward(77, g, 1, 4, 0, 4), sid=10)
        assert isinstance(res.payload, Error) and res.payload.code == "no_record"

    def test_training_pass_runs_only_the_asked_blocks(self, sim, cfg, rng):
        """A pass over part of the span runs exactly those blocks; blocks the
        server does not hold are refused, and a backward needs the forward of
        the same interval."""
        net, board = sim
        srv = _server(net, board, cfg, start=0, capacity=4)
        blocks, _ = init_model(cfg)
        x = rng.standard_normal((1, 4, cfg.hidden_dim)).astype(np.float32)
        blob = HiddenBlob.from_array(x.reshape(4, -1))
        y = _rpc(net, srv, Forward(1, blob, 1, 4, 1, 3, record=True), sid=12)
        want = x
        for bi in (1, 2):
            want, _, _ = block_forward_batched(
                blocks[bi], want, np.zeros((1, 0, 4, 16), np.float32),
                np.zeros((1, 0, 4, 16), np.float32))
        assert np.abs(y.payload.blob.array() - want[0]).max() < 1e-5
        g = HiddenBlob.from_array(rng.standard_normal((4, 64)).astype(np.float32))
        assert _rpc(net, srv, Backward(1, g, 1, 4, 0, 4), sid=12).payload.code == "no_record"
        assert isinstance(_rpc(net, srv, Backward(1, g, 1, 4, 1, 3), sid=12).payload,
                          StepResult)
        for payload in (Forward(2, blob, 1, 4, 2, 6), Backward(1, g, 1, 4, 3, 5)):
            res = _rpc(net, srv, payload, sid=12)
            assert isinstance(res.payload, Error) and res.payload.code == "not_serving"

    def test_forward_replay_dedup(self, sim, cfg, rng):
        net, board = sim
        srv = _server(net, board, cfg)
        x = HiddenBlob.from_array(rng.standard_normal((4, 64)).astype(np.float32))
        a = _rpc(net, srv, Forward(5, x, 1, 4, 0, 4), sid=11)
        handled = srv.handled
        b = _rpc(net, srv, Forward(5, x, 1, 4, 0, 4), sid=11)
        assert np.array_equal(a.payload.blob.array(), b.payload.blob.array())
        assert srv.handled == handled + 1   # replayed, not recomputed
        c = _rpc(net, srv, Forward(5, x, 1, 4, 0, 2), sid=11)   # same req_id, other blocks
        assert not np.array_equal(a.payload.blob.array(), c.payload.blob.array())

    def test_micro_batch_split_preserves_results(self, sim, cfg, rng):
        blocks, _ = init_model(cfg)
        eng = RealServerEngine(cfg, blocks)
        x = rng.standard_normal((4, 512, cfg.hidden_dim)).astype(np.float32)
        blob = HiddenBlob.from_array(x.reshape(-1, cfg.hidden_dim))
        whole = eng.forward(0, 2, blob, 4, 512, micro_batch_tokens=10**9, record=None)
        split = eng.forward(0, 2, blob, 4, 512, micro_batch_tokens=1024, record=None)
        assert np.array_equal(whole.array(), split.array())
        assert [c for c in _micro_batches(4, 512, 1024)] == [slice(0, 2), slice(2, 4)]

    def test_concurrent_clients_isolated(self, sim, cfg, rng):
        net, board = sim
        srv = _server(net, board, cfg)
        xa = rng.standard_normal((1, 4, 64)).astype(np.float32)
        xb = rng.standard_normal((1, 4, 64)).astype(np.float32)
        g = rng.standard_normal((1, 4, 64)).astype(np.float32)
        _rpc(net, srv, Forward(1, HiddenBlob.from_array(xa.reshape(4, -1)), 1, 4, 0, 4,
                               record=True), sid=100)
        _rpc(net, srv, Forward(1, HiddenBlob.from_array(xb.reshape(4, -1)), 1, 4, 0, 4,
                               record=True), sid=200)
        ga = _rpc(net, srv, Backward(1, HiddenBlob.from_array(g.reshape(4, -1)),
                                     1, 4, 0, 4), sid=100).payload.blob.array()
        gb = _rpc(net, srv, Backward(1, HiddenBlob.from_array(g.reshape(4, -1)),
                                     1, 4, 0, 4), sid=200).payload.blob.array()
        assert not np.array_equal(ga, gb)


class TestMisshapedActivations:
    """Activations whose rows or columns disagree with what the message
    declares get a protocol error, and the session is left as it was."""

    @staticmethod
    def _request(kind, blob):
        # each declares 2 x 3 = 6 rows; req_id 2 is not the recorded forward's
        return {"step": Step(0, blob, 2, 3), "restore": Restore(3, blob, 2),
                "forward": Forward(2, blob, 2, 3, 0, 4),
                "backward": Backward(1, blob, 2, 3, 0, 4)}[kind]

    @pytest.mark.parametrize("kind", ["step", "restore", "forward", "backward"])
    @pytest.mark.parametrize("shape", [(7, 64), (6, 65)], ids=["rows", "cols"])
    def test_refused_with_protocol_error(self, sim, cfg, rng, kind, shape):
        net, board = sim
        srv = _server(net, board, cfg)
        good = HiddenBlob.from_array(rng.standard_normal((6, cfg.hidden_dim)).astype(np.float32))
        _rpc(net, srv, OpenSession(0, 4, width=2))
        _rpc(net, srv, Forward(1, good, 2, 3, 0, 4, record=True))
        bad = HiddenBlob.from_array(rng.standard_normal(shape).astype(np.float32))
        res = _rpc(net, srv, self._request(kind, bad))
        assert isinstance(res.payload, Error) and res.payload.code == "protocol"
        assert isinstance(_rpc(net, srv, Step(0, good, 2, 3)).payload, StepResult)

    def test_shape_only_blobs_are_checked(self, sim, cfg):
        net, board = sim
        srv = _server(net, board, cfg, engine=TimedServerEngine(cfg))
        _rpc(net, srv, OpenSession(0, 4))
        res = _rpc(net, srv, Step(0, HiddenBlob.shape_only(2, 64), 1, 1))
        assert isinstance(res.payload, Error) and res.payload.code == "protocol"
        assert srv.sessions[1].positions == 0


class TestInjection:
    def test_crash_after_messages(self, sim, cfg):
        net, board = sim
        srv = _server(net, board, cfg, crash_after_messages=2)
        _rpc(net, srv, OpenSession(0, 4), sid=12)
        _rpc(net, srv, Restore(0, HiddenBlob.shape_only(0, 64), 1), sid=12)
        with pytest.raises(ConnectionFailed):
            _rpc(net, srv, Restore(0, HiddenBlob.shape_only(0, 64), 1), sid=12)
        assert not net.online(srv.server_id)

    def test_compute_time_charged(self, cfg):
        net = SimNetwork(seed=0, default_profile=NetProfile(rtt_ms=0.0))
        board = DirectoryBoard(cfg.n_blocks, lambda: net.clock.now)
        srv = _server(net, board, cfg, capacity=2,
                      engine=TimedServerEngine(cfg))
        _rpc(net, srv, OpenSession(0, 2), sid=13)
        t0 = net.clock.now
        _rpc(net, srv, Step(0, HiddenBlob.shape_only(1, 64), 1, 1), sid=13)
        # 2 blocks x 10 ms, plus a few microseconds on the 1 Gbit/s wire
        assert net.clock.now - t0 == pytest.approx(0.020, abs=1e-4)
        t0 = net.clock.now
        _rpc(net, srv, Step(1, HiddenBlob.shape_only(64, 64), 1, 64), sid=13)
        assert net.clock.now - t0 == pytest.approx(2 * (0.010 + 0.0005 * 64), abs=1e-3)


class TestSelfMeasure:
    def test_min_of_net_and_compute(self, sim, cfg):
        net, board = sim
        fast_net = _server(net, board, cfg, start=0, capacity=2,
                           compute_tokens_per_s=40.0, net_tokens_per_s=100.0)
        assert fast_net.self_measure() == pytest.approx(40.0)
        slow_net = _server(net, board, cfg, start=2, capacity=2,
                           compute_tokens_per_s=500.0, net_tokens_per_s=5.0)
        assert slow_net.self_measure() == pytest.approx(5.0)
