"""Toy transformer: determinism, cache equivalence, gradients, oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swarmpipe import model as M
from swarmpipe.errors import CapacityError, ConfigurationError
from swarmpipe.model import (BlockParams, KVCache, ModelConfig, _ln, _ln_backward,
                             block_backward, block_forward_batched, init_model,
                             init_blocks, init_client_params, parameter_count,
                             params_hash, reference_beam, reference_generate)
from swarmpipe.swarm import build_sim_swarm


def _f64_params(p: BlockParams) -> dict:
    return {k: getattr(p, k).astype(np.float64) for k in
            ["wq", "wk", "wv", "wo", "w1", "w2", "ln1_g", "ln1_b", "ln2_g", "ln2_b"]}


def forward_f64(p: BlockParams, x: np.ndarray, n_heads: int) -> np.ndarray:
    """Independent float64 reference forward (textbook formulation), used as
    the finite-difference oracle. Deliberately avoids the production code."""
    w = _f64_params(p)
    t, d = x.shape
    hd = d // n_heads

    def ln(v, g, b):
        mu = v.mean(-1, keepdims=True)
        var = ((v - mu) ** 2).mean(-1, keepdims=True)
        return (v - mu) / np.sqrt(var + 1e-5) * g + b

    h = ln(x, w["ln1_g"], w["ln1_b"])
    q, k, v = h @ w["wq"], h @ w["wk"], h @ w["wv"]
    ctx = np.zeros_like(x)
    for head in range(n_heads):
        sl = slice(head * hd, (head + 1) * hd)
        scores = q[:, sl] @ k[:, sl].T / np.sqrt(hd)
        for i in range(t):
            scores[i, i + 1:] = -np.inf
        scores -= scores.max(-1, keepdims=True)
        e = np.exp(scores)
        a = e / e.sum(-1, keepdims=True)
        ctx[:, sl] = a @ v[:, sl]
    x1 = x + ctx @ w["wo"]
    h2 = ln(x1, w["ln2_g"], w["ln2_b"])
    u = np.sqrt(2 / np.pi) * (h2 @ w["w1"] + 0.044715 * (h2 @ w["w1"]) ** 3)
    g = 0.5 * (h2 @ w["w1"]) * (1 + np.tanh(u))
    return x1 + g @ w["w2"]


class TestInit:
    def test_same_seed_bit_identical(self, default_config):
        # against the cold builder: the shared weights are determined by the
        # config, not merely the same objects handed out twice
        a, ca = init_model(default_config)
        b, cb = M._build_blocks(default_config), M._build_client_params(default_config)
        for pa, pb in zip(a, b):
            for x, y in zip(pa.arrays(), pb.arrays()):
                assert np.array_equal(x, y)
        assert np.array_equal(ca.embedding, cb.embedding)

    def test_different_seed_differs(self, default_config):
        a, _ = init_model(default_config)
        b, _ = init_model(ModelConfig(seed=2))
        assert any((x != y).any() for pa, pb in zip(a, b)
                   for x, y in zip(pa.arrays(), pb.arrays()))

    def test_parameter_count_matches_layout(self, default_config):
        blocks, client = init_model(default_config)
        d = default_config.hidden_dim
        per_block = 4 * d * d + 8 * d * d + 4 * d
        assert all(p.n_params() == per_block for p in blocks)
        total = sum(p.n_params() for p in blocks) + client.n_params()
        assert total == parameter_count(default_config) == 411648

    def test_weights_within_scale(self, default_config):
        blocks, _ = init_model(default_config)
        a = 1.0 / np.sqrt(default_config.hidden_dim)
        assert abs(blocks[0].wq).max() <= a
        assert np.isfinite(blocks[0].w1).all()

    def test_qkv_projections_are_views_of_one_matrix(self, default_config):
        p = init_model(default_config)[0][0]
        d = default_config.hidden_dim
        assert p.wqkv.shape == (d, 3 * d)
        for w in (p.wq, p.wk, p.wv):
            assert w.shape == (d, d) and w.base is p.wqkv

    @pytest.mark.parametrize("kw", [dict(hidden_dim=10, n_heads=4),
                                    dict(n_blocks=0), dict(vocab_size=1)])
    def test_invalid_config_rejected(self, kw):
        with pytest.raises(ConfigurationError):
            ModelConfig(**kw)


class TestSharedWeights:
    """A config's weights are built once per process and are read-only."""

    def test_swarms_servers_and_oracle_share_one_weight_set(self, tiny_config):
        blocks, client = init_model(tiny_config)
        swarms = [build_sim_swarm(tiny_config, n_stages=1, replicas=1),
                  build_sim_swarm(tiny_config, n_stages=2)]
        for swarm in swarms:
            for srv in swarm.servers.values():
                for mine, shared in zip(srv.engine.blocks, blocks):
                    assert mine is shared and mine.wqkv is shared.wqkv
            assert swarm.client().engine.params.embedding is client.embedding
        again = init_model(tiny_config)[0]
        assert again is not blocks and all(x is y for x, y in zip(again, blocks))

    def test_every_weight_and_the_embedding_are_read_only(self, default_config):
        blocks, client = init_model(default_config)
        arrays = [a for p in blocks for a in (*vars(p).values(), *p.arrays())]
        for a in arrays + [client.embedding]:
            with pytest.raises(ValueError):
                a[...] = 0
            with pytest.raises(ValueError):
                np.add(a, 1, out=a)

    @pytest.mark.parametrize("kw", [dict(), dict(seed=3, n_blocks=3),
                                    dict(hidden_dim=12, n_heads=3, vocab_size=40, seed=7)])
    def test_shared_bits_equal_a_cold_build(self, kw):
        cfg = ModelConfig(**kw)
        blocks, client = init_model(cfg)
        assert params_hash(blocks) == params_hash(M._build_blocks(cfg))
        assert (client.embedding.tobytes()
                == M._build_client_params(cfg).embedding.tobytes())

    def test_memo_holds_at_most_its_bound(self):
        def cfg(i):
            return ModelConfig(n_blocks=1, hidden_dim=4, n_heads=1, vocab_size=2,
                               seed=640_000 + i)
        first = init_model(cfg(0))
        for i in range(1, M.WEIGHT_MEMO_MAX + 1):
            init_model(cfg(i))
        for memo in (M._shared_blocks, M._shared_client_params):
            assert memo.cache_info().currsize == M.WEIGHT_MEMO_MAX
        # the least recently used config left and is built anew; a recent one stays
        assert init_blocks(cfg(0))[0] is not first[0][0]
        assert init_client_params(cfg(0)) is not first[1]
        last = cfg(M.WEIGHT_MEMO_MAX)
        assert init_blocks(last)[0] is init_blocks(last)[0]


def _step(p: BlockParams, cache: KVCache, rows: np.ndarray) -> np.ndarray:
    """Forward ``rows`` [n, d] after ``cache``'s history and append their K/V,
    as the server and the oracles do."""
    y, k_new, v_new = block_forward_batched(p, rows[None], cache.keys, cache.values)
    cache.append(k_new, v_new)
    return y[0]


class TestForward:
    def test_single_token_shape(self, default_config):
        blocks, _ = init_model(default_config)
        cache = KVCache.empty(default_config)
        x = np.zeros((1, default_config.hidden_dim), np.float32)
        out = _step(blocks[0], cache, x)
        assert out.shape == (1, default_config.hidden_dim)
        assert cache.length == 1

    def test_stepwise_equals_full(self, default_config, rng):
        blocks, _ = init_model(default_config)
        p = blocks[0]
        t, d = 12, default_config.hidden_dim
        x = rng.standard_normal((t, d)).astype(np.float32)
        full, _, _ = block_forward_batched(
            p, x[None], np.zeros((1, 0, 4, 16), np.float32), np.zeros((1, 0, 4, 16), np.float32))
        cache = KVCache.empty(default_config)
        outs = [_step(p, cache, x[i:i + 1]) for i in range(t)]
        assert np.abs(np.concatenate(outs) - full[0]).max() < 1e-5

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(1, 5), min_size=1, max_size=5), st.integers(0, 10_000))
    def test_kv_equivalence_any_chunking(self, chunks, seed):
        cfg = ModelConfig(seed=1)
        blocks, _ = init_model(cfg)
        p = blocks[1]
        t = sum(chunks)
        x = np.random.default_rng(seed).standard_normal((t, cfg.hidden_dim)).astype(np.float32)
        full, _, _ = block_forward_batched(
            p, x[None], np.zeros((1, 0, 4, 16), np.float32), np.zeros((1, 0, 4, 16), np.float32))
        cache = KVCache.empty(cfg)
        outs, at = [], 0
        for c in chunks:
            outs.append(_step(p, cache, x[at:at + c]))
            at += c
        assert np.abs(np.concatenate(outs) - full[0]).max() < 1e-5

    def test_causality_appending_never_changes_past(self, default_config, rng):
        blocks, _ = init_model(default_config)
        p = blocks[0]
        d = default_config.hidden_dim
        x = rng.standard_normal((8, d)).astype(np.float32)
        cache = KVCache.empty(default_config)
        first = _step(p, cache, x[:5])
        frozen = first.copy()
        _step(p, cache, x[5:])
        assert np.array_equal(first, frozen)


def _ln_mean_var(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-5) * g + b


def _ln_backward_mean_var(x, g, dy):
    d = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x - mu) * inv
    dxhat = dy * g
    return inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                  - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True) / d)


class TestLayerNorm:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.sampled_from([np.float32, np.float64]), st.sampled_from([8, 64, 96]),
           st.sampled_from([(1, 1), (1, 5), (4, 1), (3, 7), (17,)]),
           st.floats(1e-3, 1e3), st.floats(-10, 10), st.integers(0, 2 ** 32 - 1))
    def test_bytes_equal_mean_var_formulation(self, dtype, d, batch, scale, shift, seed):
        rng = np.random.default_rng(seed)
        x = (rng.standard_normal(batch + (d,)) * scale + shift).astype(dtype)
        dy = rng.standard_normal(batch + (d,)).astype(dtype)
        g, b = rng.standard_normal((2, d)).astype(dtype)
        assert _ln(x, g, b).tobytes() == _ln_mean_var(x, g, b).tobytes()
        assert _ln_backward(x, g, dy).tobytes() == _ln_backward_mean_var(x, g, dy).tobytes()


class TestBackward:
    def test_zero_grad_out(self, tiny_config, rng):
        blocks, _ = init_model(tiny_config)
        x = rng.standard_normal((4, 8)).astype(np.float32)
        g = block_backward(blocks[0], x, np.zeros_like(x), tiny_config.n_heads)
        assert not g.any()

    def test_params_untouched(self, tiny_config, rng):
        blocks, _ = init_model(tiny_config)
        before = params_hash(blocks)
        x = rng.standard_normal((4, 8)).astype(np.float32)
        gy = rng.standard_normal((4, 8)).astype(np.float32)
        block_backward(blocks[0], x, gy, tiny_config.n_heads)
        assert params_hash(blocks) == before

    def test_matches_finite_differences(self, tiny_config):
        eps = 1e-3
        worst = 0.0
        for trial in range(20):
            rng = np.random.default_rng(100 + trial)
            cfg = tiny_config
            blocks, _ = init_model(ModelConfig(n_blocks=1, hidden_dim=8, n_heads=2,
                                               vocab_size=16, seed=trial))
            p = blocks[0]
            x = rng.standard_normal((4, 8)).astype(np.float32)
            gy = rng.standard_normal((4, 8)).astype(np.float32)
            got = block_backward(p, x, gy, 2)

            def loss(v):
                return float((gy.astype(np.float64) * forward_f64(p, v, 2)).sum())

            fd = np.zeros((4, 8))
            for i in range(4):
                for j in range(8):
                    up = x.astype(np.float64).copy()
                    dn = x.astype(np.float64).copy()
                    up[i, j] += eps
                    dn[i, j] -= eps
                    fd[i, j] = (loss(up) - loss(dn)) / (2 * eps)
            rel = np.abs(got - fd).max() / max(np.abs(fd).max(), 1e-12)
            worst = max(worst, rel)
        assert worst <= 1e-4, f"worst relative gradient error {worst}"


class TestReferenceGenerate:
    def test_zero_new_tokens_is_noop(self, default_config):
        assert reference_generate(default_config, [4, 5], 0) == [4, 5]

    def test_greedy_deterministic(self, default_config):
        a = reference_generate(default_config, [1, 2, 3], 16)
        b = reference_generate(default_config, [1, 2, 3], 16)
        assert a == b and len(a) == 19

    def test_seeded_sampling_reproducible(self, default_config):
        a = reference_generate(default_config, [1], 16, mode="sample", sample_seed=7)
        b = reference_generate(default_config, [1], 16, mode="sample", sample_seed=7)
        c = reference_generate(default_config, [1], 16, mode="sample", sample_seed=8)
        assert a == b
        assert a != c

    def test_empty_prefix_rejected(self, default_config):
        with pytest.raises(ConfigurationError):
            reference_generate(default_config, [], 4)

    def test_length_overflow(self):
        cfg = ModelConfig(max_seq_len=8, seed=1)
        with pytest.raises(CapacityError):
            reference_generate(cfg, [1, 2, 3], 6)


class TestKVCacheGather:
    def test_paper_reorder_example(self, default_config, rng):
        """Indices [2,2,1,3,2] over width 5: new rows are old (2,2,1,3,2);
        old 1 lands at new position 3, old 3 at new position 4."""
        cache = KVCache.empty(default_config, width=5)
        k = rng.standard_normal((5, 3, 4, 16)).astype(np.float32)
        v = rng.standard_normal((5, 3, 4, 16)).astype(np.float32)
        cache.append(k, v)
        old = cache.keys.copy()
        cache.gather([i - 1 for i in [2, 2, 1, 3, 2]])
        for new_slot, old_slot in enumerate([2, 2, 1, 3, 2]):
            assert np.array_equal(cache.keys[new_slot], old[old_slot - 1])
        assert np.array_equal(cache.keys[2], old[0])   # old 1st -> 3rd place
        assert np.array_equal(cache.keys[3], old[2])   # old 3rd -> 4th place

    def test_identity_permutation(self, default_config, rng):
        cache = KVCache.empty(default_config, width=3)
        cache.append(rng.standard_normal((3, 2, 4, 16)).astype(np.float32),
                     rng.standard_normal((3, 2, 4, 16)).astype(np.float32))
        before = cache.keys.copy()
        cache.gather([0, 1, 2])
        assert np.array_equal(cache.keys, before)

    def test_shrink_to_one(self, default_config, rng):
        cache = KVCache.empty(default_config, width=3)
        cache.append(rng.standard_normal((3, 2, 4, 16)).astype(np.float32),
                     rng.standard_normal((3, 2, 4, 16)).astype(np.float32))
        survivor = cache.values[0].copy()
        cache.gather([0])
        assert cache.width == 1
        assert np.array_equal(cache.values[0], survivor)


class TestBeamOracle:
    def test_beam_one_equals_greedy(self, default_config):
        greedy = reference_generate(default_config, [3, 1], 10)
        beams = reference_beam(default_config, [3, 1], 10, k=1)
        assert beams[0][0] == greedy

    def test_scores_ranked(self, default_config):
        beams = reference_beam(default_config, [3, 1], 8, k=4)
        scores = [s for _, s in beams]
        assert scores == sorted(scores, reverse=True)
        assert len({tuple(h) for h, _ in beams}) == 4


class TestGoldenBits:
    """Outputs pinned to the last bit, so that a rewrite of the forward
    arithmetic that moves any bit fails here, not only in the benchmark's
    fingerprints."""

    CFG = ModelConfig(seed=3)

    def test_greedy_tokens(self):
        assert reference_generate(self.CFG, [3, 1, 4, 1, 5, 9, 2, 6], 16) == [
            3, 1, 4, 1, 5, 9, 2, 6,
            225, 235, 164, 84, 225, 214, 214, 201, 201, 201, 201, 201, 201, 201, 201, 214]

    def test_beam_hypotheses_and_score_bits(self):
        got = [(h, s.hex()) for h, s in reference_beam(self.CFG, [2, 7, 1, 8], 6, 3)]
        assert got == [
            ([2, 7, 1, 8, 108, 108, 227, 24, 25, 25], "-0x1.5b51cdf7ec21bp+4"),
            ([2, 7, 1, 8, 108, 108, 227, 24, 24, 25], "-0x1.5bbd1d7b6246ap+4"),
            ([2, 7, 1, 8, 108, 108, 108, 227, 24, 25], "-0x1.5ca59f24de2dfp+4"),
        ]
