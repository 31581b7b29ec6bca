"""Fine-tuning through the swarm: gradients, retries, parameter hygiene."""

import numpy as np
import pytest

from swarmpipe.client import FinetuneSession
from swarmpipe.model import ModelConfig, block_backward, init_model, params_hash
from swarmpipe.netsim import NetProfile
from swarmpipe.swarm import build_sim_swarm


@pytest.fixture(scope="module")
def cfg():
    return ModelConfig(seed=1)


def _copy_task(rng, n, t, n_labels):
    batch = rng.integers(0, 256, (n, t))
    return batch, (batch[:, -1] % n_labels).astype(np.intp)


def test_loss_decreases_on_copy_task(cfg):
    swarm = build_sim_swarm(cfg, seed=0)
    ft = FinetuneSession(swarm.client(), n_labels=8, prompt_len=4, lr=0.3, init_seed=0)
    rng = np.random.default_rng(0)
    batch, labels = _copy_task(rng, 24, 6, 8)
    for _ in range(60):
        ft.step(batch, labels)
    assert ft.loss_curve[-1] < ft.loss_curve[0]
    assert ft.loss_curve[-1] < 0.5


def test_gradients_match_local_backprop(cfg, rng):
    """Soft-prompt gradient through the swarm equals single-process backprop."""
    swarm = build_sim_swarm(cfg, seed=0)
    client = swarm.client()
    ft = FinetuneSession(client, n_labels=8, prompt_len=2, lr=0.0, init_seed=1)
    batch, labels = _copy_task(rng, 3, 4, 8)
    loss, g_prompt, g_head = ft._one_pass(batch, labels, req_id=999)

    blocks, _ = init_model(cfg)
    B, T = batch.shape
    P, d = 2, cfg.hidden_dim
    x = np.empty((B, P + T, d), np.float32)
    x[:, :P, :] = ft.soft_prompt
    x[:, P:, :] = client.engine.params.embedding[batch]
    from swarmpipe.model import block_forward_batched
    h = x
    per_block = []
    for p in blocks:
        per_block.append(h)
        h, _, _ = block_forward_batched(
            p, h, np.zeros((B, 0, 4, 16), np.float32), np.zeros((B, 0, 4, 16), np.float32))
    h_last = h[:, -1, :].astype(np.float64)
    z = h_last @ ft.head.astype(np.float64)
    z -= z.max(-1, keepdims=True)
    probs = np.exp(z) / np.exp(z).sum(-1, keepdims=True)
    want_loss = float(-np.log(probs[np.arange(B), labels]).mean())
    dlogits = probs
    dlogits[np.arange(B), labels] -= 1.0
    dlogits /= B
    g = np.zeros((B, P + T, d), np.float32)
    g[:, -1, :] = (dlogits @ ft.head.T.astype(np.float64)).astype(np.float32)
    for p, xin in zip(reversed(blocks), reversed(per_block)):
        g = block_backward(p, xin, g, 4)
    want_prompt = g[:, :P, :].sum(axis=0)

    assert loss == pytest.approx(want_loss, abs=1e-6)
    assert np.abs(g_prompt - want_prompt).max() < 1e-5


def test_retries_reproduce_failure_free_run(cfg):
    """Identical data stream, p=0 vs p=0.01: final parameters within 1e-5."""
    def train(p, seed):
        swarm = build_sim_swarm(cfg, seed=seed, profile=NetProfile(failure_prob=p))
        ft = FinetuneSession(swarm.client(), n_labels=8, prompt_len=4, lr=0.3,
                             init_seed=0)
        rng = np.random.default_rng(42)
        batch, labels = _copy_task(rng, 16, 6, 8)
        for _ in range(40):
            ft.step(batch, labels)
        return ft

    clean = train(0.0, 0)
    faulty = train(0.01, 7)
    assert faulty.counters.repeats > 0
    assert np.abs(clean.soft_prompt - faulty.soft_prompt).max() < 1e-5
    assert np.abs(clean.head - faulty.head).max() < 1e-5
    assert clean.loss_curve == pytest.approx(faulty.loss_curve)


def test_crashed_server_fails_over_to_replica(cfg):
    """A pass that meets a crashed server bans it and repeats once on its
    replica."""
    swarm = build_sim_swarm(cfg, seed=0)
    client = swarm.client()
    assert "s1a" in [h.server_id for h in client._route_chain(0, 8, None).hops]
    swarm.net.set_crashed("s1a")
    ft = FinetuneSession(client, n_labels=8, prompt_len=4, lr=0.3, init_seed=0)
    batch, labels = _copy_task(np.random.default_rng(0), 4, 6, 8)
    assert np.isfinite(ft.step(batch, labels))
    assert ft.counters.repeats == 1
    assert client.bans.is_banned("s1a")


def test_server_params_frozen_through_training(cfg):
    swarm = build_sim_swarm(cfg, seed=0)
    hashes = {sid: params_hash(s.engine.blocks) for sid, s in swarm.servers.items()}
    ft = FinetuneSession(swarm.client(), n_labels=8, prompt_len=4, lr=0.3, init_seed=0)
    rng = np.random.default_rng(1)
    batch, labels = _copy_task(rng, 8, 6, 8)
    for _ in range(10):
        ft.step(batch, labels)
    for sid, s in swarm.servers.items():
        assert params_hash(s.engine.blocks) == hashes[sid]


def test_two_clients_do_not_interfere(cfg):
    swarm = build_sim_swarm(cfg, seed=0)
    ft_a = FinetuneSession(swarm.client(), n_labels=8, prompt_len=4, lr=0.3, init_seed=0)
    ft_b = FinetuneSession(swarm.client(), n_labels=8, prompt_len=4, lr=0.3, init_seed=5)
    rng_a, rng_b = np.random.default_rng(1), np.random.default_rng(2)
    ba, la = _copy_task(rng_a, 8, 6, 8)
    bb, lb = _copy_task(rng_b, 8, 6, 8)
    # interleaved steps on the same swarm
    for _ in range(6):
        ft_a.step(ba, la)
        ft_b.step(bb, lb)

    # ft_a alone on a fresh identical swarm
    swarm2 = build_sim_swarm(cfg, seed=0)
    ft_solo = FinetuneSession(swarm2.client(), n_labels=8, prompt_len=4, lr=0.3,
                              init_seed=0)
    for _ in range(6):
        ft_solo.step(ba, la)
    assert np.array_equal(ft_a.soft_prompt, ft_solo.soft_prompt)
    assert np.array_equal(ft_a.head, ft_solo.head)
