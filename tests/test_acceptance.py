"""Acceptance suite: the eleven gate criteria, one test each, and a pin of
the failure-rate grid's record files.

Every test prints one machine-greppable verdict line. Tolerances are pinned
here, not configurable. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import hashlib
import time
from pathlib import Path

import numpy as np
import pytest

from swarmpipe.balancer import (choose_start, greedy_swarm_assignment,
                                optimal_assignment_bruteforce)
from swarmpipe.bench import (ChurnStudySpec, ExperimentSpec, estimate_offload_bound,
                             run_failure_rate_cell, run_load_balance_experiment,
                             write_records)
from swarmpipe.client import FinetuneSession, Strategy
from swarmpipe.model import (KVCache, ModelConfig, block_backward,
                             init_model, params_hash, reference_beam,
                             reference_generate)
from swarmpipe.netsim import NetProfile
from swarmpipe.quantize import dequantize_hidden, quantize_hidden
from swarmpipe.router import RoutingGraph, ServerRoute
from swarmpipe.swarm import build_sim_swarm

from test_model import forward_f64
from test_router import dijkstra_cost


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


# -------------------------------------------------------------------------
# 1. semantics preservation
# -------------------------------------------------------------------------

def test_01_semantics_preservation():
    cfg = ModelConfig()   # d=64, 8 blocks
    oracle = reference_generate(cfg, [3, 1, 4], 256)
    t0 = time.perf_counter()
    matched = total = 0
    plan = [(0.0, range(17)), (1e-3, range(100, 117)), (1e-2, range(200, 216))]
    for p, seeds in plan:
        for seed in seeds:
            swarm = build_sim_swarm(cfg, n_stages=4, replicas=2, seed=seed,
                                    profile=NetProfile(failure_prob=p))
            res = swarm.client().generate([3, 1, 4], 256,
                                          strategy=Strategy.DUAL_CACHE)
            matched += res.tokens == oracle
            total += 1
    wall = time.perf_counter() - t0
    _verdict(1, matched == total == 50 and wall < 120,
             f"distributed greedy == oracle in {matched}/{total} runs "
             f"(p in 0/1e-3/1e-2) in {wall:.0f}s")


# -------------------------------------------------------------------------
# 2. failure-rate grid patterns
# -------------------------------------------------------------------------

@pytest.fixture(scope="module")
def failure_grid():
    spec = ExperimentSpec("failure-rate", seed=0)
    cells = {}
    for strategy in Strategy:
        for length in spec.lengths:
            for p in spec.failure_rates:
                cells[(strategy, length, p)] = run_failure_rate_cell(
                    spec, p, length, strategy)
    return spec, cells


def test_02_failure_rate_patterns(failure_grid):
    spec, cells = failure_grid
    # (a) cache-less rate varies < 2% across p at fixed length
    spreads = []
    for length in spec.lengths:
        rates = [cells[(Strategy.CACHELESS, length, p)].steps_per_s
                 for p in spec.failure_rates]
        assert all(r is not None for r in rates)
        spreads.append((max(rates) - min(rates)) / np.mean(rates))
    a_ok = max(spreads) < 0.02
    # (b) restart never finishes 1024 tokens at p = 1e-2
    b_ok = not cells[(Strategy.RESTART, 1024, 1e-2)].completed
    # (c) dual cache completes everywhere; at p=0 it sits between the others
    c_ok = all(cells[(Strategy.DUAL_CACHE, length, p)].completed
               for length in spec.lengths for p in spec.failure_rates)
    for length in spec.lengths:
        lo = cells[(Strategy.CACHELESS, length, 0.0)].steps_per_s
        mid = cells[(Strategy.DUAL_CACHE, length, 0.0)].steps_per_s
        hi = cells[(Strategy.RESTART, length, 0.0)].steps_per_s
        c_ok = c_ok and (lo < mid < hi)
    _verdict(2, a_ok and b_ok and c_ok,
             f"cacheless spread {max(spreads):.2%} < 2%; restart(1e-2,1024) "
             f"incomplete={b_ok}; dual completes 15/15 and is strictly between "
             f"baselines at p=0")


def test_02_grid_files_are_pinned(failure_grid, tmp_path):
    """The seed-0 grid's record files, byte for byte. Its long restart cells
    deal thousands of drops, so this pin shows how a long run's drops fall,
    which the 64-step golden cells cannot."""
    _, cells = failure_grid
    jsonl, csv_path = write_records(list(cells.values()), str(tmp_path / "grid.jsonl"))
    digests = [hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in (jsonl, csv_path)]
    assert digests == ["56f3586e4f78ce9e1ec0947f0abb606a1386f72beef878ee3f8a9e5daadcccca",
                       "b7808da331b327604ef6539673912743e869ade723699574d0b5ee45df84b2a8"]


# -------------------------------------------------------------------------
# 3. communication complexity
# -------------------------------------------------------------------------

def test_03_communication_complexity():
    cfg = ModelConfig()
    # dual cache: per-token step bytes flat in t
    swarm = build_sim_swarm(cfg, seed=0, engine="timed")
    res = swarm.client().generate([1], 1024, strategy=Strategy.DUAL_CACHE)
    per = np.array(res.counters.per_step_bytes[1:], dtype=float)
    slope = np.polyfit(np.arange(per.size), per, 1)[0]
    flat_ok = abs(slope) * per.size <= 0.01 * per.mean()
    # cache-less: cumulative bytes quadratic in t
    swarm = build_sim_swarm(cfg, seed=0, engine="timed")
    res = swarm.client().generate([1], 1024, strategy=Strategy.CACHELESS)
    cum = np.cumsum(res.counters.per_step_bytes, dtype=float)
    t = np.arange(1, cum.size + 1, dtype=float)
    fit = np.polyfit(t, cum, 2)
    r2 = 1 - ((cum - np.polyval(fit, t)) ** 2).sum() / ((cum - cum.mean()) ** 2).sum()
    quad_ok = r2 >= 0.999
    # recovery transfers exactly the failed stage's history
    swarm = build_sim_swarm(cfg, seed=3, profile=NetProfile(failure_prob=1e-2))
    res = swarm.client().generate([3, 1, 4], 256)
    rec_ok = (len(res.counters.restore_events) > 0 and
              all(nbytes == t_fail * cfg.hidden_dim * 4
                  for (_, _, t_fail, nbytes) in res.counters.restore_events))
    _verdict(3, flat_ok and quad_ok and rec_ok,
             f"dual step bytes flat (slope*range/mean={abs(slope)*per.size/per.mean():.2e}); "
             f"cacheless cumulative R^2={r2:.6f}; "
             f"{len(res.counters.restore_events)} recoveries all t*hidden*4 exact")


# -------------------------------------------------------------------------
# 4. placement rule equals exhaustive enumeration
# -------------------------------------------------------------------------

def test_04_placement_rule_exhaustive():
    rng = np.random.default_rng(4)
    agree = 0
    trials = 10_000
    for _ in range(trials):
        n_blocks = int(rng.integers(1, 33))
        capacity = int(rng.integers(1, n_blocks + 1))
        loads = list(rng.uniform(0, 100, n_blocks))
        got = choose_start(n_blocks, capacity, loads)
        keys = [sorted(loads[s:s + capacity])
                for s in range(n_blocks - capacity + 1)]
        want = min(range(len(keys)), key=lambda s: (keys[s], s))
        agree += got == want
    _verdict(4, agree == trials, f"choose_start == enumeration on {agree}/{trials}")


# -------------------------------------------------------------------------
# 5. greedy within 90% of the exact optimum
# -------------------------------------------------------------------------

def test_05_greedy_quality():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    ratios = []
    for _ in range(1000):
        while True:
            n = int(rng.integers(2, 9))
            servers = [(int(rng.integers(1, 7)), float(rng.uniform(0, 100)))
                       for _ in range(n)]
            if sum(min(c, 12) for c, _ in servers) >= 12:
                break
        _, opt = optimal_assignment_bruteforce(servers, 12)
        _, greedy = greedy_swarm_assignment(servers, 12)
        assert greedy <= opt + 1e-9
        ratios.append(greedy / opt if opt > 0 else 1.0)
    wall = time.perf_counter() - t0
    med = float(np.median(ratios))
    _verdict(5, med >= 0.90 and wall < 300,
             f"median greedy/optimal = {med:.3f} over 1000 instances in {wall:.0f}s")


# -------------------------------------------------------------------------
# 6. load-balance study patterns
# -------------------------------------------------------------------------

def test_06_load_balance_patterns():
    res = run_load_balance_experiment(ChurnStudySpec(seed=2))
    none_zero = np.mean([m.throughput["none"] == 0 for m in res.minutes])
    feas_ok = all(m.throughput["full_p20"] > 0 for m in res.minutes if m.feasible)
    p1 = res.total_replacements("full_p1")
    p20 = res.total_replacements("full_p20")
    ub = res.series("upper")
    full = res.series("full_p20")
    near = np.mean([full[i] >= 0.75 * ub[i] for i in range(len(ub)) if ub[i] > 0])
    _verdict(6, none_zero > 0.5 and feas_ok and p1 > p20 and near >= 0.8,
             f"no-balancing zero {none_zero:.0%} of minutes; full balancing "
             f"positive whenever feasible={feas_ok}; replacements p1={p1} > "
             f"p20={p20}; within 25% of upper bound {near:.0%} of minutes")


# -------------------------------------------------------------------------
# 7. incremental routing equals fresh recomputation
# -------------------------------------------------------------------------

def test_07_router_equivalence():
    rng = np.random.default_rng(7)
    n_blocks = 12
    g = RoutingGraph(n_blocks)
    pool: dict[str, ServerRoute] = {}
    agree = 0
    for _ in range(1000):
        op = rng.random()
        if op < 0.45 or not pool:
            sid = f"s{int(rng.integers(0, 40)):02d}"
            s = int(rng.integers(0, n_blocks))
            e = int(rng.integers(s + 1, min(n_blocks, s + 6) + 1))
            r = ServerRoute(sid, s, e, float(rng.uniform(5, 100)),
                            float(rng.uniform(1, 50)))
            pool[sid] = r
            g.apply_update("join", r)
        elif op < 0.75:
            sid = sorted(pool)[int(rng.integers(0, len(pool)))]
            del pool[sid]
            g.apply_update("leave", sid)
        else:
            sid = sorted(pool)[int(rng.integers(0, len(pool)))]
            old = pool[sid]
            r = ServerRoute(sid, old.start, old.end, old.throughput,
                            float(rng.uniform(1, 50)))
            pool[sid] = r
            g.apply_update("latency_change", r)
        inc = g.best_cost()
        ref = dijkstra_cost(pool, n_blocks)
        agree += (inc == ref) or abs(inc - ref) < 1e-9
    _verdict(7, agree == 1000, f"incremental == fresh Dijkstra on {agree}/1000 mutations")


# -------------------------------------------------------------------------
# 8. beam reorder semantics and distributed beam search
# -------------------------------------------------------------------------

def test_08_beam_reorder_and_search():
    cfg = ModelConfig()
    # the canonical gather example: [2,2,1,3,2] over width 5
    cache = KVCache.empty(cfg, width=5)
    rng = np.random.default_rng(0)
    cache.append(rng.standard_normal((5, 2, 4, 16)).astype(np.float32),
                 rng.standard_normal((5, 2, 4, 16)).astype(np.float32))
    old = cache.keys.copy()
    cache.gather([i - 1 for i in [2, 2, 1, 3, 2]])
    gather_ok = all(np.array_equal(cache.keys[n], old[o - 1])
                    for n, o in enumerate([2, 2, 1, 3, 2]))
    # distributed k=4 beam vs local oracle, clean and with drops
    want = [h for h, _ in reference_beam(cfg, [4, 2], 20, k=4)]
    matched = 0
    for seed in range(10):
        swarm = build_sim_swarm(cfg, seed=seed)
        got = swarm.client().beam_generate([4, 2], 20, k=4)
        matched += [h for h, _ in got.beams] == want
    for seed in range(10):
        swarm = build_sim_swarm(cfg, seed=seed,
                                profile=NetProfile(failure_prob=1e-2))
        got = swarm.client().beam_generate([4, 2], 20, k=4)
        matched += [h for h, _ in got.beams] == want
    _verdict(8, gather_ok and matched == 20,
             f"gather example exact; beam == local oracle in {matched}/20 runs "
             f"(10 clean, 10 at p=1e-2)")


# -------------------------------------------------------------------------
# 9. gradients and fault-tolerant fine-tuning
# -------------------------------------------------------------------------

def test_09_gradients_and_finetune():
    # backward vs central finite differences, 20 random small instances
    eps = 1e-3
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(300 + trial)
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
        worst = max(worst, np.abs(got - fd).max() / max(np.abs(fd).max(), 1e-12))
    grad_ok = worst <= 1e-4

    # 200-step soft-prompt run: p=0.01 retries reproduce the p=0 trajectory
    cfg = ModelConfig()

    def train(p, seed):
        swarm = build_sim_swarm(cfg, seed=seed, profile=NetProfile(failure_prob=p))
        hashes = {sid: params_hash(s.engine.blocks)
                  for sid, s in swarm.servers.items()}
        ft = FinetuneSession(swarm.client(), n_labels=8, prompt_len=4, lr=0.2,
                             init_seed=0)
        data = np.random.default_rng(42)
        batch = data.integers(0, 256, (16, 6))
        labels = (batch[:, -1] % 8).astype(np.intp)
        for _ in range(200):
            ft.step(batch, labels)
        frozen = all(params_hash(s.engine.blocks) == hashes[sid]
                     for sid, s in swarm.servers.items())
        return ft, frozen

    clean, frozen_a = train(0.0, 0)
    faulty, frozen_b = train(0.01, 9)
    drift = max(np.abs(clean.soft_prompt - faulty.soft_prompt).max(),
                np.abs(clean.head - faulty.head).max())
    window_ok = all(clean.loss_curve[i + 50] < clean.loss_curve[i]
                    for i in range(150))
    _verdict(9, grad_ok and drift < 1e-5 and frozen_a and frozen_b
             and faulty.counters.repeats > 0 and window_ok,
             f"grad vs FD worst rel {worst:.2e} <= 1e-4; 200-step p=0.01 run "
             f"within {drift:.1e} of p=0 ({faulty.counters.repeats} repeats); "
             f"loss decreasing over every 50-step window; server params frozen")


# -------------------------------------------------------------------------
# 10. offloading estimator
# -------------------------------------------------------------------------

def test_10_offload_estimator():
    seconds, tps = estimate_offload_bound(176e9, 256e9)
    ok = seconds == pytest.approx(5.5, abs=1e-9) and f"{tps:.2f}" == "0.18"
    s2, _ = estimate_offload_bound(176e9, 128e9)
    ok = ok and s2 == pytest.approx(11.0, abs=1e-9)
    _verdict(10, ok, f"176 GB over 256 Gbit/s -> {seconds} s, {tps:.3f} tokens/s")


# -------------------------------------------------------------------------
# 11. quantized wire mode
# -------------------------------------------------------------------------

def test_11_quantized_mode():
    rng = np.random.default_rng(11)
    bound_ok = True
    for shape in [(1, 64), (7, 64), (64, 64), (129,), (4096,)]:
        h = (rng.standard_normal(shape) * rng.uniform(0.1, 30)).astype(np.float32)
        q = quantize_hidden(h)
        err = np.abs(dequantize_hidden(q) - h).ravel()
        flat = np.zeros(q.n_blocks * 64, np.float32)
        flat[:h.size] = h.ravel()
        for b in range(q.n_blocks):
            lo, hi = b * 64, min((b + 1) * 64, h.size)
            if lo < h.size:
                bound = np.abs(flat[b * 64:(b + 1) * 64]).max() / 127
                bound_ok = bound_ok and err[lo:hi].max() <= bound + 1e-6

    # matched-context greedy agreement, exact vs int8 wire, 20 x 128 tokens
    agree = total = 0
    for seed in range(20):
        cfg = ModelConfig(seed=seed)
        exact = build_sim_swarm(cfg, seed=seed).client().generate([3, 1, 4], 128)
        swarm = build_sim_swarm(cfg, seed=seed)
        forced = swarm.client().generate([3, 1, 4], 128, quantized=True,
                                         teacher_tokens=exact.tokens[3:])
        agree += sum(a == b for a, b in zip(forced.tokens[3:], exact.tokens[3:]))
        total += 128
    rate = agree / total
    _verdict(11, bound_ok and rate >= 0.95,
             f"round-trip within absmax/127 on all matrices; matched-context "
             f"greedy agreement {rate:.1%} >= 95% ({agree}/{total})")
