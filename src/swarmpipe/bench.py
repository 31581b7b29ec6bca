"""Benchmark harness: the failure-rate grid, the churn/load-balance study,
and the offloading throughput bound.

Simulated steps/s comes from the virtual clock, so results depend only on the
configured cost model and seed, never on host speed. Records are written as
JSON lines plus a CSV summary; identical (spec, seed) pairs produce byte-
identical files.
"""

from __future__ import annotations

import csv
import json
import math
import zlib
from dataclasses import dataclass, asdict

import numpy as np

from .balancer import (bottleneck, greedy_join_assignment, optimal_assignment_bruteforce,
                       propose_rebalance, RebalanceConfig, choose_start)
from .client import Strategy
from .directory import ServerInfo, block_load
from .errors import BudgetExhausted, SwarmUnavailableError
from .model import ModelConfig
from .netsim import NetProfile
from .swarm import build_sim_swarm

FAILURE_RATES = (0.0, 1e-4, 1e-3, 1e-2, 5e-2)
LENGTHS = (128, 1024, 2048)
BUDGET_S = 1e6
HOPELESS_MIN_ATTEMPTS = 64
HOPELESS_EXPECTED_SUCCESSES = 0.1
# every grid cell: shape-only stages, 1 Gbit/s links at 2 ms RTT, 8-token prefix
GRID_STAGES = 4
GRID_REPLICAS = 2
GRID_BANDWIDTH_BPS = 1e9
GRID_RTT_MS = 2.0
GRID_PREFIX_LEN = 8


@dataclass
class ExperimentSpec:
    experiment: str                      # failure-rate | load-balance | offload
    seed: int = 0
    quantized: bool = False
    budget_s: float = BUDGET_S
    failure_rates: tuple = FAILURE_RATES
    lengths: tuple = LENGTHS


@dataclass
class RunRecord:
    experiment: str
    seed: int
    p: float
    length: int
    strategy: str
    steps_per_s: float | None
    sim_time_s: float
    bytes_total: int
    payload_bytes: int
    recoveries: int
    restarts: int
    completed: bool
    cutoff: str = ""

    def row(self) -> dict:
        return asdict(self)


def write_records(records: list[RunRecord], out_path: str) -> tuple[str, str]:
    """JSON lines at out_path, CSV summary alongside. Deterministic bytes."""
    jsonl = out_path
    csv_path = (out_path[:-6] if out_path.endswith(".jsonl") else out_path) + ".csv"
    with open(jsonl, "w") as f:
        for r in records:
            f.write(json.dumps(r.row(), sort_keys=True) + "\n")
    rows = [r.row() for r in records]
    cols = sorted({k for row in rows for k in row})
    with open(csv_path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=cols)
        w.writeheader()
        for row in rows:
            w.writerow(row)
    return jsonl, csv_path


# ---------------------------------------------------------------------------
# experiment 1: failure-rate grid
# ---------------------------------------------------------------------------

def _hopeless_restart_probe(p: float, n_stages: int, length: int):
    """Give up on a restart cell once the chance of ever finishing within the
    remaining budget is negligible. The per-attempt success probability is
    exact for the per-send Bernoulli drop process: every generated token
    crosses n_stages request/reply pairs unscathed."""
    clean = (1.0 - p) ** (2 * n_stages * (length + 1))

    def probe(progress) -> bool:
        if progress.attempts < HOPELESS_MIN_ATTEMPTS or progress.remaining_s is None:
            return False
        expected = (progress.remaining_s / max(progress.mean_attempt_s, 1e-9)) * clean
        return expected < HOPELESS_EXPECTED_SUCCESSES

    return probe


def run_failure_rate_cell(spec: ExperimentSpec, p: float, length: int,
                          strategy: Strategy) -> RunRecord:
    cell_key = zlib.crc32(f"{round(p, 8)!r}|{length}|{strategy.value}".encode())
    cell_seed = (spec.seed * 1_000_003 + cell_key) & 0x7FFFFFFF
    profile = NetProfile(GRID_BANDWIDTH_BPS, GRID_RTT_MS, p)
    model = ModelConfig(seed=spec.seed,
                        max_seq_len=max(2048, length + GRID_PREFIX_LEN))
    swarm = build_sim_swarm(model, n_stages=GRID_STAGES, replicas=GRID_REPLICAS,
                            profile=profile, engine="timed", seed=cell_seed)
    client = swarm.client()
    prefix = list(range(1, GRID_PREFIX_LEN + 1))
    probe = (_hopeless_restart_probe(p, GRID_STAGES, length)
             if strategy == Strategy.RESTART else None)
    started = swarm.net.clock.now
    completed, cutoff, recov, restarts, payload = True, "", 0, 0, 0
    try:
        res = client.generate(prefix, length, strategy=strategy,
                              quantized=spec.quantized,
                              deadline_s=spec.budget_s, progress_probe=probe)
        recov = res.counters.recoveries
        restarts = res.counters.restarts
        payload = res.counters.step_activation_bytes
    except (BudgetExhausted, SwarmUnavailableError) as e:
        completed = False
        cutoff = type(e).__name__
        partial = getattr(e, "counters", None)
        if partial is not None:
            recov, restarts = partial.recoveries, partial.restarts
            payload = partial.step_activation_bytes
    sim_time = swarm.net.clock.now - started
    return RunRecord(
        experiment="failure_rate", seed=spec.seed, p=p, length=length,
        strategy=strategy.value,
        steps_per_s=(length / sim_time if completed and sim_time > 0 else None),
        sim_time_s=sim_time, bytes_total=swarm.net.total_bytes(),
        payload_bytes=payload, recoveries=recov, restarts=restarts,
        completed=completed, cutoff=cutoff)


def run_failure_rate_experiment(spec: ExperimentSpec) -> list[RunRecord]:
    records = []
    for strategy in Strategy:
        for length in spec.lengths:
            for p in spec.failure_rates:
                records.append(run_failure_rate_cell(spec, p, length, strategy))
    return records


# ---------------------------------------------------------------------------
# experiment 2: load balancing under churn
# ---------------------------------------------------------------------------

@dataclass
class ChurnStudySpec:
    seed: int = 0
    n_servers: int = 52
    n_blocks: int = 18
    duration_min: int = 480
    period_min: int = 240
    mid_active: float = 14.0
    amp_active: float = 12.0
    thresholds: tuple = (1.0, 20.0)
    upper_bound_orders: int = 50

    @classmethod
    def full_scale(cls, seed: int = 0) -> "ChurnStudySpec":
        return cls(seed=seed, n_servers=206, n_blocks=70, duration_min=720,
                   period_min=360, mid_active=62.0, amp_active=47.0)


@dataclass
class ChurnMinuteRecord:
    minute: int
    active: int
    feasible: bool
    throughput: dict[str, float]
    replaced_blocks: dict[str, int]


@dataclass
class ChurnStudyResult:
    spec: ChurnStudySpec
    minutes: list[ChurnMinuteRecord]

    def series(self, strategy: str) -> list[float]:
        return [m.throughput[strategy] for m in self.minutes]

    def total_replacements(self, strategy: str) -> int:
        return sum(m.replaced_blocks[strategy] for m in self.minutes)


class _PolicyState:
    """One strategy's view of the swarm: who serves what."""

    def __init__(self, name: str):
        self.name = name
        self.intervals: dict[int, tuple[int, int]] = {}
        self.replaced_blocks = 0

    def snapshot(self, thr: np.ndarray) -> list[ServerInfo]:
        return [ServerInfo(f"v{i:03d}", f"v{i:03d}", s, e, float(thr[i]))
                for i, (s, e) in sorted(self.intervals.items())]

    def throughput_value(self, thr: np.ndarray, n_blocks: int) -> float:
        return bottleneck(((s, e, float(thr[i])) for i, (s, e) in self.intervals.items()),
                          n_blocks)


def run_load_balance_experiment(spec: ChurnStudySpec) -> ChurnStudyResult:
    """Replay one churn trace under every balancing strategy.

    Server powers and capacities are sampled once; the on/off trace follows a
    sine wave of active-server counts, rotating which servers participate so
    each peak sees a different subset. Strategies share the trace and differ
    only in placement policy. Joins and moves take effect within the minute
    (block loading is instantaneous at this scale).
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    thr = rng.uniform(0.0, 100.0, spec.n_servers)
    thr[thr == 0.0] = 1e-6
    caps = rng.integers(1, 11, spec.n_servers)
    caps = np.minimum(caps, spec.n_blocks)

    strategies = ["none", "new_only"] + [f"full_p{int(t)}" for t in spec.thresholds]
    states = {s: _PolicyState(s) for s in strategies}
    random_start_rng = np.random.Generator(np.random.PCG64(spec.seed + 1))
    join_order: list[int] = []          # rotation queue of offline servers
    offline = list(range(spec.n_servers))
    online: list[int] = []              # in join order (oldest first)

    minutes: list[ChurnMinuteRecord] = []
    threshold_of = {f"full_p{int(t)}": t for t in spec.thresholds}

    for minute in range(spec.duration_min):
        target = int(round(spec.mid_active
                           + spec.amp_active * math.sin(2 * math.pi * minute / spec.period_min)))
        target = max(1, min(spec.n_servers, target))
        while len(online) < target and offline:
            i = offline.pop(0)
            online.append(i)
            for name, st in states.items():
                cap = int(caps[i])
                if name == "none":
                    start = int(random_start_rng.integers(0, spec.n_blocks - cap + 1))
                else:
                    loads = block_load(st.snapshot(thr), spec.n_blocks)
                    start = choose_start(spec.n_blocks, cap, loads)
                st.intervals[i] = (start, start + cap)
        while len(online) > target:
            i = online.pop(0)           # longest-online leaves first
            offline.append(i)
            for st in states.values():
                st.intervals.pop(i, None)

        # periodic rebalancing for the full strategies
        for name in strategies:
            if not name.startswith("full_"):
                continue
            st = states[name]
            cfg = RebalanceConfig(threshold_pct=threshold_of[name])
            snap = st.snapshot(thr)     # propose_rebalance only reads it
            for i in sorted(st.intervals):
                move = propose_rebalance(f"v{i:03d}", snap, spec.n_blocks, cfg)
                if move is not None:
                    st.intervals[i] = move
                    st.replaced_blocks += move[1] - move[0]
                    snap = st.snapshot(thr)

        feasible = int(sum(caps[i] for i in online)) >= spec.n_blocks
        throughput = {}
        replaced = {}
        for name, st in states.items():
            throughput[name] = st.throughput_value(thr, spec.n_blocks)
            replaced[name] = st.replaced_blocks
        # upper-bound estimate: exact search when the active set is small,
        # otherwise the strongest of 50 seeded greedy join orders, never below
        # a throughput some strategy actually achieved
        ub = _upper_bound(online, caps, thr, spec, minute)
        throughput["upper"] = max([ub] + list(throughput.values()))
        replaced["upper"] = 0
        minutes.append(ChurnMinuteRecord(minute, len(online), feasible,
                                         throughput,
                                         {k: replaced[k] for k in replaced}))

    # convert cumulative counters to per-minute deltas
    for name in strategies:
        prev = 0
        for m in minutes:
            cur = m.replaced_blocks[name]
            m.replaced_blocks[name] = cur - prev
            prev = cur
    return ChurnStudyResult(spec, minutes)


def _upper_bound(online: list[int], caps: np.ndarray, thr: np.ndarray,
                 spec: ChurnStudySpec, minute: int) -> float:
    if not online:
        return 0.0
    servers = [(int(caps[i]), float(thr[i])) for i in online]
    best = 0.0
    if len(servers) <= 8 and spec.n_blocks <= 14:
        _, best = optimal_assignment_bruteforce(servers, spec.n_blocks)
        return best
    order_rng = np.random.Generator(np.random.PCG64(spec.seed * 100_003 + minute))
    n = len(servers)
    for _ in range(spec.upper_bound_orders):
        order = order_rng.permutation(n).tolist()
        _, v = greedy_join_assignment(servers, spec.n_blocks, order)
        best = max(best, v)
    return best


def churn_records(result: ChurnStudyResult, seed: int) -> list[RunRecord]:
    """Flatten a churn study into RunRecords (one per minute/strategy)."""
    out = []
    for m in result.minutes:
        for name, value in sorted(m.throughput.items()):
            out.append(RunRecord(
                experiment="load_balance", seed=seed, p=0.0, length=m.minute,
                strategy=name, steps_per_s=value, sim_time_s=60.0 * m.minute,
                bytes_total=0, payload_bytes=0, recoveries=0,
                restarts=m.replaced_blocks.get(name, 0),
                completed=m.feasible))
    return out


# ---------------------------------------------------------------------------
# experiment 3: offloading bound
# ---------------------------------------------------------------------------

def estimate_offload_bound(params_bytes: float, link_bits_per_s: float
                           ) -> tuple[float, float]:
    """Time to stream all parameters once, and the implied best-case
    autoregressive rate (one full pass per token)."""
    if params_bytes <= 0 or link_bits_per_s <= 0:
        raise ValueError("params_bytes and link_bits_per_s must be positive")
    seconds = params_bytes * 8.0 / link_bits_per_s
    return seconds, 1.0 / seconds
