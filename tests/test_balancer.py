"""Placement rule, rebalancing cascade, and the exact assignment oracle."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swarmpipe import balancer
from swarmpipe.balancer import (RebalanceConfig, choose_start, greedy_fixpoint,
                                greedy_join_assignment, greedy_swarm_assignment,
                                measure_throughput, optimal_assignment_bruteforce,
                                propose_rebalance, swarm_throughput)
from swarmpipe.directory import STATE_OFFLINE, STATE_ONLINE, ServerInfo, block_load
from swarmpipe.errors import ConfigurationError


def _srv(sid, start, end, thr, state="online"):
    return ServerInfo(sid, sid, start, end, thr, state)


class TestMeasureThroughput:
    @pytest.mark.parametrize("net,comp,want", [(100, 40, 40), (5, 500, 5), (7, 7, 7)])
    def test_min_rule(self, net, comp, want):
        assert measure_throughput(net, comp) == want

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            measure_throughput(0, 5)


def _choose_start_reference(n_blocks, capacity, loads, wins=None):
    """The sorted-window scan: sort every candidate window and keep the
    first smallest. Appends (distance from the previous best, capacity) to
    ``wins`` for each start that takes the lead."""
    low = min(loads)
    if loads.count(low) == 1:
        b = loads.index(low)
        lo, hi = max(0, b - capacity + 1), min(b, n_blocks - capacity)
    else:
        lo, hi = 0, n_blocks - capacity
    best_start = lo
    best_key = sorted(loads[lo:lo + capacity])
    for start in range(lo + 1, hi + 1):
        key = sorted(loads[start:start + capacity])
        if key < best_key:
            if wins is not None:
                wins.append((start - best_start, capacity))
            best_key = key
            best_start = start
    return best_start


_TIE_POOL = [0.0, -0.0, 1.0, 3.0, 3.0 + 1e-12]


def _load_vector(rng, n):
    """Per-block loads of one of five shapes: uniform floats, a small pool
    that ties (-0.0 with 0.0, 3.0 with itself but not with 3.0 + 1e-12),
    strictly decreasing and increasing runs, plateaus, or sawtooths."""
    kind = rng.randrange(5)
    if kind == 0:
        return [rng.uniform(0, 100) for _ in range(n)]
    if kind == 1:
        return [rng.choice(_TIE_POOL) for _ in range(n)]
    loads = []
    if kind == 2:
        x = rng.uniform(0, 100)
        while len(loads) < n:
            step = rng.choice([-1, 1]) * rng.uniform(0.1, 5.0)
            for _ in range(rng.randint(1, 8)):
                x += step
                loads.append(x)
    elif kind == 3:
        while len(loads) < n:
            loads += [rng.choice(_TIE_POOL + [rng.uniform(0, 5)])] * rng.randint(1, 6)
    else:
        period, step = rng.randint(2, 7), rng.choice([-1.0, 1.0, 0.5])
        base = rng.uniform(0, 10)
        loads = [base + step * ((i + rng.randrange(period)) % period) for i in range(n)]
    return loads[:n]


class TestChooseStart:
    def test_matches_sorted_window_scan(self):
        """50,000 seeded instances against the scan that sorts every window,
        covering leads taken from the window just left of the best (distance
        1), from one that overlaps it (2 .. capacity-1) and from one that
        shares no block with it (>= capacity)."""
        rng = random.Random(23)
        wins = []
        for _ in range(50_000):
            n_blocks = rng.randint(1, 40)
            capacity = rng.randint(1, n_blocks)
            loads = _load_vector(rng, n_blocks)
            want = _choose_start_reference(n_blocks, capacity, loads, wins)
            assert choose_start(n_blocks, capacity, loads) == want, (capacity, loads)
        near = sum(d == 1 for d, _ in wins)
        overlapping = sum(1 < d < cap for d, cap in wins)
        apart = sum(d >= cap for d, cap in wins)
        assert min(near, overlapping, apart) >= 1000, (near, overlapping, apart)

    def test_weakest_window_wins(self):
        assert choose_start(4, 2, [10, 0, 0, 5]) == 1

    def test_all_zero_leftmost(self):
        assert choose_start(6, 3, [0.0] * 6) == 0

    def test_full_width_single_window(self):
        assert choose_start(5, 5, [9, 1, 4, 4, 4]) == 0

    def test_capacity_larger_than_blocks_rejected(self):
        with pytest.raises(ConfigurationError):
            choose_start(4, 5, [0.0] * 4)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 32), st.integers(0, 2 ** 31))
    def test_matches_exhaustive_enumeration(self, n_blocks, seed):
        rng = np.random.default_rng(seed)
        capacity = int(rng.integers(1, n_blocks + 1))
        loads = list(rng.uniform(0, 100, n_blocks))
        got = choose_start(n_blocks, capacity, loads)
        keys = [sorted(loads[s:s + capacity]) for s in range(n_blocks - capacity + 1)]
        want = min(range(len(keys)), key=lambda s: (keys[s], s))
        assert got == want
        assert 0 <= got <= n_blocks - capacity

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_enumeration_with_tied_loads(self, data):
        """Loads from a small pool tie often, and -0.0 ties with 0.0, so both
        the scan of every start and the scan around a lone least load run."""
        n_blocks = data.draw(st.integers(1, 32))
        capacity = data.draw(st.integers(1, n_blocks))
        loads = data.draw(st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, 3.0, 3.0 + 1e-12]),
                                   min_size=n_blocks, max_size=n_blocks))
        got = choose_start(n_blocks, capacity, loads)
        keys = [sorted(loads[s:s + capacity]) for s in range(n_blocks - capacity + 1)]
        assert got == min(range(len(keys)), key=lambda s: (keys[s], s))


class TestSwarmThroughput:
    def test_bottleneck_sum(self):
        snap = [_srv("a", 0, 2, 10.0), _srv("b", 1, 3, 5.0)]
        assert swarm_throughput(snap, 3) == 5.0

    def test_uncovered_block_zero(self):
        assert swarm_throughput([_srv("a", 0, 2, 10.0)], 3) == 0.0

    def test_single_full_cover(self):
        assert swarm_throughput([_srv("a", 0, 4, 7.0)], 4) == 7.0

    def test_joining_does_not_serve_yet(self):
        snap = [_srv("a", 0, 4, 7.0), _srv("b", 0, 4, 9.0, state="joining")]
        assert swarm_throughput(snap, 4) == 7.0


class TestRebalance:
    def test_balanced_fixpoint_proposes_nothing(self):
        snap = [_srv("a", 0, 2, 10.0), _srv("b", 2, 4, 10.0)]
        cfg = RebalanceConfig()
        for sid in ("a", "b"):
            assert propose_rebalance(sid, snap, 4, cfg) is None

    def test_gap_gets_covered(self):
        """Servers for the first blocks left; an extra replica elsewhere moves."""
        snap = [_srv("c", 2, 4, 10.0), _srv("d", 2, 4, 8.0)]
        cfg = RebalanceConfig()
        moves = {sid: propose_rebalance(sid, snap, 4, cfg) for sid in ("c", "d")}
        accepted = {sid: m for sid, m in moves.items() if m}
        assert accepted, "someone must move to cover the gap"
        sid, move = next(iter(accepted.items()))
        hyp = [r if r.server_id != sid else _srv(sid, move[0], move[1],
                                                 r.throughput)
               for r in snap]
        assert swarm_throughput(greedy_fixpoint(hyp, 4), 4) > 0

    def test_improvement_below_threshold_rejected(self):
        # moving b onto [0,1) would lift throughput 10 -> 11, only +10%
        snap = [_srv("a", 0, 1, 10.0), _srv("b", 1, 2, 10.0),
                _srv("c", 0, 2, 1.0)]
        cfg = RebalanceConfig(threshold_pct=20.0)
        assert propose_rebalance("c", snap, 2, cfg) is None

    def test_no_oscillation_within_three_sweeps(self):
        rng = np.random.default_rng(5)
        snap = []
        for i in range(10):
            cap = int(rng.integers(1, 5))
            start = int(rng.integers(0, 12 - cap + 1))
            snap.append(_srv(f"s{i:02d}", start, start + cap, float(rng.uniform(1, 100))))
        cfg = RebalanceConfig()
        sweeps_with_moves = 0
        for _ in range(3):
            moved = False
            for sid in sorted(r.server_id for r in snap):
                move = propose_rebalance(sid, snap, 12, cfg)
                if move:
                    moved = True
                    snap = [r if r.server_id != sid else
                            _srv(sid, move[0], move[1], r.throughput) for r in snap]
            sweeps_with_moves += moved
            if not moved:
                break
        # after at most three sweeps the population is quiescent
        for sid in sorted(r.server_id for r in snap):
            assert propose_rebalance(sid, snap, 12, RebalanceConfig()) is None


def _fixpoint_reference(snapshot, n_blocks):
    """The cascade as it ran before it stopped at a repeated placement: every
    sweep up to the 2x cap. Returns the records and the sweeps run."""
    state = {r.server_id: ServerInfo(r.server_id, r.address, r.start, r.end,
                                     r.throughput, r.state, r.announced_at)
             for r in snapshot if r.state != STATE_OFFLINE}
    order = sorted(state)
    sweeps = 0
    for _ in range(2 * max(1, len(order))):
        sweeps += 1
        moved = False
        loads = block_load(list(state.values()), n_blocks)
        for sid in order:
            rec = state[sid]
            cap = rec.end - rec.start
            for b in range(rec.start, rec.end):
                loads[b] -= rec.throughput
            start = choose_start(n_blocks, cap, loads)
            if start != rec.start:
                rec.start, rec.end = start, start + cap
                rec.state = STATE_ONLINE
                moved = True
            for b in range(rec.start, rec.end):
                loads[b] += rec.throughput
        if not moved:
            break
    return list(state.values()), sweeps


def _placed(records):
    return [(r.server_id, r.start, r.end, r.state) for r in records]


# A cascade from the churn study ChurnStudySpec(duration_min=60, period_min=60),
# seed 0, whose placements cycle: the sweep loop above runs all 14 sweeps on it.
_CYCLING = [("v019", 0, 2, 42.26872211976585), ("v020", 8, 18, 2.8319671145462966),
            ("v021", 0, 1, 12.428327649956394), ("v022", 1, 8, 67.06244146936304),
            ("v023", 3, 9, 64.71895115742501), ("v024", 9, 18, 61.53851114812539),
            ("v025", 0, 3, 38.367755426188346)]


class TestFixpoint:
    def test_matches_full_sweeps_on_random_snapshots(self):
        rng = np.random.default_rng(0)
        capped = 0
        for _ in range(300):
            n_blocks = int(rng.integers(1, 19))
            snap = []
            for i in range(int(rng.integers(1, 13))):
                cap = int(rng.integers(1, min(n_blocks, 10) + 1))
                start = int(rng.integers(0, n_blocks - cap + 1))
                thr = (float(rng.uniform(0, 100)) if rng.random() < 0.7
                       else float(rng.choice([1.0, 2.0, 5.0])))
                state = str(rng.choice(["online", "joining", "offline"], p=[0.6, 0.2, 0.2]))
                snap.append(_srv(f"s{i:02d}", start, start + cap, thr, state))
            want, sweeps = _fixpoint_reference(snap, n_blocks)
            capped += sweeps == 2 * max(1, len(want))
            assert _placed(greedy_fixpoint(snap, n_blocks)) == _placed(want)
        assert capped >= 5, "too few cycling cascades to test the early stop"

    def test_cycling_cascade_stops_early_with_the_same_result(self, monkeypatch):
        snap = [_srv(sid, s, e, thr) for sid, s, e, thr in _CYCLING]
        want, sweeps = _fixpoint_reference(snap, 18)
        assert sweeps == 2 * len(snap)
        calls = []
        real = balancer.choose_start

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(balancer, "choose_start", counted)
        assert _placed(greedy_fixpoint(snap, 18)) == _placed(want)
        assert len(calls) < 2 * len(snap) * len(snap)


class TestBruteForce:
    def test_single_server_takes_everything(self):
        assign, value = optimal_assignment_bruteforce([(4, 9.0)], 4)
        assert assign[0] == (0, 4)
        assert value == 9.0

    def test_two_halves_split_disjointly(self):
        assign, value = optimal_assignment_bruteforce([(3, 8.0), (3, 5.0)], 6)
        assert value == 5.0
        (s0, e0), (s1, e1) = assign[0], assign[1]
        assert {(s0, e0), (s1, e1)} == {(0, 3), (3, 6)}

    def test_refuses_oversized_instances(self):
        with pytest.raises(ConfigurationError):
            optimal_assignment_bruteforce([(1, 1.0)] * 11, 4)
        with pytest.raises(ConfigurationError):
            optimal_assignment_bruteforce([(1, 1.0)], 15)

    def test_matches_naive_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(120):
            n = int(rng.integers(1, 5))
            n_blocks = int(rng.integers(2, 7))
            servers = [(int(rng.integers(1, n_blocks + 1)), float(rng.uniform(1, 100)))
                       for _ in range(n)]
            _, got = optimal_assignment_bruteforce(servers, n_blocks)
            best = 0.0
            ranges = [range(0, n_blocks - min(c, n_blocks) + 1) for c, _ in servers]
            for starts in itertools.product(*ranges):
                cover = [0.0] * n_blocks
                for (c, t), s in zip(servers, starts):
                    for b in range(s, s + min(c, n_blocks)):
                        cover[b] += t
                best = max(best, min(cover))
            assert got == pytest.approx(best)

    def test_bounded_search_matches_full_search(self):
        """Searching only the subset sums between the greedy join's value and
        the average coverage returns what searching every sum returns."""
        rng = random.Random(5)
        for _ in range(2000):
            n_blocks = rng.randint(1, 9)
            servers = [(rng.randint(1, n_blocks + 1),
                        rng.choice([rng.uniform(0, 100), float(rng.randint(1, 4))]))
                       for _ in range(rng.randint(1, 6))]
            caps = [min(c, n_blocks) for c, _ in servers]
            thrs = [t for _, t in servers]
            sums = {0.0}
            for t in thrs:
                sums |= {s + t for s in sums}
            want = balancer._exact_search(caps, thrs, n_blocks, sorted(sums))
            assert optimal_assignment_bruteforce(servers, n_blocks) == want, servers

    def test_greedy_never_beats_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            servers = [(int(rng.integers(1, 6)), float(rng.uniform(0, 100)))
                       for _ in range(n)]
            _, opt = optimal_assignment_bruteforce(servers, 10)
            _, greedy = greedy_swarm_assignment(servers, 10)
            assert greedy <= opt + 1e-9


class TestGreedyJoin:
    def test_full_cover_when_capacity_sufficient(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n_blocks = int(rng.integers(4, 13))
            servers = []
            while sum(min(c, n_blocks) for c, _ in servers) < n_blocks:
                servers.append((int(rng.integers(1, 7)), float(rng.uniform(1, 100))))
            assign, value = greedy_join_assignment(servers, n_blocks)
            assert value > 0, (servers, n_blocks, assign)

    def test_join_order_respected(self):
        servers = [(2, 10.0), (2, 10.0)]
        a, _ = greedy_join_assignment(servers, 4, order=[0, 1])
        assert a[0] == (0, 2) and a[1] == (2, 4)

    def test_repeated_index_rejected(self):
        with pytest.raises(ConfigurationError):
            greedy_join_assignment([(2, 10.0), (2, 5.0), (2, 7.0)], 4, [0, 0, 1, 2])

    def test_subset_order_allowed(self):
        a, value = greedy_join_assignment([(2, 10.0), (2, 5.0), (2, 7.0)], 4, [2, 1])
        assert a == {2: (0, 2), 1: (2, 4)}
        assert value == 5.0
