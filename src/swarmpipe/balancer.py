"""Block-assignment policy: greedy placement for joining servers,
threshold-gated rebalancing with cascade simulation, and an exact
exponential-time oracle for small instances.

The placement rule picks the window whose sorted load vector is
lexicographically smallest (leftmost start on ties), so a joining server
always covers the weakest block and as many of the next-weakest as it can.
Swarm throughput is the bottleneck rate: the minimum over blocks of the
total throughput of servers covering that block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .directory import STATE_OFFLINE, STATE_ONLINE, ServerInfo, block_load, coverage
from .errors import ConfigurationError


@dataclass
class RebalanceConfig:
    threshold_pct: float = 20.0

    def __post_init__(self) -> None:
        if self.threshold_pct <= 0:
            raise ConfigurationError("rebalance threshold must be > 0")


def measure_throughput(net_tokens_per_s: float, compute_tokens_per_s: float) -> float:
    """Overall server throughput: the narrower of network and compute rates."""
    if net_tokens_per_s <= 0 or compute_tokens_per_s <= 0:
        raise ConfigurationError("throughput inputs must be > 0")
    return min(net_tokens_per_s, compute_tokens_per_s)


def choose_start(n_blocks: int, capacity: int, loads: list[float]) -> int:
    """Best start for a capacity-sized window over the per-block loads.

    Returns the leftmost start among the windows whose sorted load vector
    is lexicographically smallest. A sorted window begins with its least
    load, so when the global least load sits at one block only, only the
    windows covering that block can win and no other start is scanned.

    Two equal-size multisets with a common part compare, as sorted
    vectors, the way their non-shared parts do. Window ``W_s`` is
    ``W_{s-1}`` less ``loads[s-1]`` plus ``loads[s+capacity-1]``, so
    ``W_s < W_{s-1}`` exactly when the gained load is less than the
    dropped one. The scan keeps ``W_{s-1} >= W_best``; a window that does
    not beat its left neighbour therefore cannot win and is skipped
    without a sort. One that does beats ``W_best`` outright when
    ``best == s-1``, and otherwise is compared with it by the loads that
    only one of the two windows holds. Only a strict win moves ``best``.
    """
    if not (1 <= capacity <= n_blocks):
        raise ConfigurationError(f"capacity {capacity} not in [1, {n_blocks}]")
    if len(loads) != n_blocks:
        raise ConfigurationError("load vector length != n_blocks")
    low = min(loads)
    if loads.count(low) == 1:
        b = loads.index(low)
        lo, hi = max(0, b - capacity + 1), min(b, n_blocks - capacity)
    else:
        lo, hi = 0, n_blocks - capacity
    best = lo
    for start in range(lo + 1, hi + 1):
        if loads[start + capacity - 1] >= loads[start - 1]:
            continue
        if best == start - 1:
            best = start
        elif start - best < capacity:
            if sorted(loads[best + capacity:start + capacity]) < sorted(loads[best:start]):
                best = start
        elif sorted(loads[start:start + capacity]) < sorted(loads[best:best + capacity]):
            best = start
    return best


def bottleneck(spans: Iterable[tuple[int, int, float]], n_blocks: int) -> float:
    """Minimum over blocks of the (start, end, throughput) spans' coverage;
    0 if any block is uncovered. Spans are summed in the order given."""
    return min(coverage(spans, n_blocks), default=0.0)


def swarm_throughput(snapshot: list[ServerInfo], n_blocks: int) -> float:
    """Bottleneck rate over blocks. Only servers actually holding blocks
    (online) count."""
    return bottleneck(((r.start, r.end, r.throughput) for r in snapshot
                       if r.state == STATE_ONLINE), n_blocks)


# ---------------------------------------------------------------------------
# rebalancing
# ---------------------------------------------------------------------------

def _loads_excluding(snapshot: list[ServerInfo], n_blocks: int, exclude: str) -> list[float]:
    return block_load([r for r in snapshot if r.server_id != exclude], n_blocks)


def greedy_fixpoint(snapshot: list[ServerInfo], n_blocks: int) -> list[ServerInfo]:
    """Cascade simulation: every server repeatedly re-applies the placement
    rule to the hypothetical state, in ascending server-id order, until no one
    moves or 2x the server count of sweeps have run. Loads are maintained
    incrementally within a sweep and recomputed exactly between sweeps.

    A sweep is therefore a function of the placement (each server's start and
    state) it starts from, so once a placement repeats the sweeps cycle. The
    cascade stops at the first repeated placement and sets the one the full
    2x sweeps would have ended on: the same result for fewer sweeps."""
    state = {r.server_id: ServerInfo(r.server_id, r.address, r.start, r.end,
                                     r.throughput, r.state, r.announced_at)
             for r in snapshot if r.state != STATE_OFFLINE}
    order = sorted(state)
    sweeps = 2 * max(1, len(order))
    seen: dict[tuple, int] = {}             # placement -> sweep it started
    for k in range(sweeps):
        placement = tuple((state[sid].start, state[sid].state) for sid in order)
        if placement in seen:
            first = seen[placement]
            last = list(seen)[first + (sweeps - first) % (k - first)]
            for sid, (start, st) in zip(order, last):
                rec = state[sid]
                cap = rec.end - rec.start
                rec.start, rec.end, rec.state = start, start + cap, st
            break
        seen[placement] = k
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
    return list(state.values())


def propose_rebalance(self_id: str, snapshot: list[ServerInfo], n_blocks: int,
                      config: RebalanceConfig) -> tuple[int, int] | None:
    """Decide whether this server should move to a new interval.

    Finds the placement-rule window for this server against everyone else,
    simulates how the rest of the swarm would follow, and returns the move
    only if the eventual throughput beats the current one by at least the
    configured threshold. Returns None for "stay put".
    """
    me = next((r for r in snapshot if r.server_id == self_id), None)
    if me is None or me.state == STATE_OFFLINE:
        return None
    cap = me.end - me.start
    loads = _loads_excluding(snapshot, n_blocks, self_id)
    start = choose_start(n_blocks, cap, loads)
    if start == me.start:
        return None

    current = swarm_throughput(snapshot, n_blocks)
    hyp = [ServerInfo(r.server_id, r.address, r.start, r.end, r.throughput,
                      r.state, r.announced_at) for r in snapshot]
    for r in hyp:
        if r.server_id == self_id:
            r.start, r.end = start, start + cap
            r.state = STATE_ONLINE
    eventual = swarm_throughput(greedy_fixpoint(hyp, n_blocks), n_blocks)
    if eventual >= (1.0 + config.threshold_pct / 100.0) * current and eventual > 0:
        return (start, start + cap)
    return None


# ---------------------------------------------------------------------------
# exact oracle
# ---------------------------------------------------------------------------

MAX_BRUTEFORCE_SERVERS = 10
MAX_BRUTEFORCE_BLOCKS = 14


def optimal_assignment_bruteforce(servers: list[tuple[int, float]], n_blocks: int
                                  ) -> tuple[dict[int, tuple[int, int]], float]:
    """Exact maximum swarm throughput over all contiguous placements.

    ``servers`` is a list of (capacity, throughput). Returns (assignment
    mapping server index -> interval, optimal throughput). The optimum is
    found by observing that the bottleneck block's coverage is a subset sum
    of server throughputs, then binary-searching the sorted sums with an
    exact interval-cover feasibility test (branch on the leftmost deficient
    block; only windows covering it can help). Only the sums between two
    bounds are searched: the greedy join's value, which some placement
    reaches, and the average coverage, which no placement beats.
    """
    n = len(servers)
    if n > MAX_BRUTEFORCE_SERVERS or n_blocks > MAX_BRUTEFORCE_BLOCKS:
        raise ConfigurationError(
            f"instance too large for exact search: {n} servers, {n_blocks} blocks")
    if n == 0:
        return {}, 0.0
    caps = [min(c, n_blocks) for c, _ in servers]
    thrs = [t for _, t in servers]

    sums = {0.0}
    for t in thrs:
        sums |= {s + t for s in sums}
    # the slack covers float summation order and the feasibility tolerance
    low = greedy_join_assignment(servers, n_blocks)[1]
    low -= 1e-6 * (1.0 + abs(low))
    high = sum(c * t for c, t in zip(caps, thrs)) / n_blocks
    high += 1e-6 * (1.0 + abs(high))
    return _exact_search(caps, thrs, n_blocks, sorted(v for v in sums if low <= v <= high))


def _exact_search(caps: list[int], thrs: list[float], n_blocks: int,
                  candidates: list[float]) -> tuple[dict[int, tuple[int, int]], float]:
    """The largest of the sorted candidate targets that some placement covers
    every block to, and that placement with its leftover servers placed
    greedily; the greedy placement and 0.0 when no candidate is reached."""
    n = len(caps)
    window = max(caps)

    def feasible(target: float) -> dict[int, tuple[int, int]] | None:
        """A placement (possibly partial) with every block covered to >= target.

        Sweeps block positions left to right deciding which unstarted servers
        start at each one. A block's coverage is final once the sweep passes
        it, and a placed interval influences at most the next max(K)-1 blocks,
        so failed states collapse onto the key (position, unstarted set,
        window coverage profile). Two reductions keep branching tiny: a server
        at its last feasible start is always placed (extra coverage never
        hurts), and a delayable server is started only as part of a minimal
        top-up for the current block, since starting it one block later
        dominates otherwise.
        """
        eps = 1e-9 * (1.0 + abs(target))
        dead: set[tuple] = set()

        def rec(b: int, unstarted: int, ext: tuple[float, ...]
                ) -> dict[int, tuple[int, int]] | None:
            if b == n_blocks:
                return {}
            key = (b, unstarted, ext)
            if key in dead:
                return None
            forced = [i for i in range(n)
                      if unstarted >> i & 1 and caps[i] == n_blocks - b]
            base = ext[0] + sum(thrs[i] for i in forced)
            optional = [i for i in range(n)
                        if unstarted >> i & 1 and caps[i] < n_blocks - b]
            optional.sort(key=lambda i: (-thrs[i], i))
            need = target - eps - base

            def advance(chosen: list[int]) -> dict[int, tuple[int, int]] | None:
                nxt = list(ext[1:]) + [0.0]
                rest = unstarted
                for i in forced + chosen:
                    rest &= ~(1 << i)
                    for o in range(1, caps[i]):
                        nxt[o - 1] += thrs[i]
                got = rec(b + 1, rest, tuple(nxt))
                if got is not None:
                    for i in forced + chosen:
                        got[i] = (b, b + caps[i])
                return got

            if need <= 0:
                got = advance([])
                if got is not None:
                    return got
            else:
                suffix = [0.0] * (len(optional) + 1)
                for j in range(len(optional) - 1, -1, -1):
                    suffix[j] = suffix[j + 1] + thrs[optional[j]]

                def pick(j: int, chosen: list[int], total: float
                         ) -> dict[int, tuple[int, int]] | None:
                    if total >= need:
                        # minimal: every member is load-bearing
                        if not chosen or total - min(thrs[i] for i in chosen) < need:
                            return advance(chosen)
                        return None
                    if j == len(optional) or total + suffix[j] < need:
                        return None
                    got = pick(j + 1, chosen + [optional[j]], total + thrs[optional[j]])
                    if got is not None:
                        return got
                    return pick(j + 1, chosen, total)

                got = pick(0, [], 0.0)
                if got is not None:
                    return got
            dead.add(key)
            return None

        return rec(0, (1 << n) - 1, (0.0,) * window)

    lo, hi = 0, len(candidates) - 1
    best_assign: dict[int, tuple[int, int]] = {}
    best_value = 0.0
    while lo <= hi:
        mid = (lo + hi) // 2
        got = feasible(candidates[mid])
        if got is not None:
            best_assign, best_value = got, candidates[mid]
            lo = mid + 1
        else:
            hi = mid - 1

    # place leftovers greedily; cannot change the optimal min-coverage
    cover = coverage(((s, e, thrs[i]) for i, (s, e) in best_assign.items()), n_blocks)
    for i in range(n):
        if i not in best_assign:
            s = choose_start(n_blocks, caps[i], cover)
            best_assign[i] = (s, s + caps[i])
            for b in range(s, s + caps[i]):
                cover[b] += thrs[i]
    return best_assign, best_value


def greedy_join_assignment(servers: list[tuple[int, float]], n_blocks: int,
                           order: list[int] | None = None
                           ) -> tuple[dict[int, tuple[int, int]], float]:
    """Assignment produced by servers joining one at a time under the
    placement rule, in the given order (default: list order). ``order`` may
    name a subset of the servers, each at most once."""
    if order is None:
        order = range(len(servers))
    elif len(set(order)) != len(order):
        raise ConfigurationError("join order names a server more than once")
    loads = [0.0] * n_blocks
    assign: dict[int, tuple[int, int]] = {}
    for i in order:
        cap, thr = min(servers[i][0], n_blocks), servers[i][1]
        s = choose_start(n_blocks, cap, loads)
        assign[i] = (s, s + cap)
        for b in range(s, s + cap):
            loads[b] += thr
    # loads is the coverage of assign, summed in the same order
    return assign, min(loads, default=0.0)


def greedy_swarm_assignment(servers: list[tuple[int, float]], n_blocks: int,
                            order: list[int] | None = None
                            ) -> tuple[dict[int, tuple[int, int]], float]:
    """Steady state of the decentralized greedy procedure: servers join one
    at a time under the placement rule, then keep re-applying it until no one
    moves. This is the assignment quality the swarm settles at."""
    assign, _ = greedy_join_assignment(servers, n_blocks, order)
    snap = [ServerInfo(f"s{i:03d}", f"s{i:03d}", assign[i][0], assign[i][1],
                       servers[i][1]) for i in assign]
    fixed = greedy_fixpoint(snap, n_blocks)
    out = {int(r.server_id[1:]): (r.start, r.end) for r in fixed}
    return out, bottleneck(((s, e, servers[i][1]) for i, (s, e) in out.items()), n_blocks)
