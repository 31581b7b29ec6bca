"""Chain routing: shortest server chains over block boundaries, solved from
the current server set on every query.

Nodes are block boundaries 0..L. A server holding [a, b) contributes an edge
i -> j for every sub-interval a <= i < j <= b with weight ``edge_cost``:
rtt + (j - i) * 1000 / throughput milliseconds (per-step, single-token
regime). The graph is a DAG ordered by boundary, so one right-to-left
cost-to-go pass over [start, end) finds the cheapest chain; updates only edit
the server set, and a query after any update sequence returns exactly what a
fresh Dijkstra would.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoRouteError, ProtocolError

_INF = float("inf")


@dataclass(frozen=True)
class ServerRoute:
    """Routing view of one server: interval, speed, measured latency."""

    server_id: str
    start: int
    end: int
    throughput: float
    rtt_ms: float


@dataclass
class Hop:
    server_id: str
    start: int
    end: int
    cost_ms: float


@dataclass
class Chain:
    hops: list[Hop]
    cost_ms: float

    def server_ids(self) -> list[str]:
        return [h.server_id for h in self.hops]


def edge_cost(throughput: float, n_blocks: int, client_rtt_ms: float) -> float:
    """Predicted per-step time of one hop: client link latency plus per-block
    compute at the server's announced rate."""
    return client_rtt_ms + n_blocks * 1000.0 / throughput


class RoutingGraph:
    """One client's routing view: the servers it may route through."""

    def __init__(self, n_blocks: int):
        self.n_blocks = n_blocks
        self.servers: dict[str, ServerRoute] = {}

    # -- updates -------------------------------------------------------------

    def apply_update(self, event: str, arg) -> None:
        """event: join | leave | ban | latency_change. ``arg`` is a
        ServerRoute for join/latency_change, a server id otherwise."""
        if event in ("join", "latency_change"):
            route: ServerRoute = arg
            if not (0 <= route.start < route.end <= self.n_blocks):
                raise ProtocolError("route interval out of range")
            if route.throughput <= 0:
                raise ProtocolError("route throughput must be > 0")
            self.servers[route.server_id] = route
        elif event in ("leave", "ban"):
            self.servers.pop(arg, None)
        else:
            raise ProtocolError(f"unknown router event {event}")

    def sync(self, routes: list[ServerRoute]) -> None:
        """Diff the current server set against ``routes`` and apply the
        corresponding join/leave/latency events."""
        incoming = {r.server_id: r for r in routes}
        for sid in list(self.servers):
            if sid not in incoming:
                self.apply_update("leave", sid)
        for sid, r in incoming.items():
            if self.servers.get(sid) != r:
                self.apply_update("join", r)

    # -- queries --------------------------------------------------------------

    def _solve(self, start: int, end: int) -> tuple[list[float], list]:
        """Cost-to-go from every boundary of [start, end) to ``end``, and the
        first hop (route, next boundary) that achieves it; both indexed from
        ``start``. Ties go to the lower server id, then the shorter hop."""
        g = [_INF] * (end - start) + [0.0]
        choice: list[tuple[ServerRoute, int] | None] = [None] * (end - start + 1)
        routes = [self.servers[sid] for sid in sorted(self.servers)]
        for i in range(end - 1, start - 1, -1):
            best, pick = _INF, None
            for r in routes:
                if r.start <= i < r.end:
                    for j in range(i + 1, min(r.end, end) + 1):
                        c = edge_cost(r.throughput, j - i, r.rtt_ms) + g[j - start]
                        if c < best:
                            best, pick = c, (r, j)
            g[i - start], choice[i - start] = best, pick
        return g, choice

    def best_cost(self, start: int = 0, end: int | None = None) -> float:
        """Minimum chain cost covering [start, end); inf if uncoverable."""
        return self._solve(start, self.n_blocks if end is None else end)[0][0]

    def find_best_chain(self, start: int = 0, end: int | None = None) -> Chain:
        """Minimum-cost chain of server spans covering [start, end)."""
        end = self.n_blocks if end is None else end
        if not (0 <= start < end <= self.n_blocks):
            raise ProtocolError(f"needed interval [{start}, {end}) out of range")
        g, choice = self._solve(start, end)
        if g[0] == _INF:
            raise NoRouteError(f"no chain covers [{start}, {end})")
        hops: list[Hop] = []
        i = start
        while i < end:
            r, j = choice[i - start]
            hops.append(Hop(r.server_id, i, j, edge_cost(r.throughput, j - i, r.rtt_ms)))
            i = j
        return Chain(hops, g[0])
