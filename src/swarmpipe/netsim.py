"""Deterministic simulated transport: virtual clock, bandwidth, RTT,
per-message failure, churn.

Timing model
------------
A delivered message arrives ``rtt/2 + framed_bytes*8/bandwidth`` after it is
sent. A dropped message costs its sender a detection delay of
``4*rtt + 2*framed_bytes*8/bandwidth`` (missing-ack budget) measured from the
moment the leg entered the wire; the simulation is single-threaded over a
virtual clock, so detection never false-positives and every run with the same
seed replays the same trace, byte counts, and failure positions.

Drop decisions
--------------
Every leg that enters the wire (each ``post``, and each ``rpc`` request and
reply) takes the next draw of one PCG64 stream, seeded by the network's
seed, and is lost when the draw is below its endpoint's drop probability.
The stream is read ``DROP_DRAWS`` values at a time: ``rng.random(n)`` yields
exactly the values of n scalar ``rng.random()`` calls. A leg takes its draw
even at p = 0, because skipping one would shift every later drop of every
endpoint.

Blocking exchanges (``rpc``) advance the clock through request delivery,
handler compute, and the reply leg. A handler gets the network as
``handle``'s second argument and spends compute with ``net.clock.charge``
(the same as ``advance`` here, free on the TCP transport's wall clock).
Fire-and-forget sends (``post``) schedule their delivery effect on the clock
agenda without blocking; timers (the servers' announce and rebalance loops)
run the same way and interleave deterministically with client traffic. Churn
needs no timer: ``online`` reads the schedule at the current time.

Run-ahead
---------
On the shape-only engine a run of decode ``Step`` rounds between two
interruptions is a fixed sequence, so ``run_ahead`` books it in one loop
instead of one ``rpc`` per stage. It reads the legs' draws ahead in the same
stream (same chunks, values and order), adds each leg's time, each stage's
charge and the client's per-round charge to ``now`` one by one in the order
and grouping ``rpc`` uses, and books what those legs would have booked: link
stats, the servers' sessions and counts. It stops before a drop, a lapsed
session, a message a server's crash hook acts on, and any clock
advance that would reach the next agenda entry, the deadline or the end of
an endpoint's online interval; ``rpc`` serves that step. So every rule fires
at the same message and virtual time either way.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from .errors import ConnectionFailed, MessageDropped, ProtocolError, Unreachable
from .wire import WireMessage, Ping, Pong, framed_nbytes

DROP_DRAWS = 256    # drop draws fetched at a time; 4,096 added ~0.4 MB to studies' peak RSS
PING_DEADLINE_S = 5.0   # virtual seconds a ping to an offline node waits


@dataclass(frozen=True)
class NetProfile:
    """Link characteristics for one endpoint."""

    bandwidth_bps: float = 1e9
    rtt_ms: float = 5.0
    failure_prob: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.failure_prob <= 1.0):
            raise ProtocolError("failure_prob must be in [0, 1]")
        if self.bandwidth_bps <= 0 or self.rtt_ms < 0:
            raise ProtocolError("bandwidth must be > 0 and rtt >= 0")

    def transfer_s(self, nbytes: int) -> float:
        return nbytes * 8.0 / self.bandwidth_bps

    def one_way_s(self) -> float:
        return self.rtt_ms / 2000.0

    def detect_s(self, nbytes: int) -> float:
        return 4.0 * self.rtt_ms / 1000.0 + 2.0 * self.transfer_s(nbytes)


@dataclass(frozen=True)
class ChurnSchedule:
    """Sorted, non-overlapping (on_time, off_time) intervals in simulated
    seconds. An empty schedule means always on."""

    intervals: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        intervals = tuple((on, off) for on, off in self.intervals)
        last = -np.inf
        for on, off in intervals:
            if on >= off or on < last:
                raise ProtocolError("churn intervals must be sorted and non-overlapping")
            last = off
        object.__setattr__(self, "intervals", intervals)

    def online(self, t: float) -> bool:
        return self.online_until(t) > t

    def online_until(self, t: float) -> float:
        """The end of the online interval that holds ``t`` (inf for an
        empty schedule); ``t`` itself when offline at ``t``."""
        if not self.intervals:
            return math.inf
        for on, off in self.intervals:
            if on <= t < off:
                return off
        return t


class VirtualClock:
    """Monotone virtual time with an agenda of scheduled callbacks."""

    def __init__(self) -> None:
        self.now = 0.0
        self._agenda: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()

    def schedule(self, t: float, fn: Callable[[], None]) -> None:
        if t < self.now:
            t = self.now
        heapq.heappush(self._agenda, (t, next(self._seq), fn))

    def advance_to(self, t: float) -> None:
        agenda = self._agenda
        while agenda and agenda[0][0] <= t:
            when, _, fn = heapq.heappop(agenda)
            self.now = when
            fn()
        if t > self.now:
            self.now = t

    def advance(self, dt: float) -> None:
        self.advance_to(self.now + dt)

    def next_due(self) -> float:
        """When the next agenda entry is due (inf: none)."""
        return self._agenda[0][0] if self._agenda else math.inf

    def charge(self, dt: float) -> None:
        """Spend modelled work time (compute, bookkeeping). On virtual time
        that is time passing, exactly as ``advance``."""
        self.advance_to(self.now + dt)


class SimulatedCrash(Exception):
    """Raised by a handler's failure-injection hook: the server dies mid-request."""


class Handler(Protocol):
    def handle(self, msg: WireMessage, net) -> WireMessage: ...   # net delivered msg


@dataclass
class LinkStats:
    messages: int = 0
    bytes: int = 0
    drops: int = 0


class _Endpoint:
    """A registered address with its link constants, worked out once: the
    profile and churn schedule are frozen, so the constants cannot go stale."""

    def __init__(self, handler: Handler, profile: NetProfile, churn: ChurnSchedule,
                 drop_override: float | None):
        self.handler = handler
        self.profile = profile
        self.churn = churn
        self.crashed = False
        self.drop_p = drop_override if drop_override is not None else profile.failure_prob
        self.one_way_s = profile.one_way_s()
        self.always_on = not churn.intervals

    def online(self, t: float) -> bool:
        return not self.crashed and (self.always_on or self.churn.online(t))

    def leg_s(self, nbytes: int) -> float:
        """A delivered leg's time: one way plus transfer, as one sum (added
        to ``now`` in another grouping, it moves virtual time in the last
        bits)."""
        return self.one_way_s + nbytes * 8.0 / self.profile.bandwidth_bps


class _DropStream:
    """The uniform stream of one PCG64 generator, fetched ``DROP_DRAWS``
    values at a time into one list read from a cursor. ``draw`` takes the
    next value. The run-ahead reads values without taking them (``ahead``)
    and then takes as many as it used (``skip``)."""

    def __init__(self, seed: int):
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self._values: list[float] = []
        self._at = 0        # the next value not taken

    def draw(self) -> float:
        at = self._at
        if at == len(self._values):
            self._values, at = self._rng.random(DROP_DRAWS).tolist(), 0
        self._at = at + 1
        return self._values[at]

    def ahead(self, n: int) -> list[float]:
        """At least ``n`` values not taken yet, in stream order, fetching
        chunks as needed; takes none."""
        del self._values[:self._at]
        self._at = 0
        while len(self._values) < n:
            self._values += self._rng.random(DROP_DRAWS).tolist()
        return self._values

    def skip(self, k: int) -> None:
        """Take the next ``k`` values (all fetched already by ``ahead``)."""
        self._at += k


class SimNetwork:
    """Single-threaded discrete-event network over a virtual clock."""

    def __init__(self, seed: int = 0, default_profile: NetProfile | None = None,
                 trace: bool = False):
        self.clock = VirtualClock()
        self.default_profile = default_profile or NetProfile()
        self._drops = _DropStream(seed)
        self._draw = self._drops.draw
        self._endpoints: dict[str, _Endpoint] = {}
        self.links: dict[tuple[str, str], LinkStats] = {}
        self.trace_enabled = trace
        self.trace: list[tuple] = []

    # -- wiring ------------------------------------------------------------

    def register(self, addr: str, handler: Handler, profile: NetProfile | None = None,
                 churn: ChurnSchedule | None = None, drop_override: float | None = None) -> None:
        self._endpoints[addr] = _Endpoint(handler, profile or self.default_profile,
                                          churn or ChurnSchedule(), drop_override)

    def profile_of(self, addr: str) -> NetProfile:
        ep = self._endpoints.get(addr)
        return ep.profile if ep else self.default_profile

    def set_crashed(self, addr: str, crashed: bool = True) -> None:
        self._endpoints[addr].crashed = crashed

    def online(self, addr: str, t: float | None = None) -> bool:
        ep = self._endpoints.get(addr)
        if ep is None:
            return False
        return ep.online(self.clock.now if t is None else t)

    # -- accounting ---------------------------------------------------------

    def _link(self, src: str, dst: str) -> LinkStats:
        """The src -> dst stats, made on the first leg that needs them, so
        ``links`` lists exactly the links a message crossed or was lost on."""
        st = self.links.get((src, dst))
        if st is None:
            st = self.links[(src, dst)] = LinkStats()
        return st

    def total_bytes(self) -> int:
        return sum(s.bytes for s in self.links.values())

    def _record(self, *event) -> None:
        """Trace (now, *event); a message is traced by its kind name, resolved
        only here. Callers check ``trace_enabled`` first."""
        self.trace.append((self.clock.now,) + tuple(
            e.kind.name if isinstance(e, WireMessage) else e for e in event))

    # -- primitives ----------------------------------------------------------

    def post(self, src: str, dst: str, msg: WireMessage) -> bool:
        """Fire-and-forget send. Returns False if the message was dropped.
        Raises ConnectionFailed if the destination is offline. Never blocks:
        the delivery effect runs from the agenda at arrival time."""
        ep = self._endpoints.get(dst)
        if ep is None or not ep.online(self.clock.now):
            if self.trace_enabled:
                self._record("conn_fail", src, dst, msg)
            raise ConnectionFailed(f"{dst} is offline")
        nbytes = framed_nbytes(msg)
        st = self.links.get((src, dst)) or self._link(src, dst)
        if self._draw() < ep.drop_p:
            st.drops += 1
            if self.trace_enabled:
                self._record("drop", src, dst, msg, nbytes)
            return False
        st.messages += 1
        st.bytes += nbytes
        t_arrive = self.clock.now + ep.one_way_s + nbytes * 8.0 / ep.profile.bandwidth_bps
        if self.trace_enabled:
            self._record("send", src, dst, msg, nbytes, t_arrive)

        def deliver() -> None:
            if ep.online(self.clock.now):
                try:
                    ep.handler.handle(msg, self)
                except SimulatedCrash:
                    ep.crashed = True
        self.clock.schedule(t_arrive, deliver)
        return True

    def rpc(self, src: str, dst: str, msg: WireMessage) -> WireMessage:
        """Blocking request/response exchange; advances the virtual clock
        through delivery, handler compute, and the reply leg. Both legs are
        subject to the per-message failure probability."""
        clock = self.clock
        ep = self._endpoints.get(dst)
        req_bytes = framed_nbytes(msg)
        if ep is None or not ep.online(clock.now + ep.one_way_s):
            profile = ep.profile if ep else self.default_profile
            clock.advance(profile.rtt_ms / 1000.0)
            if self.trace_enabled:
                self._record("conn_fail", src, dst, msg)
            raise ConnectionFailed(f"{dst} is offline")
        profile = ep.profile

        # request leg
        st = self.links.get((src, dst)) or self._link(src, dst)
        if self._draw() < ep.drop_p:
            st.drops += 1
            if self.trace_enabled:
                self._record("drop", src, dst, msg, req_bytes)
            clock.advance(profile.detect_s(req_bytes))
            raise MessageDropped(f"request {msg.kind.name} to {dst} lost")
        st.messages += 1
        st.bytes += req_bytes
        if self.trace_enabled:
            self._record("send", src, dst, msg, req_bytes)
        clock.advance_to(clock.now + ep.leg_s(req_bytes))

        # handler compute (may charge the clock)
        try:
            reply = ep.handler.handle(msg, self)
        except SimulatedCrash:
            ep.crashed = True
            if self.trace_enabled:
                self._record("crash", dst)
            clock.advance(profile.detect_s(0))
            raise ConnectionFailed(f"{dst} crashed mid-request")
        reply.session_id = msg.session_id

        # reply leg
        rep_bytes = framed_nbytes(reply)
        st = self.links.get((dst, src)) or self._link(dst, src)
        if self._draw() < ep.drop_p:
            st.drops += 1
            if self.trace_enabled:
                self._record("drop", dst, src, reply, rep_bytes)
            clock.advance(profile.detect_s(rep_bytes))
            raise MessageDropped(f"reply {reply.kind.name} from {dst} lost")
        st.messages += 1
        st.bytes += rep_bytes
        if self.trace_enabled:
            self._record("send", dst, src, reply, rep_bytes)
        clock.advance_to(clock.now + ep.leg_s(rep_bytes))
        return reply

    def run_ahead(self, src: str, calls: list[tuple[str, WireMessage]], round_s: float,
                  rounds: int, deadline: float | None) -> tuple[int, int]:
        """Book up to ``rounds`` rounds of ``calls`` up to the next
        interruption, as ``rpc`` would: a round sends each ``(dst, Step)`` in
        order, then charges the sender's ``round_s`` (0 for none). Returns
        (rounds booked whole, calls of the next round booked; ``len(calls)``
        when only its charge is left). Books nothing unless every ``dst`` is
        a handler with ``step_lease`` and no per-instance ``handle``, each
        once, and tracing is off."""
        if self.trace_enabled or len({dst for dst, _ in calls}) < len(calls):
            return 0, 0
        clock = self.clock
        t = clock.now
        limit = clock.next_due() if deadline is None else min(clock.next_due(), deadline)
        stages = []    # per call: endpoint, session, request and reply bytes
        timing = []    # per call: drop p, request leg, compute, reply leg, TTL
        for dst, msg in calls:
            ep = self._endpoints.get(dst)
            lease = getattr(ep and ep.handler, "step_lease", None)
            if lease is None or "handle" in vars(ep.handler):
                return 0, 0
            arrive = t + ep.one_way_s
            if not ep.online(arrive):
                return 0, 0
            run = lease(msg.session_id, msg.payload)
            if run is None:
                return 0, 0
            session, reply, charge_s, ttl_s, most = run
            rounds = min(rounds, most)
            if not ep.always_on:
                limit = min(limit, ep.churn.online_until(arrive))
            nq, nr = framed_nbytes(msg), framed_nbytes(reply)
            stages.append((ep, dst, session, nq, nr))
            timing.append((ep.drop_p, ep.leg_s(nq), charge_s, ep.leg_s(nr), ttl_s))

        # per call, as ``rpc`` and ``_step`` go: the request's draw and the
        # reply's, request leg, TTL check, compute, reply leg
        last = [session.last_activity for _, _, session, _, _ in stages]
        draws = self._drops.ahead(2)
        n, i, done, j, have = len(calls), 0, 0, 0, len(draws)
        while done < rounds:
            p, req_s, charge_s, rep_s, ttl_s = timing[j]
            if i + 2 > have:
                draws = self._drops.ahead(i + 2)
                have = len(draws)
            if draws[i] < p or draws[i + 1] < p:
                break
            a = t + req_s
            if a - last[j] > ttl_s:
                break
            b = a + charge_s
            c = b + rep_s
            if c >= limit:
                break
            last[j], t, i, j = b, c, i + 2, j + 1
            if j == n:
                c = t + round_s
                if c >= limit:
                    break
                t, j, done = c, 0, done + 1
        if not i:
            return 0, 0

        self._drops.skip(i)
        clock.advance_to(t)          # no agenda entry is due by t
        for at, (ep, dst, session, nq, nr) in enumerate(stages):
            k = done + (at < j)
            if not k:
                continue
            up = self.links.get((src, dst)) or self._link(src, dst)
            up.messages += k
            up.bytes += k * nq
            down = self.links.get((dst, src)) or self._link(dst, src)
            down.messages += k
            down.bytes += k * nr
            ep.handler.book_steps(session, k, last[at])
        return done, j

    def ping(self, src: str, dst: str) -> float:
        """Measured round-trip time in milliseconds. Pings ride a measurement
        channel: exact in simulation and exempt from the drop process."""
        ep = self._endpoints.get(dst)
        if ep is None or not ep.online(self.clock.now):
            self.clock.advance(PING_DEADLINE_S)
            raise Unreachable(f"{dst} did not answer ping")
        for m in (WireMessage(Ping()), WireMessage(Pong())):
            nbytes = framed_nbytes(m)
            a, b = (src, dst) if isinstance(m.payload, Ping) else (dst, src)
            st = self._link(a, b)
            st.messages += 1
            st.bytes += nbytes
        self.clock.advance(ep.profile.rtt_ms / 1000.0)
        return ep.profile.rtt_ms
