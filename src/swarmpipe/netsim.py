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

Blocking exchanges (``rpc``) advance the clock through request delivery,
handler compute, and the reply leg. Handlers spend compute with
``ctx.consume``, which charges the clock (``VirtualClock.charge``: the same
as ``advance`` here, free on the TCP transport's wall clock). Fire-and-
forget sends (``post``) schedule their delivery effect on the clock agenda
without blocking; timers (the servers' announce and rebalance loops) run the
same way and interleave deterministically with client traffic. Churn needs no
timer: ``online`` reads the schedule at the current time.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from .errors import ConnectionFailed, MessageDropped, ProtocolError, Unreachable
from .wire import WireMessage, Error, Ping, Pong, framed_nbytes


@dataclass
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


@dataclass
class ChurnSchedule:
    """Sorted, non-overlapping (on_time, off_time) intervals in simulated
    seconds. An empty schedule means always on."""

    intervals: list[tuple[float, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        last = -np.inf
        for on, off in self.intervals:
            if on >= off or on < last:
                raise ProtocolError("churn intervals must be sorted and non-overlapping")
            last = off

    def online(self, t: float) -> bool:
        if not self.intervals:
            return True
        return any(on <= t < off for on, off in self.intervals)


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
        while self._agenda and self._agenda[0][0] <= t:
            when, _, fn = heapq.heappop(self._agenda)
            self.now = when
            fn()
        if t > self.now:
            self.now = t

    def advance(self, dt: float) -> None:
        self.advance_to(self.now + dt)

    def charge(self, dt: float) -> None:
        """Spend modelled work time (compute, bookkeeping). On virtual time
        that is time passing, exactly as ``advance``."""
        self.advance_to(self.now + dt)


class SimulatedCrash(Exception):
    """Raised by a handler's failure-injection hook: the server dies mid-request."""


class Handler(Protocol):
    def handle(self, msg: WireMessage, ctx: "HandlerContext") -> WireMessage: ...


@dataclass
class LinkStats:
    messages: int = 0
    bytes: int = 0
    drops: int = 0


class HandlerContext:
    """What a handler sees while serving one message, on either transport."""

    def __init__(self, net, src: str, dst: str):
        self.net = net
        self.src = src
        self.dst = dst

    @property
    def now(self) -> float:
        return self.net.clock.now

    def consume(self, seconds: float) -> None:
        """Charge modelled compute time to the network's clock."""
        if seconds > 0:
            self.net.clock.charge(seconds)


@dataclass
class _Endpoint:
    handler: Handler
    profile: NetProfile
    churn: ChurnSchedule
    drop_override: float | None = None
    crashed: bool = False


class SimNetwork:
    """Single-threaded discrete-event network over a virtual clock."""

    def __init__(self, seed: int = 0, default_profile: NetProfile | None = None,
                 trace: bool = False):
        self.clock = VirtualClock()
        self.default_profile = default_profile or NetProfile()
        self._rng = np.random.Generator(np.random.PCG64(seed))
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
        return (not ep.crashed) and ep.churn.online(self.clock.now if t is None else t)

    # -- accounting ---------------------------------------------------------

    def _link(self, src: str, dst: str) -> LinkStats:
        st = self.links.get((src, dst))
        if st is None:
            st = self.links[(src, dst)] = LinkStats()
        return st

    def total_bytes(self) -> int:
        return sum(s.bytes for s in self.links.values())

    def _record(self, *event) -> None:
        """Trace (now, *event) when tracing is on; a message is traced by its
        kind name, resolved only then."""
        if self.trace_enabled:
            self.trace.append((self.clock.now,) + tuple(
                e.kind.name if isinstance(e, WireMessage) else e for e in event))

    def _drop_prob(self, ep: _Endpoint) -> float:
        return ep.drop_override if ep.drop_override is not None else ep.profile.failure_prob

    # -- primitives ----------------------------------------------------------

    def post(self, src: str, dst: str, msg: WireMessage) -> bool:
        """Fire-and-forget send. Returns False if the message was dropped.
        Raises ConnectionFailed if the destination is offline. Never blocks:
        the delivery effect runs from the agenda at arrival time."""
        ep = self._endpoints.get(dst)
        if ep is None or not self.online(dst):
            self._record("conn_fail", src, dst, msg)
            raise ConnectionFailed(f"{dst} is offline")
        nbytes = framed_nbytes(msg)
        if self._rng.random() < self._drop_prob(ep):
            self._link(src, dst).drops += 1
            self._record("drop", src, dst, msg, nbytes)
            return False
        st = self._link(src, dst)
        st.messages += 1
        st.bytes += nbytes
        t_arrive = self.clock.now + ep.profile.one_way_s() + ep.profile.transfer_s(nbytes)
        self._record("send", src, dst, msg, nbytes, t_arrive)

        def deliver() -> None:
            if self.online(dst):
                try:
                    ep.handler.handle(msg, HandlerContext(self, src, dst))
                except SimulatedCrash:
                    ep.crashed = True
        self.clock.schedule(t_arrive, deliver)
        return True

    def rpc(self, src: str, dst: str, msg: WireMessage) -> WireMessage:
        """Blocking request/response exchange; advances the virtual clock
        through delivery, handler compute, and the reply leg. Both legs are
        subject to the per-message failure probability."""
        ep = self._endpoints.get(dst)
        profile = ep.profile if ep else self.default_profile
        req_bytes = framed_nbytes(msg)
        if ep is None or not self.online(dst, self.clock.now + profile.one_way_s()):
            self.clock.advance(profile.rtt_ms / 1000.0)
            self._record("conn_fail", src, dst, msg)
            raise ConnectionFailed(f"{dst} is offline")

        # request leg
        if self._rng.random() < self._drop_prob(ep):
            self._link(src, dst).drops += 1
            self._record("drop", src, dst, msg, req_bytes)
            self.clock.advance(profile.detect_s(req_bytes))
            raise MessageDropped(f"request {msg.kind.name} to {dst} lost")
        st = self._link(src, dst)
        st.messages += 1
        st.bytes += req_bytes
        self._record("send", src, dst, msg, req_bytes)
        self.clock.advance(profile.one_way_s() + profile.transfer_s(req_bytes))

        # handler compute (may advance the clock via ctx.consume)
        try:
            reply = ep.handler.handle(msg, HandlerContext(self, src, dst))
        except SimulatedCrash:
            ep.crashed = True
            self._record("crash", dst)
            self.clock.advance(profile.detect_s(0))
            raise ConnectionFailed(f"{dst} crashed mid-request")
        reply.session_id = msg.session_id

        # reply leg
        rep_bytes = framed_nbytes(reply)
        if self._rng.random() < self._drop_prob(ep):
            self._link(dst, src).drops += 1
            self._record("drop", dst, src, reply, rep_bytes)
            self.clock.advance(profile.detect_s(rep_bytes))
            raise MessageDropped(f"reply {reply.kind.name} from {dst} lost")
        st = self._link(dst, src)
        st.messages += 1
        st.bytes += rep_bytes
        self._record("send", dst, src, reply, rep_bytes)
        self.clock.advance(profile.one_way_s() + profile.transfer_s(rep_bytes))
        return reply

    def ping(self, src: str, dst: str, deadline_s: float = 5.0) -> float:
        """Measured round-trip time in milliseconds. Pings ride a measurement
        channel: exact in simulation and exempt from the drop process."""
        ep = self._endpoints.get(dst)
        if ep is None or not self.online(dst):
            self.clock.advance(deadline_s)
            raise Unreachable(f"{dst} did not answer ping")
        for m in (WireMessage(Ping()), WireMessage(Pong())):
            nbytes = framed_nbytes(m)
            a, b = (src, dst) if isinstance(m.payload, Ping) else (dst, src)
            st = self._link(a, b)
            st.messages += 1
            st.bytes += nbytes
        self.clock.advance(ep.profile.rtt_ms / 1000.0)
        return ep.profile.rtt_ms
