"""Simulated transport: drop statistics, delays, churn, determinism."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from swarmpipe.errors import ConnectionFailed, MessageDropped, Unreachable
from swarmpipe.netsim import DROP_DRAWS, ChurnSchedule, NetProfile, SimNetwork, VirtualClock
from swarmpipe.wire import Announce, Ping, Pong, WireMessage, framed_nbytes


class _Echo:
    def __init__(self, compute_s: float = 0.0):
        self.compute_s = compute_s
        self.seen = []
        self.nets = []

    def handle(self, msg, net):
        self.seen.append((net.clock.now, msg.kind.name))
        self.nets.append(net)
        if self.compute_s:
            net.clock.charge(self.compute_s)
        return WireMessage(Pong())


def _net(p=0.0, seed=0, rtt=10.0, bw=1e9, **kw):
    net = SimNetwork(seed=seed, default_profile=NetProfile(bw, rtt, p), **kw)
    echo = _Echo()
    net.register("srv", echo)
    return net, echo


class TestClock:
    @pytest.mark.parametrize("move", ["advance_to", "advance", "charge"])
    def test_agenda_order(self, move):
        """Passing time and charging modelled time run the same due timers,
        in order, and end at the same instant."""
        clock = VirtualClock()
        clock.advance_to(0.25)
        out = []
        clock.schedule(2.0, lambda: out.append(2))
        clock.schedule(0.5, lambda: out.append(0))
        clock.schedule(9.0, lambda: out.append(9))
        getattr(clock, move)(3.0 if move == "advance_to" else 2.75)
        assert out == [0, 2]
        assert clock.now == 3.0

    def test_callbacks_can_reschedule(self):
        clock = VirtualClock()
        ticks = []

        def tick():
            ticks.append(clock.now)
            if len(ticks) < 3:
                clock.schedule(clock.now + 1.0, tick)

        clock.schedule(1.0, tick)
        clock.advance_to(10.0)
        assert ticks == [1.0, 2.0, 3.0]


class TestSend:
    def test_p_zero_never_fails(self):
        net, echo = _net(p=0.0)
        ok = sum(net.post("c", "srv", WireMessage(Ping())) for _ in range(10_000))
        assert ok == 10_000

    def test_p_one_always_fails(self):
        net, _ = _net(p=1.0)
        assert not any(net.post("c", "srv", WireMessage(Ping())) for _ in range(100))

    def test_binomial_drop_count(self):
        net, _ = _net(p=0.01, seed=123)
        fails = sum(not net.post("c", "srv", WireMessage(Ping())) for _ in range(100_000))
        assert abs(fails - 1000) <= 3 * 31.5

    def test_delivery_delay_rtt_plus_transfer(self):
        net, echo = _net(rtt=100.0, bw=1e6)   # 1 Mbit/s
        msg = WireMessage(Ping())
        net.post("c", "srv", msg)
        net.clock.advance_to(10.0)
        expect = 0.05 + framed_nbytes(msg) * 8 / 1e6
        assert echo.seen[0][0] == pytest.approx(expect)

    def test_fifo_per_pair(self):
        net, echo = _net()
        for _ in range(5):
            net.post("c", "srv", WireMessage(Ping()))
        net.clock.advance_to(1.0)
        times = [t for t, _ in echo.seen]
        assert times == sorted(times)

    def test_offline_is_connection_error_not_drop(self):
        net = SimNetwork(seed=0)
        net.register("srv", _Echo(), churn=ChurnSchedule([(10.0, 20.0)]))
        with pytest.raises(ConnectionFailed):
            net.post("c", "srv", WireMessage(Ping()))
        net.clock.advance_to(15.0)
        assert net.post("c", "srv", WireMessage(Ping()))
        net.clock.advance_to(25.0)
        with pytest.raises(ConnectionFailed):
            net.post("c", "srv", WireMessage(Ping()))

    def test_byte_accounting_exact(self):
        net, _ = _net()
        msg = WireMessage(Ping())
        for _ in range(7):
            net.post("c", "srv", msg)
        assert net.links[("c", "srv")].bytes == 7 * framed_nbytes(msg)
        assert net.links[("c", "srv")].messages == 7


class TestRpc:
    def test_round_trip_time(self):
        net, _ = _net(rtt=100.0)
        t0 = net.clock.now
        net.rpc("c", "srv", WireMessage(Ping()))
        assert net.clock.now - t0 == pytest.approx(0.1, rel=1e-3)

    def test_request_drop_costs_detection_budget(self):
        net, echo = _net(p=1.0, rtt=100.0)
        msg = WireMessage(Ping())
        t0 = net.clock.now
        with pytest.raises(MessageDropped):
            net.rpc("c", "srv", msg)
        detect = 0.4 + 2 * framed_nbytes(msg) * 8 / 1e9
        assert net.clock.now - t0 == pytest.approx(detect)
        assert echo.seen == []

    def test_handler_compute_advances_clock(self):
        net = SimNetwork(seed=0, default_profile=NetProfile(rtt_ms=0.0))
        net.register("srv", _Echo(compute_s=2.5))
        t0 = net.clock.now
        net.rpc("c", "srv", WireMessage(Ping()))
        assert net.clock.now - t0 >= 2.5

    def test_every_handler_gets_the_network_s_one_context(self):
        """Whoever sends, and whether by ``rpc`` or ``post``, every handler
        is handed the network itself."""
        net, echo = _net()
        other = _Echo()
        net.register("srv2", other)
        for src, dst in (("c1", "srv"), ("c2", "srv"), ("c1", "srv2")):
            net.rpc(src, dst, WireMessage(Ping()))
        net.post("c2", "srv2", WireMessage(Ping()))
        net.clock.advance(1.0)
        nets = echo.nets + other.nets
        assert len(nets) == 4 and all(n is net for n in nets)

    def test_timers_fire_during_compute(self):
        net = SimNetwork(seed=0)
        net.register("srv", _Echo(compute_s=5.0))
        fired = []
        net.clock.schedule(2.0, lambda: fired.append(net.clock.now))
        net.rpc("c", "srv", WireMessage(Ping()))
        assert fired == [2.0]


class TestDropStream:
    """Drops read one buffered PCG64 stream; every leg takes the next draw."""

    @staticmethod
    def _send(net, i, dst):
        """Send i (an rpc on odd i, else a post): 'ok', 'request' or 'reply'
        for the leg that was lost."""
        if i % 2 == 0:
            return "ok" if net.post("c", dst, WireMessage(Ping())) else "request"
        try:
            net.rpc("c", dst, WireMessage(Ping()))
            return "ok"
        except MessageDropped as e:
            return "request" if str(e).startswith("request") else "reply"

    @staticmethod
    def _reference(draw, i, p):
        """The same outcome from scalar draws: a post and a request leg take
        one draw, and a reply leg one more."""
        if draw() < p:
            return "request"
        if i % 2 == 0:
            return "ok"
        return "reply" if draw() < p else "ok"

    def test_matches_scalar_draws(self):
        """Sends draw the scalar stream's values in order, past two refills.
        With look-ahead ``k`` > 0 the run-ahead's reads go in between: read
        ``k`` values ahead (the rest of the current chunk, then further
        chunks), take ``k`` or half of them, and every later draw stays where
        the scalar stream has it."""
        p, seed = 0.5, 11
        for k in (0, 1, 7, DROP_DRAWS - 1, DROP_DRAWS, DROP_DRAWS + 3):
            net, _ = _net(p=p, seed=seed)
            draw = np.random.Generator(np.random.PCG64(seed)).random
            stream = net._drops
            got, want = [], []
            for i in range(3 * DROP_DRAWS):      # at least 1.5 draws a send
                if k and i % 3 == 0:
                    ahead = list(stream.ahead(k))
                    assert len(ahead) >= k
                    assert stream.ahead(k)[:k] == ahead[:k]   # reading ahead took nothing
                    use = k if i % 2 else k // 2               # some values read ahead stay
                    assert ahead[:use] == [draw() for _ in range(use)]
                    stream.skip(use)
                got.append(self._send(net, i, "srv"))
                want.append(self._reference(draw, i, p))
            assert got == want, f"look-ahead {k}"
            assert {"ok", "request", "reply"} <= set(got)

    def test_zero_override_still_draws(self):
        """A leg to a p = 0 endpoint takes its draw, so the drops of the
        other endpoints stay where the stream puts them."""
        p, seed = 0.5, 5
        net, _ = _net(p=p, seed=seed)
        net.register("safe", _Echo(), drop_override=0.0)
        draw = np.random.Generator(np.random.PCG64(seed)).random
        for i in range(2 * DROP_DRAWS):
            if i % 3 == 0:
                assert self._send(net, i, "safe") == self._reference(draw, i, 0.0) == "ok"
            else:
                assert self._send(net, i, "srv") == self._reference(draw, i, p)


class TestFrozenConfig:
    """Endpoints work out their link constants once, at ``register``."""

    def test_profile_fields_cannot_change(self):
        with pytest.raises(FrozenInstanceError):
            NetProfile().failure_prob = 0.5

    def test_churn_schedule_cannot_change(self):
        churn = ChurnSchedule([(1.0, 2.0)])
        assert churn.intervals == ((1.0, 2.0),)
        with pytest.raises(FrozenInstanceError):
            churn.intervals = ()


class TestPing:
    def test_exact_rtt(self):
        net, _ = _net(rtt=100.0)
        assert net.ping("c", "srv") == 100.0

    def test_zero_variance(self):
        net, _ = _net(rtt=37.0)
        samples = {net.ping("c", "srv") for _ in range(3)}
        assert samples == {37.0}

    def test_offline_unreachable(self):
        net = SimNetwork(seed=0)
        net.register("srv", _Echo(), churn=ChurnSchedule([(5.0, 6.0)]))
        with pytest.raises(Unreachable):
            net.ping("c", "srv")


class TestDeterminism:
    def _trace(self, seed):
        net = SimNetwork(seed=seed, default_profile=NetProfile(1e8, 20.0, 0.05),
                         trace=True)
        net.register("srv", _Echo())
        outcomes = []
        for i in range(500):
            try:
                net.rpc("c", "srv", WireMessage(Ping()))
                outcomes.append(1)
            except MessageDropped:
                outcomes.append(0)
        return outcomes, list(net.trace), net.total_bytes(), net.clock.now

    def test_same_seed_same_everything(self):
        a = self._trace(7)
        b = self._trace(7)
        assert a == b

    def test_different_seed_differs(self):
        assert self._trace(7)[0] != self._trace(8)[0]

    def test_trace_names_each_message_kind(self):
        net, _ = _net(trace=True)
        ping, pong = WireMessage(Ping()), WireMessage(Pong())
        net.rpc("c", "srv", ping)
        with pytest.raises(ConnectionFailed):
            net.rpc("c", "nowhere", ping)
        assert [e[1:] for e in net.trace] == [
            ("send", "c", "srv", "PING", framed_nbytes(ping)),
            ("send", "srv", "c", "PONG", framed_nbytes(pong)),
            ("conn_fail", "c", "nowhere", "PING")]
        assert net.trace[0][0] == 0.0 < net.trace[1][0]

    def test_untraced_network_never_reads_message_kinds(self):
        class Counted(WireMessage):
            reads = 0

            @property
            def kind(self):
                Counted.reads += 1
                return super().kind

        class Replier:
            def handle(self, msg, net):
                return Counted(Pong())

        net = SimNetwork(seed=0)
        net.register("srv", Replier())
        net.rpc("c", "srv", Counted(Ping()))
        net.post("c", "srv", Counted(Ping()))
        net.clock.advance(1.0)
        assert Counted.reads == 0 and net.trace == []
