"""Generation strategies: oracle equality, recovery, communication accounting."""

from dataclasses import asdict

import numpy as np
import pytest

from swarmpipe import model as M
from swarmpipe.client import MAX_REROUTES, Strategy, _Stage
from swarmpipe.directory import BAN_COOLDOWN_S
from swarmpipe.errors import BudgetExhausted, CapacityError, SwarmUnavailableError
from swarmpipe.model import ModelConfig, init_model, reference_generate
from swarmpipe.netsim import ChurnSchedule, NetProfile
from swarmpipe.router import Hop
from swarmpipe.swarm import build_sim_swarm, build_swarm_from_config
from swarmpipe.wire import (Error, Forward, HiddenBlob, OpenSession, Pong, Step, StepResult,
                            WireMessage)


@pytest.fixture(scope="module")
def cfg():
    return ModelConfig(seed=1)


@pytest.fixture(scope="module")
def oracle64(cfg):
    return reference_generate(cfg, [5, 6, 7], 64)


def _refuse(srv, kind=OpenSession, code="not_serving", times=None,
            answer=None) -> list[int]:
    """Make ``srv`` answer ``kind`` requests with ``Error(code)``, or with
    the payload ``answer`` when given: the first ``times`` of them, or every
    one (None); returns the list of refused session ids. The 51st refusal
    raises instead, so a client that never gives up fails the test, not
    hangs it."""
    handle, refused = srv.handle, []

    def refuse(msg, net):
        if isinstance(msg.payload, kind) and len(refused) != times:
            if len(refused) == 50:
                raise AssertionError(f"{srv.server_id} refused 50 times")
            refused.append(msg.session_id)
            return WireMessage(Error(code, "refusing for the test") if answer is None
                               else answer)
        return handle(msg, net)

    srv.handle = refuse
    return refused


class TestFailureFree:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_matches_oracle_exactly(self, cfg, oracle64, strategy):
        swarm = build_sim_swarm(cfg, seed=0)
        res = swarm.client().generate([5, 6, 7], 64, strategy=strategy)
        assert res.tokens == oracle64

    def test_seeded_sampling_matches_oracle(self, cfg):
        want = reference_generate(cfg, [5], 32, mode="sample", sample_seed=11)
        swarm = build_sim_swarm(cfg, seed=0)
        res = swarm.client().generate([5], 32, mode="sample", sample_seed=11)
        assert res.tokens == want

    def test_zero_new_tokens(self, cfg):
        swarm = build_sim_swarm(cfg, seed=0)
        assert swarm.client().generate([9, 9], 0).tokens == [9, 9]

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_hop_over_part_of_a_span_runs_only_its_blocks(self, strategy):
        """The router takes a[0, 4) from a server holding [0, 6); no strategy
        may run blocks 4-5 twice."""
        swarm = build_swarm_from_config({"model": {"seed": 1}, "servers": [
            {"server_id": "a", "capacity": 6, "start": 0, "compute_tokens_per_s": 50},
            {"server_id": "b", "capacity": 4, "start": 4, "compute_tokens_per_s": 400}]})
        client = swarm.client()
        hops = client._route_chain(0, 8, None).hops
        assert [(h.server_id, h.start, h.end) for h in hops] == [("a", 0, 4), ("b", 4, 8)]
        res = client.generate([5, 6, 7], 16, strategy=strategy)
        assert res.tokens == reference_generate(ModelConfig(seed=1), [5, 6, 7], 16)

    def test_single_server_swarm(self, cfg, oracle64):
        swarm = build_sim_swarm(cfg, n_stages=1, replicas=1, seed=0)
        res = swarm.client().generate([5, 6, 7], 64)
        assert res.tokens == oracle64


def test_client_builds_only_the_embedding(cfg, monkeypatch):
    swarm = build_sim_swarm(cfg, seed=0)
    roles, uniform_weights = [], M._uniform_weights

    def spy(seed, block, role, *rest):
        roles.append(role)
        return uniform_weights(seed, block, role, *rest)

    monkeypatch.setattr(M, "_uniform_weights", spy)
    client = swarm.client()
    assert roles == ["embedding"]
    assert client.engine.params.embedding.tobytes() == init_model(cfg)[1].embedding.tobytes()



def _lineage_reference(log: list, width: int) -> np.ndarray | None:
    """Each slot's input sequence composed from a log of the rows sent
    ([width, n, d] arrays) and beam reorders (parent lists), walking back
    from the ``width`` current slots; None when no rows were logged."""
    anc = list(range(width))
    collected: list[list[np.ndarray]] = [[] for _ in range(width)]
    for item in reversed(log):
        if isinstance(item, list):
            anc = [item[a] for a in anc]
        else:
            for s in range(width):
                collected[s].append(item[anc[s]])
    if not collected[0]:
        return None
    return np.stack([np.concatenate(ch[::-1], axis=0) for ch in collected])


def test_stage_history_matches_reorder_log_composition():
    """A ``_Stage`` keeps its history in slot order; after any mix of rows
    and reorders (widening from 1 to k, shrinking, cloning) it equals the
    composition of the full log."""
    d = 3
    for seed in range(2000):
        rng = np.random.default_rng(seed)
        stage, log, width = _Stage(Hop("s", 0, 1, 0.0), 0), [], 1
        for _ in range(rng.integers(1, 12)):
            if rng.random() < 0.6:
                n = int(rng.integers(1, 4))
                rows = rng.standard_normal((width * n, d)).astype(np.float32)
                stage.record(rows, width, n)
                log.append(rows.reshape(width, n, d).copy())
            else:
                parents = rng.integers(0, width, int(rng.integers(1, 5))).tolist()
                stage.reorder(parents)
                log.append(parents)
                width = len(parents)
            got, want = stage.lineage(), _lineage_reference(log, width)
            assert (got is None) == (want is None)
            if want is not None:
                assert got.shape == want.shape and np.array_equal(got, want)


class TestRecovery:
    @pytest.mark.parametrize("seed", range(6))
    def test_dual_cache_tokens_survive_drops(self, cfg, oracle64, seed):
        swarm = build_sim_swarm(cfg, seed=seed,
                                profile=NetProfile(failure_prob=0.01))
        res = swarm.client().generate([5, 6, 7], 64, strategy=Strategy.DUAL_CACHE)
        assert res.tokens == oracle64

    def test_recovery_transfers_exactly_history(self, cfg, oracle64):
        swarm = build_sim_swarm(cfg, seed=3, profile=NetProfile(failure_prob=0.01))
        res = swarm.client().generate([5, 6, 7], 64, strategy=Strategy.DUAL_CACHE)
        assert res.counters.recoveries > 0
        for (_, _, t, nbytes) in res.counters.restore_events:
            assert nbytes == t * cfg.hidden_dim * 4

    def test_crash_failover_to_replica(self, cfg, oracle64):
        swarm = build_sim_swarm(cfg, seed=0,
                                server_overrides={"s1a": {"crash_after_messages": 6}})
        res = swarm.client().generate([5, 6, 7], 64)
        assert res.tokens == oracle64
        assert res.counters.recoveries >= 1

    def test_replacement_crash_mid_restore_second_succeeds(self, cfg):
        """First replacement dies during restore; the next one finishes."""
        model = ModelConfig(seed=1)
        swarm = build_sim_swarm(model, n_stages=4, replicas=3, seed=0,
                                server_overrides={
                                    "s1a": {"crash_after_messages": 6},
                                    "s1b": {"crash_after_messages": 2},
                                })
        res = swarm.client().generate([5, 6, 7], 64)
        assert res.tokens == reference_generate(model, [5, 6, 7], 64)
        assert res.counters.recoveries >= 2

    def test_multi_server_gap_fill(self, cfg):
        """A failed 2-block stage is replaced by two 1-block servers."""
        swarm = build_sim_swarm(cfg, n_stages=4, replicas=1, seed=0,
                                server_overrides={"s1a": {"crash_after_messages": 8}})
        # two halves of stage 1's [2,4) interval
        from swarmpipe.server import BlockServer, RealServerEngine, ServerCfg
        for sid, start in (("h2", 2), ("h3", 3)):
            srv = BlockServer(ServerCfg(sid, 1, start), RealServerEngine(cfg),
                              swarm.net, swarm.board)
            swarm.net.register(sid, srv)
            srv.start_timers()
            swarm.servers[sid] = srv
        swarm.net.clock.advance(0.1)
        res = swarm.client().generate([5, 6, 7], 64)
        assert res.tokens == reference_generate(cfg, [5, 6, 7], 64)
        used = {e[:2] for e in res.counters.restore_events}
        assert (2, 3) in used and (3, 4) in used

    def test_churn_offline_interval_recovers(self, cfg, oracle64):
        swarm = build_sim_swarm(
            cfg, seed=0,
            churn={"s2a": ChurnSchedule([(0.0, 3.0), (50.0, 10_000.0)])})
        res = swarm.client().generate([5, 6, 7], 64)
        assert res.tokens == oracle64

    def test_unroutable_swarm_raises(self, cfg):
        swarm = build_sim_swarm(cfg, n_stages=4, replicas=1, seed=0,
                                churn={"s3a": ChurnSchedule([(10_000.0, 10_001.0)])})
        with pytest.raises(SwarmUnavailableError):
            swarm.client().generate([5, 6, 7], 8)

    def test_refused_open_closes_the_hops_already_open(self, cfg, oracle64):
        """The third hop refuses OPEN_SESSION; the two hops opened before it
        are closed before the client routes around the refusal."""
        swarm = build_sim_swarm(cfg, seed=0)
        refused = _refuse(swarm.servers["s2a"])
        res = swarm.client().generate([5, 6, 7], 8)
        swarm.net.clock.advance(1.0)   # let the CLOSE posts land
        assert refused and res.tokens == oracle64[:11]
        assert {k: len(s.sessions) for k, s in swarm.servers.items() if s.sessions} == {}

    @pytest.mark.parametrize("strategy, kind", [
        (Strategy.DUAL_CACHE, OpenSession), (Strategy.RESTART, OpenSession),
        (Strategy.CACHELESS, Forward)], ids=["dual-cache", "restart", "cacheless"])
    def test_refusing_only_replica_ends_unavailable(self, strategy, kind):
        """The only server of [4, 6) refuses every open (or every cache-less
        Forward). Each refusal costs a ban and a new chain through the same
        server once the ban ends; after ``MAX_REROUTES`` of them the client
        gives up, since without a deadline nothing else would stop it."""
        swarm = build_sim_swarm(ModelConfig(seed=0), replicas=1, seed=0, engine="timed")
        refused = _refuse(swarm.servers["s2a"], kind)
        with pytest.raises(SwarmUnavailableError):
            swarm.client().generate([1, 2, 3], 4, strategy=strategy)
        assert len(refused) == MAX_REROUTES

    def test_reply_of_the_wrong_kind_costs_a_ban(self, cfg, oracle64):
        """s1a and s1b each answer their first ``Step`` with ``Pong``. Each
        wrong reply bans its server and replaces its stage, as a lost reply
        would, and the run still gives the oracle's tokens."""
        swarm = build_sim_swarm(cfg, seed=0)
        wrong = [_refuse(swarm.servers[sid], Step, times=1, answer=Pong())
                 for sid in ("s1a", "s1b")]
        res = swarm.client().generate([5, 6, 7], 64)
        assert res.tokens == oracle64
        assert [len(w) for w in wrong] == [1, 1]
        assert res.counters.recoveries == 2

    def test_reply_of_the_wrong_shape_costs_a_ban(self, cfg, oracle64):
        """s1a and s1b each answer their first ``Step`` with a 7-row
        ``StepResult``. The client refuses it before booking the step, bans
        the server and repeats the step on a replacement at the same
        position, and the run still gives the oracle's tokens."""
        swarm = build_sim_swarm(cfg, seed=0)
        blob = HiddenBlob.from_array(np.zeros((7, cfg.hidden_dim), np.float32))
        wrong = [_refuse(swarm.servers[sid], Step, times=1, answer=StepResult(blob))
                 for sid in ("s1a", "s1b")]
        res = swarm.client().generate([5, 6, 7], 64)
        assert res.tokens == oracle64
        assert [len(w) for w in wrong] == [1, 1]
        assert res.counters.recoveries == 2

    @pytest.mark.parametrize("code", ["expired", "capacity", "not_serving"])
    def test_refused_decode_step_maps_like_any_stage_rpc(self, cfg, oracle64, code):
        """s2a refuses the first decode-loop ``Step`` it gets. ``expired``
        rebuilds the stage on s2a without a ban, ``capacity`` ends the run,
        and ``not_serving`` bans s2a and replaces its stage."""
        swarm = build_sim_swarm(cfg, seed=0)
        refused = _refuse(swarm.servers["s2a"], Step, code, times=1)
        client = swarm.client()
        if code == "capacity":
            with pytest.raises(CapacityError):
                client.generate([5, 6, 7], 64)
            assert len(refused) == 1
            return
        res = client.generate([5, 6, 7], 64)
        assert len(refused) == 1 and res.tokens == oracle64
        assert res.counters.recoveries == 1
        assert [e[:2] for e in res.counters.restore_events] == [(4, 6)]
        assert client.bans.is_banned("s2a") == (code == "not_serving")
        served = {k for k, s in swarm.servers.items() if s.handled and k.startswith("s2")}
        assert served == ({"s2a"} if code == "expired" else {"s2a", "s2b"})

    def test_refused_replacement_closes_the_hops_already_rebuilt(self, cfg):
        """s1a crashes and [2, 4) is replaced by h2 + h3; h3 refuses, so the
        client routes h2 + h3b and closes the session it rebuilt on h2."""
        swarm = build_sim_swarm(cfg, n_stages=4, replicas=1, seed=0,
                                server_overrides={"s1a": {"crash_after_messages": 8}})
        from swarmpipe.server import BlockServer, RealServerEngine, ServerCfg
        for sid, start in (("h2", 2), ("h3", 3), ("h3b", 3)):
            srv = BlockServer(ServerCfg(sid, 1, start), RealServerEngine(cfg),
                              swarm.net, swarm.board)
            swarm.net.register(sid, srv)
            srv.start_timers()
            swarm.servers[sid] = srv
        swarm.net.clock.advance(0.1)
        refused = _refuse(swarm.servers["h3"])
        res = swarm.client().generate([5, 6, 7], 32)
        swarm.net.clock.advance(1.0)   # let the CLOSE posts land
        assert refused and res.tokens == reference_generate(cfg, [5, 6, 7], 32)
        assert [e[:2] for e in res.counters.restore_events] == [(2, 3), (2, 3), (3, 4)]
        assert len(swarm.servers["h2"].sessions) == 0

    def test_ban_expires_and_server_returns(self, cfg, oracle64):
        swarm = build_sim_swarm(cfg, seed=0)
        client = swarm.client()
        client.bans.ban("s0a")
        client.refresh_routes()
        assert "s0a" not in client.graph.servers
        swarm.net.clock.advance(BAN_COOLDOWN_S + 0.1)
        client.refresh_routes()
        assert "s0a" in client.graph.servers

    def test_restart_strategy_restarts_from_scratch(self, cfg, oracle64):
        swarm = build_sim_swarm(cfg, seed=1, profile=NetProfile(failure_prob=8e-3))
        res = swarm.client().generate([5, 6, 7], 64, strategy=Strategy.RESTART)
        assert res.tokens == oracle64
        assert res.counters.restarts >= 1
        assert res.counters.restore_events == []

    def test_restart_attempts_close_their_sessions(self, cfg):
        """A failed attempt closes its sessions rather than leaving them to
        the TTL purge; only sessions whose CLOSE or open reply was lost stay."""
        swarm = build_sim_swarm(cfg, seed=1, profile=NetProfile(failure_prob=8e-3))
        res = swarm.client().generate([5, 6, 7], 64, strategy=Strategy.RESTART)
        swarm.net.clock.advance(1.0)   # let the last CLOSE posts land
        left = sum(len(s.sessions) for s in swarm.servers.values())
        assert res.counters.restarts > 10
        assert left < res.counters.restarts

    def test_cacheless_retries_only_failed_step(self, cfg, oracle64):
        swarm = build_sim_swarm(cfg, seed=1, profile=NetProfile(failure_prob=5e-3))
        res = swarm.client().generate([5, 6, 7], 64, strategy=Strategy.CACHELESS)
        assert res.tokens == oracle64
        assert res.counters.retries + res.counters.recoveries >= 1


def _engine_fingerprint(cfg, engine: str, swarm_kw: dict, gen_kw: dict, n_new: int):
    """Everything a run shows of its virtual outcome: the elapsed time (or
    the error raised) and every ``RunCounters`` field, the clock, each
    link's (messages, bytes, drops), and each server's message count and
    open sessions."""
    swarm = build_sim_swarm(cfg, engine=engine, **swarm_kw)
    try:
        res = swarm.client().generate([5, 6, 7], n_new, **gen_kw)
        outcome = ("done", res.elapsed_s.hex(), asdict(res.counters))
    except (BudgetExhausted, SwarmUnavailableError) as e:
        outcome = (type(e).__name__, str(e), asdict(e.counters))
    links = sorted((k, (s.messages, s.bytes, s.drops)) for k, s in swarm.net.links.items())
    servers = [(srv.handled, sorted((sid, s.positions, s.last_activity.hex())
                                    for sid, s in srv.sessions.items()))
               for srv in swarm.server_list()]
    return outcome, swarm.net.clock.now.hex(), links, servers


# (swarm keywords, generate keywords, tokens) by case id: 8 clean tokens on
# each strategy, 64 at p = 1e-2, then runs of steps broken mid-generation by
# each rule of the simulator or the server
_ONE_STAGE = dict(seed=3, replicas=1)
_ENGINE_CASES = {
    **{f"{s}-{q}": (dict(seed=1), dict(strategy=s, quantized=q), 8)
       for q in (False, True) for s in Strategy},
    **{f"drops-{seed}-{s.value}": (dict(seed=seed, profile=NetProfile(failure_prob=1e-2)),
                                   dict(strategy=s), 64)
       for seed in (1, 2) for s in Strategy},
    "deadline-restart": (dict(seed=1), dict(strategy=Strategy.RESTART, deadline_s=3.0), 64),
    "deadline-dual": (dict(seed=1, profile=NetProfile(failure_prob=1e-2)),
                      dict(strategy=Strategy.DUAL_CACHE, deadline_s=4.0), 64),
    "ttl-dual": (dict(_ONE_STAGE, server_overrides={"s2a": {"session_ttl_s": 0.05}}),
                 dict(strategy=Strategy.DUAL_CACHE), 64),
    "ttl-restart": (dict(_ONE_STAGE, server_overrides={"s1a": {"session_ttl_s": 0.05}}),
                    dict(strategy=Strategy.RESTART, deadline_s=20.0), 64),
    "crash-dual": (dict(seed=1, server_overrides={"s2a": {"crash_after_messages": 30}}),
                   dict(strategy=Strategy.DUAL_CACHE), 64),
    "crash-restart": (dict(seed=1, server_overrides={"s1a": {"crash_after_messages": 30},
                                                     "s1b": {"crash_after_messages": 30}}),
                      dict(strategy=Strategy.RESTART), 64),
    "churn-dual": (dict(seed=1, churn={"s1a": ChurnSchedule(((0.0, 2.5), (4.0, 1e9))),
                                       "s1b": ChurnSchedule(((0.0, 2.5), (4.0, 1e9)))}),
                   dict(strategy=Strategy.DUAL_CACHE), 64),
    "churn-restart": (dict(seed=1, churn={"s2a": ChurnSchedule(((0.0, 3.0),)),
                                          "s2b": ChurnSchedule(((0.0, 3.0), (5.0, 1e9)))}),
                      dict(strategy=Strategy.RESTART), 64),
    "balancer": (dict(seed=1, n_stages=2, balancer=True, compute_tokens_per_s=4.0,
                      server_overrides={"s1b": {"compute_tokens_per_s": 1000.0}},
                      profile=NetProfile(failure_prob=1e-3)),
                 dict(strategy=Strategy.DUAL_CACHE), 96),
    # abandoned sessions lapse after 2 s; a server's OpenSession forgets them, once per 2 s
    "purge": (dict(_ONE_STAGE, profile=NetProfile(failure_prob=1e-2),
                   server_overrides={f"s{i}a": {"session_ttl_s": 2.0} for i in range(4)}),
              dict(strategy=Strategy.DUAL_CACHE), 300),
}


class TestCommunicationAccounting:
    def test_dual_cache_per_step_bytes_constant(self, cfg):
        swarm = build_sim_swarm(cfg, seed=0, engine="timed")
        res = swarm.client().generate([1] * 8, 100, strategy=Strategy.DUAL_CACHE)
        steady = res.counters.per_step_bytes[1:]   # step 0 carries the prefix
        assert len(set(steady)) == 1
        assert steady[0] == cfg.hidden_dim * 4 * 4   # one row through 4 stages

    def test_cacheless_bytes_grow_linearly_per_step(self, cfg):
        swarm = build_sim_swarm(cfg, seed=0, engine="timed")
        res = swarm.client().generate([1] * 8, 100, strategy=Strategy.CACHELESS)
        per = res.counters.per_step_bytes
        diffs = {b - a for a, b in zip(per, per[1:])}
        assert diffs == {cfg.hidden_dim * 4 * 4}   # one extra row per stage per step
        total = sum(per)
        t0 = 8
        n = 100
        expect = sum((t0 + i) * cfg.hidden_dim * 4 * 4 for i in range(n))
        assert total == expect

    def test_total_step_payload_linear_in_tokens(self, cfg):
        swarm = build_sim_swarm(cfg, seed=0, engine="timed")
        res = swarm.client().generate([1] * 4, 50, strategy=Strategy.DUAL_CACHE)
        # prefix rows + one row per generated token, through each of 4 stages
        expect = (4 + 49) * cfg.hidden_dim * 4 * 4
        assert res.counters.step_activation_bytes == expect

    @pytest.mark.parametrize("case", list(_ENGINE_CASES))
    def test_timed_engine_matches_real_bytes_and_time(self, cfg, case):
        """The shape-only engine books uninterrupted runs of decode steps in
        bulk, and every interruption on the ordinary path; the real engine
        never runs ahead. Both give the same virtual outcome."""
        swarm_kw, gen_kw, n_new = _ENGINE_CASES[case]
        real = _engine_fingerprint(cfg, "real", swarm_kw, gen_kw, n_new)
        timed = _engine_fingerprint(cfg, "timed", swarm_kw, gen_kw, n_new)
        assert real == timed


def test_run_ahead_stops_before_max_seq_len():
    """A run of Steps ends where the next one would pass ``max_seq_len``;
    that one goes through ``rpc`` and is refused."""
    cfg = ModelConfig(max_seq_len=20)
    swarm = build_sim_swarm(cfg, engine="timed", replicas=1)
    client = swarm.client()
    stages = client._open_chain(False, None)
    blob = HiddenBlob.shape_only(1, cfg.hidden_dim)

    def calls(position):
        return [(s.hop.server_id, WireMessage(Step(position, blob, 1, 1), s.session_id))
                for s in stages]
    assert swarm.net.run_ahead(client.name, calls(0), 0.0, 100, None) == (20, 0)
    for dst, msg in calls(20):
        assert swarm.net.rpc(client.name, dst, msg).payload.code == "capacity"


class TestQuantizedMode:
    def test_quantized_run_completes_and_tokens_plausible(self, cfg):
        swarm = build_sim_swarm(cfg, seed=0)
        res = swarm.client().generate([5, 6, 7], 32, quantized=True)
        assert len(res.tokens) == 35
        assert all(0 <= t < cfg.vocab_size for t in res.tokens)

    def test_quantized_wire_bytes_under_half(self, cfg):
        exact = build_sim_swarm(cfg, seed=0, engine="timed")
        exact.client().generate([1] * 8, 64)
        raw_bytes = exact.net.total_bytes()
        quant = build_sim_swarm(cfg, seed=0, engine="timed")
        quant.client().generate([1] * 8, 64, quantized=True)
        q_bytes = quant.net.total_bytes()
        assert q_bytes < 0.6 * raw_bytes   # headers keep it just above half

    def test_reopened_final_stage_stays_exact(self, cfg):
        """Sessions on the last stage lapse between steps and are reopened in
        place; every open there keeps the client's head input unquantized."""
        swarm = build_sim_swarm(cfg, replicas=1, seed=0,
                                server_overrides={"s3a": {"session_ttl_s": 0.01}})
        srv = swarm.servers["s3a"]
        handle, flags = srv.handle, []

        def spy(msg, ctx):
            if isinstance(msg.payload, OpenSession):
                flags.append(msg.payload.quantized)
            return handle(msg, ctx)

        srv.handle = spy
        res = swarm.client().generate([5, 6, 7], 16, quantized=True)
        assert res.counters.recoveries > 0
        assert len(flags) > 1 and not any(flags)

    def test_quantized_recovery_still_terminates(self, cfg):
        swarm = build_sim_swarm(cfg, seed=2, profile=NetProfile(failure_prob=0.01))
        res = swarm.client().generate([5, 6, 7], 32, quantized=True)
        assert len(res.tokens) == 35

