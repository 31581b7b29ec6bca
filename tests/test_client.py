"""Generation strategies: oracle equality, recovery, communication accounting."""

import numpy as np
import pytest

from swarmpipe.client import Strategy
from swarmpipe.errors import SwarmUnavailableError
from swarmpipe.model import ModelConfig, reference_generate
from swarmpipe.netsim import ChurnSchedule, NetProfile
from swarmpipe.swarm import build_sim_swarm
from swarmpipe.wire import OpenSession


@pytest.fixture(scope="module")
def cfg():
    return ModelConfig(seed=1)


@pytest.fixture(scope="module")
def oracle64(cfg):
    return reference_generate(cfg, [5, 6, 7], 64)


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

    def test_single_server_swarm(self, cfg, oracle64):
        swarm = build_sim_swarm(cfg, n_stages=1, replicas=1, seed=0)
        res = swarm.client().generate([5, 6, 7], 64)
        assert res.tokens == oracle64


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
        client = swarm.client(reroute_backoff_s=0.5)
        with pytest.raises(SwarmUnavailableError):
            client.generate([5, 6, 7], 8)

    def test_ban_expires_and_server_returns(self, cfg, oracle64):
        swarm = build_sim_swarm(cfg, seed=0)
        client = swarm.client(ban_cooldown_s=5.0)
        client.bans.ban("s0a")
        client.refresh_routes()
        assert "s0a" not in client.graph.servers
        swarm.net.clock.advance(5.1)
        client.refresh_routes()
        assert "s0a" in client.graph.servers

    def test_restart_strategy_restarts_from_scratch(self, cfg, oracle64):
        swarm = build_sim_swarm(cfg, seed=1, profile=NetProfile(failure_prob=8e-3))
        res = swarm.client().generate([5, 6, 7], 64, strategy=Strategy.RESTART)
        assert res.tokens == oracle64
        assert res.counters.restarts >= 1
        assert res.counters.restore_events == []

    def test_cacheless_retries_only_failed_step(self, cfg, oracle64):
        swarm = build_sim_swarm(cfg, seed=1, profile=NetProfile(failure_prob=5e-3))
        res = swarm.client().generate([5, 6, 7], 64, strategy=Strategy.CACHELESS)
        assert res.tokens == oracle64
        assert res.counters.retries + res.counters.recoveries >= 1


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


class TestRelay:
    def test_relay_matches_client_routed(self, cfg, oracle64):
        swarm = build_sim_swarm(cfg, seed=0)
        res = swarm.client().generate_relay([5, 6, 7], 64)
        assert res.tokens == oracle64

    @pytest.mark.parametrize("seed", [6, 7, 8])
    def test_relay_recovers_from_drops(self, cfg, seed):
        want = reference_generate(cfg, [5, 6, 7], 16)
        swarm = build_sim_swarm(cfg, seed=seed, profile=NetProfile(failure_prob=0.02))
        res = swarm.client().generate_relay([5, 6, 7], 16)
        assert res.tokens == want

    def test_corrupted_relay_checksum_triggers_recovery(self, cfg):
        want = reference_generate(cfg, [5, 6, 7], 16)
        swarm = build_sim_swarm(cfg, seed=0)
        srv = swarm.servers["s0a"]
        orig = srv.engine.blob_checksum
        calls = {"n": 0}

        def lying_checksum(blob):
            calls["n"] += 1
            return orig(blob) ^ 0xBAD if calls["n"] == 3 else orig(blob)

        srv.engine.blob_checksum = lying_checksum
        res = swarm.client().generate_relay([5, 6, 7], 16)
        assert res.tokens == want
