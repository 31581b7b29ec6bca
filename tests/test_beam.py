"""Distributed beam search against the local beam oracle."""

import pytest

from swarmpipe.errors import BudgetExhausted
from swarmpipe.model import ModelConfig, reference_beam, reference_generate
from swarmpipe.netsim import NetProfile
from swarmpipe.swarm import build_sim_swarm
from swarmpipe.wire import Reorder


@pytest.fixture(scope="module")
def cfg():
    return ModelConfig(seed=1)


def test_beam_one_degenerates_to_greedy(cfg):
    swarm = build_sim_swarm(cfg, seed=0)
    res = swarm.client().beam_generate([4, 2], 16, k=1)
    assert res.tokens == reference_generate(cfg, [4, 2], 16)


def test_beam_matches_local_oracle(cfg):
    want = reference_beam(cfg, [4, 2], 24, k=4)
    swarm = build_sim_swarm(cfg, seed=0)
    res = swarm.client().beam_generate([4, 2], 24, k=4)
    assert [h for h, _ in res.beams] == [h for h, _ in want]
    for (_, sa), (_, sb) in zip(res.beams, want):
        assert sa == pytest.approx(sb, abs=1e-4)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_beam_with_failures_matches_failure_free(cfg, seed):
    want = reference_beam(cfg, [4, 2], 16, k=4)
    swarm = build_sim_swarm(cfg, seed=seed, profile=NetProfile(failure_prob=0.01))
    res = swarm.client().beam_generate([4, 2], 16, k=4)
    assert [h for h, _ in res.beams] == [h for h, _ in want]


def test_beam_with_crashed_server(cfg):
    want = reference_beam(cfg, [4, 2], 16, k=4)
    swarm = build_sim_swarm(cfg, seed=0,
                            server_overrides={"s2a": {"crash_after_messages": 10}})
    res = swarm.client().beam_generate([4, 2], 16, k=4)
    assert [h for h, _ in res.beams] == [h for h, _ in want]
    assert res.counters.recoveries >= 1


def test_expired_reorder_rebuilds_in_place_without_ban(cfg):
    """A live server that lost its session answers REORDER with ``expired``;
    the client rebuilds it there, as for a step, and does not ban it."""
    swarm = build_sim_swarm(cfg, seed=1)
    srv = swarm.servers["s1a"]
    handle, hits = srv.handle, []

    def lose_session_before_first_reorder(msg, ctx):
        if isinstance(msg.payload, Reorder) and not hits:
            hits.append(msg.session_id)
            srv.sessions.clear()
        return handle(msg, ctx)

    srv.handle = lose_session_before_first_reorder
    client = swarm.client()
    res = client.beam_generate([5, 6, 7], 6, k=3)
    assert hits and res.counters.recoveries == 1
    assert not client.bans.is_banned("s1a")
    want = reference_beam(cfg, [5, 6, 7], 6, k=3)
    assert [h for h, _ in res.beams] == [h for h, _ in want]
    for (_, sa), (_, sb) in zip(res.beams, want):
        assert sa == pytest.approx(sb, abs=1e-4)


def test_cut_off_beam_closes_its_sessions(cfg):
    swarm = build_sim_swarm(cfg, seed=0)
    with pytest.raises(BudgetExhausted):
        swarm.client().beam_generate([4, 2], 16, k=4, deadline_s=1.0)
    swarm.net.clock.advance(1.0)   # let the CLOSE posts land
    assert sum(len(s.sessions) for s in swarm.servers.values()) == 0


def test_no_reorder_after_the_last_step(cfg):
    """Every step but the last reorders each of the 4 stages: 15 x 4 REORDERs
    for 16 tokens, none after the final STEP, whose sessions close next."""
    swarm = build_sim_swarm(cfg, seed=0)
    seen = []
    for srv in swarm.servers.values():
        def spy(msg, ctx, handle=srv.handle):
            seen.append(type(msg.payload).__name__)
            return handle(msg, ctx)
        srv.handle = spy
    res = swarm.client().beam_generate([4, 2], 16, k=4)
    assert seen.count("Reorder") == 60
    last_step = max(i for i, kind in enumerate(seen) if kind == "Step")
    assert "Reorder" not in seen[last_step:]
    assert [h for h, _ in res.beams] == [h for h, _ in reference_beam(cfg, [4, 2], 16, k=4)]
