"""Randomized recovery paths: every generation strategy, under drops, crashes
and churn, reproduces its oracle or gives up with an expected error, and a
drop-free run leaves no session behind on a server that stayed reachable."""

from hypothesis import given, settings, strategies as st

from swarmpipe.client import Strategy
from swarmpipe.errors import BudgetExhausted, SwarmUnavailableError
from swarmpipe.model import reference_beam, reference_generate
from swarmpipe.netsim import ChurnSchedule, NetProfile
from swarmpipe.swarm import build_sim_swarm

STRATEGIES = ["dual-cache", "quantized", "restart", "cacheless", "beam"]
FOREVER = 1e9
DEADLINE_S = 300.0


def _churn(cuts: list[float]) -> ChurnSchedule | None:
    """Offline windows between consecutive pairs of ``cuts``; online elsewhere."""
    if not cuts:
        return None
    edges = [0.0] + sorted(cuts) + [FOREVER]
    return ChurnSchedule([(on, off) for on, off in zip(edges[::2], edges[1::2])
                          if on < off])


@st.composite
def scenarios(draw, n_blocks: int):
    n_stages = draw(st.integers(1, n_blocks))
    replicas = draw(st.integers(1, 3))
    sids = [f"s{si}{chr(ord('a') + r)}" for si in range(n_stages) for r in range(replicas)]
    return {
        "strategy": draw(st.sampled_from(STRATEGIES)),
        "p": draw(st.one_of(st.just(0.0), st.floats(0.0, 0.2))),
        "n_stages": n_stages,
        "replicas": replicas,
        "seed": draw(st.integers(0, 2**16)),
        "crash": {sid: c for sid in sids
                  if (c := draw(st.one_of(st.none(), st.integers(0, 40)))) is not None},
        "churn": {sid: c for sid in sids
                  if (c := _churn(draw(st.lists(st.floats(0.01, 60.0), max_size=4,
                                                unique=True)))) is not None},
        "prefix": draw(st.lists(st.integers(0, 15), min_size=1, max_size=6)),
        "n_new": draw(st.integers(1, 8)),
        "width": draw(st.integers(1, 4)),
    }


def _stayed_reachable(swarm, sid: str, churn: ChurnSchedule | None) -> bool:
    end = swarm.net.clock.now
    return swarm.net.online(sid) and (
        churn is None or any(on <= 0.0 and end < off for on, off in churn.intervals))


def _oracle(cfg, sc):
    """What the run must return. The int8 codec may change a pick, so a
    quantized run must equal a fault-free quantized run over the same stage
    boundaries (every server holds exactly one stage)."""
    prefix, n_new = sc["prefix"], sc["n_new"]
    if sc["strategy"] == "beam":
        return [h for h, _ in reference_beam(cfg, prefix, n_new, sc["width"])]
    if sc["strategy"] == "quantized":
        clean = build_sim_swarm(cfg, n_stages=sc["n_stages"], replicas=1, seed=0)
        return clean.client().generate(prefix, n_new, quantized=True).tokens
    return reference_generate(cfg, prefix, n_new)


def _run(client, sc):
    prefix, n_new, strategy = sc["prefix"], sc["n_new"], sc["strategy"]
    if strategy == "beam":
        res = client.beam_generate(prefix, n_new, sc["width"], deadline_s=DEADLINE_S)
        return [h for h, _ in res.beams]
    return client.generate(
        prefix, n_new, deadline_s=DEADLINE_S, quantized=strategy == "quantized",
        strategy={"restart": Strategy.RESTART,
                  "cacheless": Strategy.CACHELESS}.get(strategy, Strategy.DUAL_CACHE)
    ).tokens


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_random_recovery_matches_oracle_or_gives_up(tiny_config, data):
    sc = data.draw(scenarios(tiny_config.n_blocks))
    swarm = build_sim_swarm(
        tiny_config, n_stages=sc["n_stages"], replicas=sc["replicas"], seed=sc["seed"],
        profile=NetProfile(failure_prob=sc["p"]), churn=sc["churn"],
        server_overrides={sid: {"crash_after_messages": c}
                          for sid, c in sc["crash"].items()})
    try:
        got = _run(swarm.client(), sc)
    except (SwarmUnavailableError, BudgetExhausted):
        got = None
    if got is not None:
        assert got == _oracle(tiny_config, sc)
    if sc["p"] == 0.0:
        swarm.net.clock.advance(1.0)   # let the CLOSE posts land
        left = {sid: len(srv.sessions) for sid, srv in swarm.servers.items()
                if srv.sessions and _stayed_reachable(swarm, sid, sc["churn"].get(sid))}
        assert left == {}
