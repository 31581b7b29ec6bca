"""Golden virtual outputs: three short shape-only cells must keep their
virtual time to the last bit, their bytes and their failure counts.

A change to the simulated message path may make it cheaper to run, never
move what it simulates: the pinned values were recorded before that path was
optimised and move only with a change that says why. Virtual time is
compared as ``float.hex``, so a regrouped float sum (``now + one_way +
transfer`` for ``now + (one_way + transfer)``) fails here although every
byte is equal.
"""

import pytest

from swarmpipe.client import Strategy
from swarmpipe.model import ModelConfig
from swarmpipe.netsim import NetProfile
from swarmpipe.swarm import build_sim_swarm


# strategy, swarm seed -> sim_time_s as float.hex, total bytes, drops,
# recoveries, restarts
GOLDEN = {
    (Strategy.RESTART, 4): ("0x1.7977310a7da15p+8", 2328223, 77, 0, 64),
    (Strategy.CACHELESS, 3): ("0x1.f5197915f410ep+3", 4745331, 6, 0, 0),
    (Strategy.DUAL_CACHE, 3): ("0x1.64eee73e6813ep+4", 226526, 6, 6, 0),
}


@pytest.mark.parametrize("strategy, seed", list(GOLDEN), ids=lambda v: getattr(v, "value", v))
def test_cell_virtual_outputs_unchanged(strategy, seed):
    swarm = build_sim_swarm(ModelConfig(seed=0), seed=seed, engine="timed",
                            profile=NetProfile(failure_prob=1e-2))
    started = swarm.net.clock.now
    res = swarm.client().generate([1, 2, 3, 4], 64, strategy=strategy)
    got = ((swarm.net.clock.now - started).hex(), swarm.net.total_bytes(),
           sum(s.drops for s in swarm.net.links.values()),
           res.counters.recoveries, res.counters.restarts)
    assert got == GOLDEN[(strategy, seed)]
