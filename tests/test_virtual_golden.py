"""Golden virtual outputs: three short shape-only cells must keep their
virtual time to the last bit, their bytes and their failure counts, in total
and on every (src, dst) link; so must a cache-less cell that reroutes and a
fine-tune step that repeats its pass.

A change to the simulated message path may make it cheaper to run, never
move what it simulates: the pinned values were recorded before that path was
optimised and move only with a change that says why. Virtual time is
compared as ``float.hex``, so a regrouped float sum (``now + one_way +
transfer`` for ``now + (one_way + transfer)``) fails here although every
byte is equal. The per-link pins catch what the totals cannot: a leg booked
on the wrong direction's stats (a reply counted on its request's link) keeps
every total.
"""

from functools import cache

import numpy as np
import pytest

from swarmpipe.client import FinetuneSession, Strategy
from swarmpipe.model import ModelConfig
from swarmpipe.netsim import NetProfile
from swarmpipe.swarm import build_sim_swarm


# strategy, swarm seed -> sim_time_s as float.hex, total bytes, drops,
# recoveries, restarts
GOLDEN = {
    (Strategy.RESTART, 4): ("0x1.797709a44c229p+8", 2254611, 77, 0, 64),
    (Strategy.CACHELESS, 3): ("0x1.f51931ae9293ep+3", 4741235, 6, 0, 0),
    (Strategy.DUAL_CACHE, 3): ("0x1.64eeb0148ddc3p+4", 220126, 6, 6, 0),
}


@cache
def _run_cell(strategy, seed):
    swarm = build_sim_swarm(ModelConfig(seed=0), seed=seed, engine="timed",
                            profile=NetProfile(failure_prob=1e-2))
    started = swarm.net.clock.now
    res = swarm.client().generate([1, 2, 3, 4], 64, strategy=strategy)
    return swarm, res, swarm.net.clock.now - started


@pytest.mark.parametrize("strategy, seed", list(GOLDEN), ids=lambda v: getattr(v, "value", v))
def test_cell_virtual_outputs_unchanged(strategy, seed):
    swarm, res, elapsed = _run_cell(strategy, seed)
    got = (elapsed.hex(), swarm.net.total_bytes(),
           sum(s.drops for s in swarm.net.links.values()),
           res.counters.recoveries, res.counters.restarts)
    assert got == GOLDEN[(strategy, seed)]


# strategy, swarm seed -> sorted (src, dst, messages, bytes, drops) of every
# link a message crossed or was lost on
LINKS = {
    (Strategy.RESTART, 4): [
        ("client1", "s0a", 621, 199577, 9), ("client1", "s0b", 275, 90744, 3),
        ("client1", "s1a", 660, 213782, 3), ("client1", "s1b", 222, 72712, 2),
        ("client1", "s2a", 591, 189964, 10), ("client1", "s2b", 267, 88362, 5),
        ("client1", "s3a", 569, 184844, 11), ("client1", "s3b", 271, 87902, 3),
        ("s0a", "client1", 577, 191567, 7), ("s0a", "directory", 38, 5510, 0),
        ("s0b", "client1", 244, 87004, 3), ("s0b", "directory", 38, 5510, 0),
        ("s1a", "client1", 608, 205218, 6), ("s1a", "directory", 37, 5365, 1),
        ("s1b", "client1", 200, 69692, 2), ("s1b", "directory", 38, 5510, 0),
        ("s2a", "client1", 548, 183047, 3), ("s2a", "directory", 38, 5510, 0),
        ("s2b", "client1", 241, 84854, 2), ("s2b", "directory", 36, 5220, 2),
        ("s3a", "client1", 521, 176905, 4), ("s3a", "directory", 38, 5510, 0),
        ("s3b", "client1", 250, 84792, 1), ("s3b", "directory", 38, 5510, 0),
    ],
    (Strategy.CACHELESS, 3): [
        ("client1", "s0a", 65, 601607, 0), ("client1", "s1a", 65, 596999, 0),
        ("client1", "s2a", 65, 592135, 1), ("client1", "s3a", 66, 609870, 0),
        ("s0a", "client1", 64, 584576, 1), ("s0a", "directory", 2, 290, 0),
        ("s0b", "directory", 2, 290, 0), ("s1a", "client1", 64, 584576, 1),
        ("s1a", "directory", 2, 290, 0), ("s1b", "directory", 2, 290, 0),
        ("s2a", "client1", 64, 584576, 1), ("s2a", "directory", 2, 290, 0),
        ("s2b", "directory", 2, 290, 0), ("s3a", "client1", 64, 584576, 2),
        ("s3a", "directory", 2, 290, 0), ("s3b", "directory", 2, 290, 0),
    ],
    (Strategy.DUAL_CACHE, 3): [
        ("client1", "s0a", 35, 24644, 0), ("client1", "s0b", 37, 16327, 0),
        ("client1", "s1a", 61, 19416, 0), ("client1", "s1b", 8, 17560, 0),
        ("client1", "s2a", 1, 48, 1), ("client1", "s2b", 67, 20746, 0),
        ("client1", "s3a", 53, 25872, 0), ("client1", "s3b", 19, 11003, 0),
        ("s0a", "client1", 33, 9948, 1), ("s0a", "directory", 3, 435, 0),
        ("s0b", "client1", 36, 10351, 1), ("s0b", "directory", 3, 435, 0),
        ("s1a", "client1", 60, 18623, 1), ("s1a", "directory", 3, 435, 0),
        ("s1b", "client1", 7, 1593, 0), ("s1b", "directory", 3, 435, 0),
        ("s2a", "client1", 1, 37, 0), ("s2a", "directory", 3, 435, 0),
        ("s2b", "client1", 66, 20179, 0), ("s2b", "directory", 3, 435, 0),
        ("s3a", "client1", 51, 15384, 1), ("s3a", "directory", 3, 435, 0),
        ("s3b", "client1", 18, 4915, 1), ("s3b", "directory", 3, 435, 0),
    ],
}


@pytest.mark.parametrize("strategy, seed", list(LINKS), ids=lambda v: getattr(v, "value", v))
def test_cell_links_unchanged(strategy, seed):
    swarm, _, _ = _run_cell(strategy, seed)
    got = sorted((src, dst, s.messages, s.bytes, s.drops)
                 for (src, dst), s in swarm.net.links.items())
    assert got == LINKS[(strategy, seed)]


def test_cacheless_reroute_unchanged():
    """A cache-less cell in which s1a crashes mid-run: dropped Forwards are
    resent to the same server and the crash costs a ban and a new chain."""
    swarm = build_sim_swarm(ModelConfig(seed=0), seed=3, engine="timed",
                            profile=NetProfile(failure_prob=1e-2),
                            server_overrides={"s1a": {"crash_after_messages": 40}})
    started = swarm.net.clock.now
    res = swarm.client().generate([1, 2, 3, 4], 64, strategy=Strategy.CACHELESS)
    got = ((swarm.net.clock.now - started).hex(), swarm.net.total_bytes(),
           sum(s.drops for s in swarm.net.links.values()),
           res.counters.recoveries, res.counters.retries)
    assert got == ("0x1.f5fc99ae924f3p+3", 4774046, 6, 1, 6)


def test_finetune_step_under_drops_unchanged():
    """One fine-tune step whose first pass loses a Forward to s2a: the pass
    repeats from scratch on a chain through s2b."""
    swarm = build_sim_swarm(ModelConfig(seed=0), seed=0,
                            profile=NetProfile(failure_prob=5e-2))
    ft = FinetuneSession(swarm.client(), n_labels=4, prompt_len=2, init_seed=0)
    batch = np.random.default_rng(0).integers(0, 256, (4, 6))
    started = swarm.net.clock.now
    ft.step(batch, (batch[:, -1] % 4).astype(np.intp))
    assert (swarm.net.clock.now - started).hex() == "0x1.59951ce5c7784p+3"
    assert ft.counters.repeats == 1
    got = sorted((src, dst, s.messages, s.bytes, s.drops)
                 for (src, dst), s in swarm.net.links.items())
    assert got == [
        ("client1", "s0a", 3, 24788, 0), ("client1", "s1a", 3, 24788, 0),
        ("client1", "s2a", 0, 0, 1), ("client1", "s2b", 2, 16525, 0),
        ("client1", "s3a", 2, 16525, 0),
        ("s0a", "client1", 3, 24714, 0), ("s0a", "directory", 2, 290, 0),
        ("s0b", "directory", 2, 290, 0),
        ("s1a", "client1", 3, 24714, 0), ("s1a", "directory", 1, 145, 1),
        ("s1b", "directory", 0, 0, 2), ("s2a", "directory", 2, 290, 0),
        ("s2b", "client1", 2, 16476, 0), ("s2b", "directory", 1, 145, 1),
        ("s3a", "client1", 2, 16476, 0), ("s3a", "directory", 2, 290, 0),
        ("s3b", "directory", 2, 290, 0),
    ]
