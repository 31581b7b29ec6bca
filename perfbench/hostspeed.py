"""Host-speed probe: a fixed piece of CPU work timed between requests, so that
request times can be scaled to one host speed.

The shared host the benchmark was tuned on runs the same code at speeds up to
about 2x apart, in stretches of seconds to several minutes; a run of tens of
seconds can fall wholly inside a slow stretch, so that no statistic over its
own passes removes the slowdown. The probe slows with the host: it is small
numpy arithmetic on a (24, 64) activation, as in a decode step, and a heap
and dict loop, as in the netsim event loop. Its time is the median of
``REPEATS`` readings. A request's host-scaled time is its wall time times
``REFERENCE_S`` over the probe time around it (``around``), that is its
time on a host on which the probe takes ``REFERENCE_S``. The probe is the benchmark's own code and calls
nothing of swarmpipe, so a change to the program moves a request's wall time
and not the probe, and its scaled time moves with its wall time.
"""

from __future__ import annotations

import heapq
import statistics
import time

import numpy as np

REFERENCE_S = 1.4e-3        # the probe's fast reading on the host it was tuned on
REPEATS = 3
WINDOW = 4                  # readings on each side of a request that set its host speed

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((24, 64))
_W = _rng.standard_normal((64, 64)) / 8


def _once() -> float:
    t0 = time.perf_counter()
    x = _X
    for _ in range(20):
        h = x @ _W
        e = np.exp(h - h.max(axis=1, keepdims=True))
        x = e / e.sum(axis=1, keepdims=True) * 4.0 - 0.1
    heap: list = []
    tally: dict = {}
    for i in range(1200):
        heapq.heappush(heap, ((i * 7919) % 1013, i))
        tally[i % 97] = tally.get(i % 97, 0) + i
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds the probe takes on the host as it is now."""
    return statistics.median(_once() for _ in range(REPEATS))


def around(readings: list[float]) -> list[float]:
    """Host speed during each interval between consecutive readings: the
    median of the WINDOW readings on each side of it, so that a reading
    that caught a stall the interval did not see has little weight."""
    return [statistics.median(readings[max(0, i - WINDOW + 1):i + WINDOW + 1])
            for i in range(len(readings) - 1)]


def scaled(wall_s: float, probe_s: float | None) -> float:
    """``wall_s`` at the reference host speed; unchanged without a probe."""
    return wall_s if probe_s is None else wall_s * REFERENCE_S / probe_s
