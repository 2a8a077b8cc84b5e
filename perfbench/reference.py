"""The reference computation in whose time the end-to-end latencies are given.

The benchmark runs on shared hosts whose speed changes by up to 2x within
seconds as other tenants load the physical cores; on a 2-vCPU VM the same
oracle set took 1.0 ms or 1.8 ms a few seconds apart, and the median of a
25-second run moved by a quarter from one run to the next.  Thread CPU time
changes as much as wall time there, so it is no way out.

So the client times a fixed computation of its own between requests, every
``EVERY`` seconds of timed calls.  It has the two kinds of work a prediction
set does: a ridge solve through BLAS and a bisection loop of small numpy
calls.  Contention slows the two by different factors, so each workload
weighs them as its own sets mix them (``Workload.unit_mix``).  A set's time
divided by the median of the reference times around it is its cost in
reference units; a slower host stretches both alike, so the ratio keeps what
the program did.  Each part runs twice and the second run is timed, so that
what a set left in the caches does not change the unit.
"""

from __future__ import annotations

import time

import numpy as np

EVERY = 0.05      # seconds of timed calls between two reference timings
NEIGHBOURS = 3    # a set's unit: median of this many timings before and after it
_SEED = 20211220


class Reference:
    """A fixed computation, the same in every run and on every commit.

    ``mix`` weighs the times of the solve and of the loop in the unit.
    """

    def __init__(self, mix: tuple[float, float]):
        rng = np.random.default_rng(_SEED)
        self.features = rng.standard_normal((2000, 50))
        self.targets = rng.standard_normal(2000)
        self.scores = rng.standard_normal(300)
        self.mix = mix

    def solve(self) -> float:
        gram = self.features.T @ self.features
        beta = np.linalg.solve(gram + np.eye(gram.shape[0]), self.features.T @ self.targets)
        return float(beta[0])

    def loop(self) -> float:
        lo, hi = -3.0, 3.0
        total = 0.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            count = int(np.count_nonzero(np.abs(self.scores - mid) <= 1.0))
            if count > self.scores.size // 2:
                hi = mid
            else:
                lo = mid
            total += count
        return total

    def seconds(self) -> float:
        """The weighted time of one warm run of each part."""
        unit = 0.0
        for weight, part in zip(self.mix, (self.solve, self.loop)):
            if weight:
                part()
                started = time.perf_counter()
                part()
                unit += weight * (time.perf_counter() - started)
        return unit


def local_units(timings: list[float], after: list[int]) -> np.ndarray:
    """Reference unit of each set: median of the timings around it.

    ``after[i]`` is the index of the last timing taken before set ``i``; the
    unit is the median of the ``NEIGHBOURS`` timings up to and including that
    one and the ``NEIGHBOURS`` after it, fewer at the ends of the phase.
    """
    timings_arr = np.asarray(timings, dtype=float)
    units = np.empty(len(after))
    for i, last in enumerate(after):
        lo = max(last - NEIGHBOURS + 1, 0)
        units[i] = np.median(timings_arr[lo:last + 1 + NEIGHBOURS])
    return units
