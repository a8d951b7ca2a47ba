"""Host-speed calibration: a fixed reference loop sampled through each run.

The benchmark's host is a shared 2-core machine whose speed switches
between a fast and a slow phase (up to 2x apart, each lasting seconds to
minutes, the slow share set by other tenants' load).  Process CPU time
follows the wall time, so the slowdown is the core running slower, not
waiting for it.  Such a phase can last a whole run, so no statistic over a
run's iterations removes it.

Each worker therefore times ``reference_loop`` at its start, after episodes
(at most every ``MIN_GAP_S``) and after its measured work, in its own
process.  The loop is independent of the package (plain Python and small
numpy operations, like the package's per-round work), so a change to the
package cannot move it.  ``measure`` takes the sampling time out of a span
and weights each stretch of program time by the loop time sampled around
it; the benchmark's times are then scaled by ``REFERENCE_S / loop time``.
They are seconds at the host speed at which the loop takes ``REFERENCE_S``,
which is about this loop's time in the fast phase of the 2-core host the
benchmark was written on.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.025
LOOP_STEPS = 10_000
MIN_GAP_S = 0.25


def reference_loop(steps: int = LOOP_STEPS) -> float:
    """Seconds the fixed reference loop takes now."""
    rng = np.random.default_rng(0)
    matrix, vector = rng.standard_normal((10, 10)), rng.standard_normal(10)
    start = time.perf_counter()
    total = 0.0
    for i in range(steps):
        product = matrix @ vector
        total += float(product[i % 10])
        counts = {j: j * i for j in range(5)}
        total += sum(counts.values()) * 1e-9
    return time.perf_counter() - start


class Sampler:
    """Samples ``[start, end, loop_s]`` of the reference loop on a clock."""

    def __init__(self, clock):
        self.clock = clock
        self.samples: list[list[float]] = []

    def sample(self) -> None:
        start = self.clock()
        loop_s = reference_loop()
        self.samples.append([start, self.clock(), loop_s])

    def sample_if_due(self) -> None:
        if not self.samples or self.clock() - self.samples[-1][1] >= MIN_GAP_S:
            self.sample()


def measure(samples, begin: float, end: float) -> tuple[float, float]:
    """Program seconds in [begin, end] and their time-weighted loop time.

    Time spent sampling is left out.  A stretch between two samples gets
    the mean of their loop times; a stretch before the first or after the
    last sample gets that sample's loop time.
    """
    stretches = [(-np.inf, samples[0][0], samples[0][2])]
    stretches += [(a[1], b[0], (a[2] + b[2]) / 2) for a, b in zip(samples, samples[1:])]
    stretches.append((samples[-1][1], np.inf, samples[-1][2]))
    program_s = weighted = 0.0
    for start, stop, loop_s in stretches:
        length = max(0.0, min(stop, end) - max(start, begin))
        program_s += length
        weighted += length * loop_s
    return program_s, weighted / program_s
