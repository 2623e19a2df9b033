"""Host-speed calibration for the benchmark's times.

The benchmark runs on hosts that share cores and caches with other tenants.
On a 2-vCPU host the same modcurves pass drifted from 1.65 s to 2.12 s over
three minutes, and ten-seed sets taken at different times spread (quartile
distance over median) by 14-32 % for modcurves, 10-17 % for cocktail_sweep
and 13 % for point_queries. A fixed calibration kernel, timed before and
after every pass, slows down with the host; with pass times divided by it,
later ten-seed sets spread by 6-11 %, 3-6 % and 4 %.

So every time the benchmark reports is the measured time multiplied by
``REFERENCE_S / kernel time``: seconds on a host where the kernel takes
``REFERENCE_S``. Python-heavy work drifts differently from numpy-heavy work,
so the kernel does, in roughly equal parts, the three kinds of work the
program does: numpy over a few MB of float64, many small numpy
calls, and pure-Python loops. It does not use ``cbpsk``, so no change to the
program can move it. It runs on one core, so work spread over several cores
(montecarlo's passes) is reported in raw seconds instead.
"""

from __future__ import annotations

import time

import numpy as np

# Close to the kernel's median time on the 2-vCPU host the baseline was taken
# on, so that reported times read like that host's seconds.
REFERENCE_S = 0.04


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._big = rng.standard_normal((16384, 8, 2))
        self._small = [rng.standard_normal(256) for _ in range(4)]

    def kernel_seconds(self) -> float:
        t = time.perf_counter()
        for _ in range(3):
            sq = np.sum(self._big * self._big, axis=-1)
            m = np.max(-sq, axis=1)
            np.log(np.sum(np.exp(-sq - m[:, None]), axis=1))
        acc = 0.0
        for i in range(3300):
            x = self._small[i & 3]
            acc += float(np.dot(np.exp(-x * x), x))
        table = {}
        n = 0
        for i in range(125_000):
            table[i & 255] = n
            n += i * i
        return time.perf_counter() - t

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor from measured to reference seconds for work done between
        two kernel timings."""
        return REFERENCE_S / (0.5 * (before + after))
