"""Host speed probe: rescales measured times to a fixed reference speed.

On a shared host the same request can take twice as long from one minute to
the next.  On a shared 2-vCPU virtual machine (Intel Xeon, 2.0 GHz), identical
requests stepped between ~0.12 s and ~0.20 s with no steal time reported, and
the run-to-run spread of raw latencies was ~25 % of the median.
The probe is a fixed piece of work owned by the benchmark, not by convkern:
interpreted sparse-polynomial arithmetic on dicts of complex numbers, the
kind of work the library's Python layers do, and small dense SVDs, the kind
of work its numpy layers do.  Timing the probe just before a request gives
the host's speed at that moment.  A time multiplied by factor() is in
reference-speed seconds, the seconds it would have taken when the probe takes
REFERENCE_S.  A faster or slower program still moves the rescaled time in
proportion; only the host's speed swing is divided out.
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_S = 0.0016
REPEATS = 2


def _poly_square() -> None:
    terms = {(i, j): complex(i + 1, j) for i in range(12) for j in range(12 - i)}
    out = {}
    for e1, c1 in terms.items():
        for e2, c2 in terms.items():
            e = (e1[0] + e2[0], e1[1] + e2[1])
            out[e] = out.get(e, 0) + c1 * c2


class SpeedProbe:
    """Geometric mean of the best-of-REPEATS times of the two probe parts."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))

    def _svds(self) -> None:
        for _ in range(4):
            np.linalg.svd(self._matrix)

    @staticmethod
    def _best(fn) -> float:
        best = math.inf
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    def factor(self) -> float:
        """REFERENCE_S over the probe's time now."""
        return REFERENCE_S / math.sqrt(self._best(_poly_square) * self._best(self._svds))
