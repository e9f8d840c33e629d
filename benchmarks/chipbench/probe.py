"""Machine-speed probe used to put op times on a common footing.

On a shared 2-core Xeon VM (2.1 GHz) the same op runs in one of two
states: a quiet one and a contended one about 1.6 times slower, switching
every few seconds whatever the program does. Over a 30-second run the share
of contended time varies enough that raw wall times of identical runs spread
by 15-40%. The probe is a fixed ~0.2 ms kernel of interpreter and small-numpy
work that shares no code with ``chipfire``; timing it right before and right
after an op tells how fast the machine was running around that op.
"""

from __future__ import annotations

import random
import time

import numpy as np

from .inputs import product_game
from .oracles import classical_space

# the probe's time on a quiet core of the machine above; scaled times are
# the wall times that machine would show in its quiet state
REFERENCE_S = 0.21e-3


class Probe:
    """Times a fixed kernel; the best of three runs, so a cache disturbed by
    the previous op does not count as a slow machine."""

    def __init__(self):
        self.game, _ = product_game(random.Random(0), [3, 3, 2], 0)
        self.table = np.random.default_rng(0).integers(0, 64, (64, 64)).astype(np.int32)

    def __call__(self) -> float:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            classical_space(self.game)
            for x in range(0, 64, 8):
                self.table[np.ix_(self.table[x], self.table[x])]
            best = min(best, time.perf_counter() - start)
        return best


def scaled(seconds: float, before: float, after: float) -> float:
    """Wall time rescaled to the reference speed, using the probes taken just
    before and just after it."""
    return seconds * REFERENCE_S / ((before + after) / 2)
