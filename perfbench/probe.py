"""A machine-speed probe: fixed pure-Python work that times the host itself.

On a shared host the same work runs up to 1.6x slower for minutes at a time,
through other load on the machine (README.md, "Noise on this machine"). The
probe runs between the measured rounds of a run. run.py scales ``wall_s`` and
``setup_s`` by PROBE_REF_S over the probe's mean time in that run, so both read
as seconds on a host where one probe takes PROBE_REF_S. The probe shares no
code with permitlab, so a change to the program cannot move it; the unscaled
times are kept in the results file.

Its work is what the program spends its time on: exact rational elimination
(``fractions.Fraction``) and integer and dict operations.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

PROBE_REF_S = 0.08  # the scale: seconds one probe takes on the reference host
SIZE = 18  # rows of the rational system the probe eliminates
INT_STEPS = 150_000


def _matrix() -> list:
    rng = random.Random(5)  # the same system in every run
    return [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(SIZE + 1)]
        for _ in range(SIZE)
    ]


def _eliminate(a: list) -> list:
    """Gauss-Jordan elimination of the augmented system a, in place."""
    n = len(a)
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return a


def _integers(steps: int) -> int:
    s, table = 0, {}
    for i in range(steps):
        s = (s + i * i) % 1_000_003
        table[i & 1023] = table.get(s & 1023, 0) + 1
    return s


def probe_once() -> float:
    """Seconds one probe takes now."""
    a = _matrix()
    t0 = perf_counter()
    _eliminate(a)
    _integers(INT_STEPS)
    return perf_counter() - t0


class Probe:
    """The probe times of one run."""

    def __init__(self):
        self.times = []

    def run(self, budget_s: float):
        """Probe at least once, and until budget_s seconds have been spent."""
        spent = 0.0
        while True:
            self.times.append(probe_once())
            spent += self.times[-1]
            if spent >= budget_s:
                return

    def scale(self) -> float:
        """Factor from this run's seconds to seconds on the reference host."""
        return PROBE_REF_S / statistics.fmean(self.times)
