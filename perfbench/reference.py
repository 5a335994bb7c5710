"""Host-speed reference: a fixed burst of work timed between requests.

The benchmark runs on shared hosts whose speed changes by 20-50 % within
seconds and drifts over minutes, which longer runs cannot average away.  The
same changes slow a fixed piece of work by about the same factor, so the
worker times a reference burst right before and right after every request
(never during one) and converts the request's latency to reference time:

    normalized = wall * UNIT_NOMINAL_S / (seconds per unit of the bursts around it)

``UNIT_NOMINAL_S`` is a constant, so the end-to-end timings read as they
would on a host where one unit of reference work takes that long, and two
commits measured with the same benchmark code stay comparable.  The burst
uses only Python, numpy and scipy, never the program, and the program never
runs while a burst is timed, so no change to the program can speed up or
slow the reference.  A unit mixes what the workloads spend their time on: an
interpreted loop, 4x4 complex matrix products and 4x4 ``expm`` calls.
"""

from time import perf_counter

import numpy as np
from scipy.linalg import expm

#: seconds one unit of reference work takes on the reference host (2-vCPU KVM
#: guest, Intel Xeon, Python 3.11, numpy 2.4, scipy 1.17, BLAS on one thread)
UNIT_NOMINAL_S = 0.005
#: reference time around a request, as a share of that request's latency
BURST_SHARE = 0.1
MAX_UNITS = 100

_A = (np.arange(16).reshape(4, 4) % 5 - 2.0) * (0.25 + 0.1j)


def _unit():
    total = 0.0
    for i in range(10000):
        total += (i * 0.5) % 7.0
    x = np.eye(4, dtype=complex)
    for _ in range(260):
        x = _A @ x
        x /= np.abs(x).max()
    for i in range(80):
        x = x + expm(_A * (0.1 * (i % 7)))
    if not np.isfinite(total + x.sum().real):
        raise ArithmeticError("reference work went non-finite")


def burst(units):
    """Time ``units`` units of reference work; returns the total seconds."""
    start = perf_counter()
    for _ in range(units):
        _unit()
    return perf_counter() - start


class HostSpeed:
    """Bursts between requests, and the factor each request is scaled by.

    ``mark(index)`` times a burst right before request ``index``; with no
    index it closes the run after the last request.  A burst is sized to
    BURST_SHARE of the longer of its two neighbours: the request that just
    ended and the latency request ``index`` had in an earlier pass, so a
    5-second request gets half a second of reference work on each side and a
    10 ms one ``min_units``.  ``factor(k)`` is the scale of the request that
    runs between bursts k and k + 1: UNIT_NOMINAL_S over the time per unit of
    those two bursts and of one more on each side.  The outer two damp the
    jitter of a single burst, which matters most for the slowest request of
    a pass; weighting by units keeps a 1-unit neighbour from outweighing the
    long bursts around a long request.
    """

    def __init__(self, min_units=1):
        self.min_units = min_units
        self.bursts = []  # (units, seconds)
        self._latency = {}
        self._previous = 0.0

    def add(self, index, seconds):
        self._latency[index] = self._previous = seconds

    def mark(self, index=None):
        around = max(self._previous, self._latency.get(index, 0.0))
        units = min(MAX_UNITS, max(self.min_units,
                                   round(BURST_SHARE * around / UNIT_NOMINAL_S)))
        self.bursts.append((units, burst(units)))
        self._previous = 0.0
        return len(self.bursts) - 1

    def factor(self, stretch):
        near = self.bursts[max(0, stretch - 1):stretch + 3]
        return (UNIT_NOMINAL_S * sum(units for units, _ in near)
                / sum(seconds for _, seconds in near))

    def speed(self):
        """Host speed over the run: UNIT_NOMINAL_S over time per unit."""
        units = sum(u for u, _ in self.bursts)
        return UNIT_NOMINAL_S * units / sum(t for _, t in self.bursts)
