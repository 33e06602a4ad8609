"""Drift-calibrated timing.

The host this benchmark runs on changes speed from minute to minute by
tens of percent, and the change cannot be seen from inside the guest.
Every timed call into fig8 therefore sits between two timings of a
fixed reference computation that belongs to the benchmark, and each
reported time is scaled by NOMINAL_REF_S over the mean of those two
reference timings: calibrated seconds are seconds on a host that runs
the reference in exactly NOMINAL_REF_S.
"""

import statistics
import time

import numpy as np
from scipy.integrate import DOP853

# Median reference time measured on a 2-core x86-64 guest (Python 3.11.7,
# numpy 2.4.6, scipy 1.17.1). A constant: changing it rescales every
# calibrated time, so it must never follow a measurement.
NOMINAL_REF_S = 2.0e-3

_REF_STEPS = 10
_REF_REPEATS = 12
_REF_STATE = np.array([0.97, -0.24, -0.97, 0.24, 0.0, 0.0,
                       0.466, 0.432, 0.466, 0.432, -0.932, -0.865])


def _ref_rhs(t, y):
    # planar three-body Kepler problem with unit masses, in plain floats
    x0, y0, x1, y1, x2, y2 = y[0], y[1], y[2], y[3], y[4], y[5]
    out = [y[6], y[7], y[8], y[9], y[10], y[11], 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    for i, j, dx, dy in ((0, 1, x0 - x1, y0 - y1), (0, 2, x0 - x2, y0 - y2),
                         (1, 2, x1 - x2, y1 - y2)):
        r2 = dx * dx + dy * dy
        g = -1.0 / (r2 * r2 ** 0.5)
        out[6 + 2 * i] += g * dx
        out[7 + 2 * i] += g * dy
        out[6 + 2 * j] -= g * dx
        out[7 + 2 * j] -= g * dy
    return out


def reference_computation() -> float:
    """A fixed number of adaptive DOP853 steps with dense output, the kind
    of work fig8's integrator does, on a problem of the benchmark's own."""
    solver = DOP853(_ref_rhs, 0.0, _REF_STATE, 100.0, rtol=1e-10, atol=1e-10)
    for _ in range(_REF_STEPS):
        solver.step()
        solver.dense_output()
    return float(solver.y[0])


def time_reference() -> float:
    """Mean seconds of back-to-back reference computations.

    The mean, over about 20 ms, follows the mixture of fast and slow
    spells that a call sees better than a median over fewer repetitions.
    """
    samples = []
    for _ in range(_REF_REPEATS):
        t0 = time.perf_counter()
        reference_computation()
        samples.append(time.perf_counter() - t0)
    return statistics.fmean(samples)


class CalibratedClock:
    """Times calls back to back, each between two reference timings."""

    def __init__(self):
        self.last_ref = time_reference()
        self.raw_s = []
        self.cal_s = []
        self.last_scale = 1.0

    def scale(self, ref_before: float, ref_after: float) -> float:
        return NOMINAL_REF_S / (0.5 * (ref_before + ref_after))

    def call(self, fn, *args, **kwargs):
        """Run fn once; record raw and calibrated seconds; return its result."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        raw = time.perf_counter() - t0
        ref = time_reference()
        self.raw_s.append(raw)
        self.last_scale = self.scale(self.last_ref, ref)
        self.cal_s.append(raw * self.last_scale)
        self.last_ref = ref
        return out
