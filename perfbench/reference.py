"""Reference shooting integrator, written apart from the fig8 package.

It shares no code with `fig8`: its own right-hand side written from the
Lennard-Jones (12, 6) formula, its own isosceles launch state (the axis
body's velocity follows from zero total momentum), a different stepper
family than the program's, tighter tolerances, and first-collinearity
detection by dense sampling of every accepted step. The benchmark checks
the program's outputs against it; it is never timed.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import LSODA
from scipy.optimize import brentq

TOL = 1e-13           # rtol = atol
PROGRAM_TOL = 1e-11   # fig8's default rtol = atol
T_MAX = 200.0
MIN_DISTANCE = 1e-3
SAMPLES_PER_STEP = 16
_FRACS = np.arange(1, SAMPLES_PER_STEP + 1) / SAMPLES_PER_STEP


def lj_u(r):
    """Pair potential u(r) = r^-12 - r^-6."""
    return r ** -12 - r ** -6


def _g(r2):
    # -u'(r)/r = 12 r^-14 - 6 r^-8, as a function of r^2
    return 12.0 * r2 ** -7 - 6.0 * r2 ** -4


def lj_rhs(t, y):
    x0, y0, x1, y1, x2, y2 = y[0], y[1], y[2], y[3], y[4], y[5]
    ax = [0.0, 0.0, 0.0]
    ay = [0.0, 0.0, 0.0]
    for i, j, dx, dy in ((0, 1, x0 - x1, y0 - y1), (0, 2, x0 - x2, y0 - y2),
                         (1, 2, x1 - x2, y1 - y2)):
        g = _g(dx * dx + dy * dy)
        ax[i] += g * dx
        ay[i] += g * dy
        ax[j] -= g * dx
        ay[j] -= g * dy
    return [y[6], y[7], y[8], y[9], y[10], y[11],
            ax[0], ay[0], ax[1], ay[1], ax[2], ay[2]]


def launch_state(x0, y0, v):
    """Flat (q, p) at t = 0 for the isosceles triangle (x0, y0), (-2 x0, 0), (x0, -y0).

    The outer bodies move along the triangle edges towards and away from
    the axis body with speed v; the axis body's velocity makes the total
    momentum vanish.
    """
    edge = math.sqrt(9.0 * x0 * x0 + y0 * y0)
    p0 = np.array([-3.0 * x0, -y0]) * (v / edge)
    p2 = np.array([3.0 * x0, -y0]) * (v / edge)
    p1 = -(p0 + p2)
    return np.array([x0, y0, -2.0 * x0, 0.0, x0, -y0, *p0, *p1, *p2])


def launch_energy(x0, y0, v):
    """Closed-form total energy of the launch state."""
    edge2 = 9.0 * x0 * x0 + y0 * y0
    kinetic = 0.5 * (2.0 * v * v + (2.0 * v * y0) ** 2 / edge2)
    return kinetic + lj_u(2.0 * y0) + 2.0 * lj_u(math.sqrt(edge2))


def energy(y):
    """Total energy of flat states; y has shape (12,) or (12, n)."""
    y = np.asarray(y, dtype=float)
    kin = 0.5 * np.sum(y[6:] ** 2, axis=0)
    pot = 0.0
    for i, j in ((0, 1), (0, 2), (1, 2)):
        r = np.hypot(y[2 * i] - y[2 * j], y[2 * i + 1] - y[2 * j + 1])
        pot = pot + lj_u(r)
    return kin + pot


def collinearity(y):
    return ((y[2] - y[0]) * (y[5] - y[1]) - (y[3] - y[1]) * (y[4] - y[0]))


def _min_pair_distance(y):
    return min(math.hypot(y[2 * i] - y[2 * j], y[2 * i + 1] - y[2 * j + 1])
               for i, j in ((0, 1), (0, 2), (1, 2)))


@dataclass(frozen=True)
class Shot:
    """Reference shooting result; status uses the program's status names."""

    status: str
    t_f: float | None = None
    P_norm: float | None = None
    D_norm: float | None = None


class Trajectory:
    """Accepted step times and dense interpolants of one reference run."""

    def __init__(self):
        self.ts = [0.0]
        self.interps = []

    def eval(self, t):
        k = int(np.searchsorted(self.ts, t, side="right")) - 1
        k = min(max(k, 0), len(self.interps) - 1)
        return self.interps[k](t)


def shoot(x0, y0, v, t_max=T_MAX, extend_to=0.0, tol=TOL):
    """Integrate from launch to the first collinear instant.

    Returns (Shot, Trajectory). The collinearity function is sampled at
    SAMPLES_PER_STEP points of every accepted step's interpolant, so a
    crossing pair that opens and closes inside one step is still seen.
    With extend_to past the event, stepping goes on to that time so the
    trajectory can be compared beyond the event. The status is
    "event-not-found" when no crossing occurs before t_max. `tol` sets
    rtol and atol.
    """
    y = launch_state(x0, y0, v)
    solver = LSODA(lj_rhs, 0.0, y, max(t_max, extend_to), rtol=tol, atol=tol)
    traj = Trajectory()
    c_prev = collinearity(y)
    shot = None
    while solver.status == "running":
        solver.step()
        if solver.status == "failed":
            return Shot("trajectory-failure"), traj
        interp = solver.dense_output()
        traj.ts.append(solver.t)
        traj.interps.append(interp)
        if shot is None:
            shot = _first_crossing(interp, traj.ts[-2], solver.t, c_prev)
            c_prev = collinearity(solver.y)
            if shot is None and solver.t >= t_max:
                return Shot("event-not-found"), traj
        if shot is not None and solver.t >= extend_to:
            return shot, traj
        if _min_pair_distance(solver.y) < MIN_DISTANCE:
            return Shot("trajectory-failure"), traj
    return shot or Shot("event-not-found"), traj


def _first_crossing(interp, t_start, t_end, c_start):
    """Residuals at the first sign change of the collinearity in the step, or None."""
    ts = t_start + _FRACS * (t_end - t_start)
    cs = collinearity(interp(ts))
    prev = np.append(c_start, cs[:-1])
    flips = np.flatnonzero((cs == 0.0) | ((cs > 0.0) != (prev > 0.0)))
    if not flips.size:
        return None
    k = flips[0]
    lo = t_start if k == 0 else ts[k - 1]
    t_f = ts[k] if cs[k] == 0.0 else brentq(
        lambda s: collinearity(interp(s)), lo, ts[k],
        xtol=1e-14, rtol=4 * np.finfo(float).eps)
    return _residuals(t_f, interp(t_f))


def _residuals(t_f, y):
    q = y[:6].reshape(3, 2)
    p = y[6:].reshape(3, 2)
    P = p[2, 0] * p[1, 1] - p[2, 1] * p[1, 0]
    r01 = float(np.sum((q[1] - q[0]) ** 2))
    r02 = float(np.sum((q[2] - q[0]) ** 2))
    return Shot("ok", t_f=float(t_f),
                P_norm=P / (np.hypot(*p[1]) * np.hypot(*p[2])),
                D_norm=(r01 - r02) / max(r01, r02))
