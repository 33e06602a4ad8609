"""Adaptive propagation of the three-body equations of motion.

The stepper is DOP853, the explicit 8(5,3) embedded Runge-Kutta pair with
its 7th-order dense output (Hairer, Norsett & Wanner, *Solving ODEs I*,
II.5-II.6). Its step loop lives in this module. The loop repeats the
arithmetic of scipy's `DOP853` solver one operation at a time: the stage
sums, the initial-step rule, the error norm, the step controller, the
clip at the end time, and the dense-output rows and Horner sum. So it
takes the same steps, makes the same right-hand-side calls and returns
the same bits, without the solver object's per-step overhead. scipy
supplies the tableau (`scipy.integrate._ivp.dop853_coefficients`) and
`brentq`.

On that stepper: error-controlled integration to a fixed time, per-step
dense interpolants, near-collision failure detection, and localization
of the first collinearity event. The event is found by the sign of the
collinearity function at four probes per accepted step, at 0.25, 0.625,
0.90625 and 1.0 of the step (see `_EVENT_PROBES`), and refined by Brent's
method on the step's interpolant.

Single trajectories integrate sequentially; distinct trajectories share
no mutable state and may run concurrently.
"""

import copyreg
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate._ivp import dop853_coefficients as _dop
from scipy.optimize import brentq

from .artifacts import write_csv
# `_propagate` looks `make_rhs` up in this module, so binding the name here
# lets callers substitute a counting or failing right-hand side
from .dynamics import PotentialSpec, make_rhs

__all__ = [
    "IntegratorConfig",
    "TrajectorySegment",
    "IntegrationError",
    "TrajectoryFailure",
    "StiffnessFailure",
    "EventNotFound",
    "collinearity",
    "integrate",
    "integrate_to_collinear",
]


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and guards for trajectory propagation."""

    rel_tol: float = 1e-11
    abs_tol: float = 1e-11
    max_step: float = math.inf
    t_max: float = 200.0
    min_distance: float = 1e-3

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.t_max <= 0:
            raise ValueError("t_max must be positive")
        if self.min_distance <= 0:
            raise ValueError("min_distance must be positive")

    def to_json_dict(self) -> dict:
        return {
            "rel_tol": self.rel_tol,
            "abs_tol": self.abs_tol,
            "max_step": None if math.isinf(self.max_step) else self.max_step,
            "t_max": self.t_max,
            "min_distance": self.min_distance,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "IntegratorConfig":
        ms = d.get("max_step")
        return cls(
            rel_tol=float(d["rel_tol"]),
            abs_tol=float(d["abs_tol"]),
            max_step=math.inf if ms is None else float(ms),
            t_max=float(d["t_max"]),
            min_distance=float(d["min_distance"]),
        )


class IntegrationError(Exception):
    """Base for trajectory propagation failures.

    `params` carries the launch parameters of the failed trajectory when
    the raiser knows them, else None.
    """

    def __init__(self, *args, params=None):
        super().__init__(*args)
        self.params = params


class TrajectoryFailure(IntegrationError):
    """Trajectory left the trusted region (near-collision blowup)."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} at t={t:.6g}")
        self.t = t

    def __reduce__(self):
        # args hold the formatted message, not (message, t): rebuild the
        # instance without __init__ and restore t and params as state
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class StiffnessFailure(TrajectoryFailure):
    """Step-size underflow / stepper breakdown."""


class EventNotFound(IntegrationError):
    """No collinearity sign change before the abort horizon."""


# columns of the sampled-state CSVs of segments and full orbits
STATE_CSV_COLUMNS = "t,x0,y0,x1,y1,x2,y2,vx0,vy0,vx1,vy1,vx2,vy2".split(",")


class TrajectorySegment:
    """Dense record of one integrated trajectory on [0, t_end].

    Stores the accepted step times and the per-step interpolants, so the
    state can be evaluated anywhere inside the covered interval to
    integration accuracy.
    """

    def __init__(self, ts: list[float], interpolants: list, t_end: float):
        if len(ts) != len(interpolants) + 1:
            raise ValueError("need one interpolant per accepted step")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("step times must be strictly increasing")
        self.ts = ts
        self.interpolants = interpolants
        self.t_end = t_end
        self._stacked = None

    def eval(self, t: float) -> np.ndarray:
        """Flat 12-vector (positions, velocities) at time t in [0, t_end]."""
        return self.eval_many([t])[:, 0]

    def eval_many(self, t) -> np.ndarray:
        """Vectorized eval; returns shape (12, len(t)).

        One Horner pass over all times; step k (ts[k] <= t < ts[k+1], clamped
        at the ends) is gathered from arrays stacked once per segment. Each
        column equals that step's interpolant at its time bit for bit.
        """
        if self._stacked is None:
            ps = self.interpolants
            self._stacked = (np.asarray(self.ts), np.array([p.t_old for p in ps]),
                             np.array([p.h for p in ps]), np.array([p.y_old for p in ps]),
                             np.stack([p.F for p in ps], axis=1))
        ts, t_old, h, y_old, F = self._stacked
        t = np.asarray(t, dtype=float).ravel()
        k = np.searchsorted(ts, t, side="right") - 1
        np.clip(k, 0, len(self.interpolants) - 1, out=k)
        x = (t - t_old[k]) / h[k]
        return _dense_sum(F[:, k], y_old[k], x[:, None], np.zeros((t.size, 12))).T

    def to_csv(self, path, n_samples: int = 1000, header_lines: tuple[str, ...] = ()):
        """Uniform sampling of the covered interval to a CSV file."""
        ts = np.linspace(0.0, self.t_end, n_samples)
        write_csv(path, header_lines, STATE_CSV_COLUMNS,
                  np.vstack([ts, self.eval_many(ts)]).T.tolist())


def collinearity(y) -> float:
    """Cross product (q1 - q0) x (q2 - q0) of a flat state; zero iff the
    bodies are aligned."""
    return (y[2] - y[0]) * (y[5] - y[1]) - (y[3] - y[1]) * (y[4] - y[0])


def _min_pair_dist_sq(y) -> float:
    d01 = (y[0] - y[2]) ** 2 + (y[1] - y[3]) ** 2
    d02 = (y[0] - y[4]) ** 2 + (y[1] - y[5]) ** 2
    d12 = (y[2] - y[4]) ** 2 + (y[3] - y[5]) ** 2
    return min(d01, d02, d12)


# DOP853 tableau. Rows of the stage array K: 0..11 the step's stages, 12
# the derivative at the step end, 13..15 the dense output's extra stages.
_N_STAGES = _dop.N_STAGES
_N_ROWS = _dop.N_STAGES_EXTENDED
_STEP_STAGES = [(s, _dop.A[s, :s], _dop.C[s]) for s in range(1, _N_STAGES)]
_DENSE_STAGES = [(s, _dop.A[s, :s], _dop.C[s])
                 for s in range(_N_STAGES + 1, _N_ROWS)]

# step controller of scipy's RungeKutta solvers
_ERROR_ORDER = 7
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_ERROR_EXPONENT = -1 / (_ERROR_ORDER + 1)
_RTOL_FLOOR = 100 * np.finfo(float).eps


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(rhs, y0, f0, t_bound, max_step, rtol, atol) -> float:
    """First step size from t = 0 (Hairer et al. II.4, as scipy chooses it)."""
    interval_length = float(t_bound)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = np.array(rhs(h0, (y0 + h0 * f0).tolist()))
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (_ERROR_ORDER + 1))
    return float(min(100 * h0, h1, interval_length, max_step))


def _dense_sum(F, y_old, x, y):
    """Dense-output value at the step fractions x, summed into a zeroed y.

    The Horner scheme of scipy's Dop853DenseOutput, operation for
    operation, so that a row of an array evaluation equals the scalar
    evaluation at that time bit for bit.
    """
    xm = 1 - x
    for f, w in zip(F[::-1], (x, xm, x, xm, x, xm, x)):
        y += f
        y *= w
    y += y_old
    return y


class _StepInterpolant:
    """DOP853 dense output on one accepted step [t_old, t]."""

    __slots__ = ("t_old", "h", "y_old", "F")

    def __init__(self, t_old: float, t: float, y_old: np.ndarray, F: np.ndarray):
        self.t_old = t_old
        self.h = t - t_old
        self.y_old = y_old
        self.F = F

    def __call__(self, t):
        """Flat 12-vector at a scalar t; shape (12, n) for n times."""
        if np.ndim(t) == 0:
            return _dense_sum(self.F, self.y_old, (t - self.t_old) / self.h,
                              np.zeros(12))
        x = (np.asarray(t, dtype=float) - self.t_old) / self.h
        return _dense_sum(self.F, self.y_old, x[:, None],
                          np.zeros((x.size, 12))).T


# Event sign monitoring per accepted step. Each probe moves this fraction
# of the way from the previous probe (the last one of the step before, at
# first) to the step end, so the probes sit at 0.25, 0.625, 0.90625 and
# 1.0 of the step, not at the quarters. Other offsets would move every
# event time, so they stay as they are.
_EVENT_PROBES = (0.25, 0.5, 0.75, 1.0)


def _probe_times(prev_t: float, t: float) -> list[float]:
    """Probe times of the step ending at t, after a probe at prev_t."""
    out = []
    for frac in _EVENT_PROBES:
        prev_t = prev_t + frac * (t - prev_t)
        out.append(prev_t)
    return out


def _initial_state(y0) -> np.ndarray:
    """A float64 copy of y0, checked to be one finite flat state."""
    y = np.array(y0, dtype=float)
    if y.shape != (12,):
        raise ValueError(f"a state has shape (12,), got {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("initial state must be finite")
    return y


def _propagate(y: np.ndarray, spec: PotentialSpec, cfg: IntegratorConfig,
               t_bound: float, find_collinear: bool):
    """Shared stepping driver: DOP853 steps from t = 0 towards t_bound.

    Returns (segment, t_event or None, y_event or None). Raises on
    near-collision, step-size underflow, or (when event hunting) a missing
    sign change before t_bound.
    """
    max_step = cfg.max_step
    if max_step <= 0:
        raise ValueError("max_step must be positive")
    rtol, atol = cfg.rel_tol, cfg.abs_tol
    if rtol < _RTOL_FLOOR:
        warnings.warn(f"rel_tol raised to {_RTOL_FLOOR}", stacklevel=3)
        rtol = _RTOL_FLOOR
    rhs = make_rhs(spec)

    # One stage array for the whole run. np.dot on the views K[:s].T sums
    # in the same order as scipy's solver, which uses the same layout.
    K = np.empty((_N_ROWS, 12))
    KT = [K[:s].T for s in range(_N_ROWS + 1)]
    step_stages = [(K[s], KT[s], a, c) for s, a, c in _STEP_STAGES]
    dense_stages = [(K[s], KT[s], a, c) for s, a, c in _DENSE_STAGES]
    k_first, k_end = K[0], K[_N_STAGES]
    kt_sol, kt_err = KT[_N_STAGES], KT[_N_STAGES + 1]

    t = 0.0
    try:
        k_end[:] = rhs(t, y.tolist())
        h_abs = _initial_step(rhs, y, k_end, t_bound, max_step, rtol, atol)
        min_d2 = cfg.min_distance ** 2
        if _min_pair_dist_sq(y) < min_d2:
            raise TrajectoryFailure("bodies closer than min_distance", 0.0)

        ts = [t]
        interps = []
        prev_t = t
        prev_c = collinearity(y)

        while True:
            min_step = 10 * abs(math.nextafter(t, math.inf) - t)
            if h_abs > max_step:
                h_abs = max_step
            elif h_abs < min_step:
                h_abs = min_step
            k_first[:] = k_end
            rejected = False
            while True:
                if h_abs < min_step:
                    raise StiffnessFailure("stepper breakdown (step-size underflow)", t)
                t_new = t + h_abs
                if t_new - t_bound > 0:
                    t_new = t_bound
                h = t_new - t
                h_abs = abs(h)
                for row, kt, a, c in step_stages:
                    row[:] = rhs(t + c * h, (y + np.dot(kt, a) * h).tolist())
                y_new = y + h * np.dot(kt_sol, _dop.B)
                y_list = y_new.tolist()
                k_end[:] = rhs(t + h, y_list)

                scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
                err5 = np.dot(kt_err, _dop.E5) / scale
                err3 = np.dot(kt_err, _dop.E3) / scale
                err5_2 = math.sqrt(err5.dot(err5)) ** 2
                err3_2 = math.sqrt(err3.dot(err3)) ** 2
                if err5_2 == 0 and err3_2 == 0:
                    error_norm = 0.0
                else:
                    denom = err5_2 + 0.01 * err3_2
                    error_norm = abs(h) * err5_2 / math.sqrt(denom * scale.size)

                if error_norm < 1:
                    if error_norm == 0:
                        factor = _MAX_FACTOR
                    else:
                        factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                    if rejected:
                        factor = min(1, factor)
                    h_abs *= factor
                    break
                h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                rejected = True

            t_old, y_old, t, y = t, y, t_new, y_new
            for row, kt, a, c in dense_stages:
                row[:] = rhs(t_old + c * h, (y_old + np.dot(kt, a) * h).tolist())
            F = np.empty((_dop.INTERPOLATOR_POWER, 12))
            delta_y = y - y_old
            F[0] = delta_y
            F[1] = h * k_first - delta_y
            F[2] = 2 * delta_y - h * (k_end + k_first)
            F[3:] = h * np.dot(_dop.D, K)
            interp = _StepInterpolant(t_old, t, y_old, F)
            interps.append(interp)
            ts.append(t)

            if find_collinear:
                # the four probes in one pass over the six position components
                probes = _probe_times(prev_t, t)
                x = (np.array(probes) - t_old) / interp.h
                q = _dense_sum(F[:, :6], y_old[:6], x[:, None], np.zeros((len(probes), 6)))
                cs = ((q[:, 2] - q[:, 0]) * (q[:, 5] - q[:, 1])
                      - (q[:, 3] - q[:, 1]) * (q[:, 4] - q[:, 0])).tolist()
                for tt, c in zip(probes, cs):
                    if c == 0.0 or (prev_c > 0.0) != (c > 0.0):
                        if c == 0.0:
                            te = tt
                        else:
                            te = brentq(lambda s: collinearity(interp(s)),
                                        prev_t, tt, xtol=1e-13, rtol=8.9e-16)
                        seg = TrajectorySegment(ts, interps, te)
                        return seg, te, interp(te)
                    prev_t, prev_c = tt, c

            if _min_pair_dist_sq(y_list) < min_d2:
                raise TrajectoryFailure("bodies closer than min_distance", t)
            if t - t_bound >= 0:
                break
    except ZeroDivisionError as exc:
        # a trial stage at an exact zero pair distance, before min_distance sees it
        raise TrajectoryFailure("zero pair distance", t) from exc

    if find_collinear:
        raise EventNotFound(
            f"no collinearity sign change in [0, {t_bound:.6g}]")
    return TrajectorySegment(ts, interps, t), None, None


def integrate(y0, spec: PotentialSpec, t_end: float,
              cfg: IntegratorConfig) -> TrajectorySegment:
    """Propagate the flat state y0 for t_end time units, returning the dense
    segment."""
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    seg, _, _ = _propagate(_initial_state(y0), spec, cfg, t_end, find_collinear=False)
    return seg


def integrate_to_collinear(y0, spec: PotentialSpec, cfg: IntegratorConfig):
    """Propagate the flat state y0 until the first zero of the collinearity
    function.

    Returns (t_f, y_f, segment), y_f the flat state at t_f. The event time
    is refined on the dense interpolant to a bracket below 1e-12 in t.
    Raises EventNotFound if the sign never changes before cfg.t_max.
    """
    y = _initial_state(y0)
    if collinearity(y) == 0.0:
        raise ValueError("initial state is already collinear")
    seg, te, ye = _propagate(y, spec, cfg, cfg.t_max, find_collinear=True)
    return te, ye, seg
