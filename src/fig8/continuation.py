"""Pseudo-arclength continuation of solution families.

Solutions come in one-parameter families in (x0, y0, v) that fold back
in x0, so x0 cannot serve as the continuation parameter. Points advance
by a secant predictor in start-normalized coordinates. The predicted
point lies on the arclength hyperplane, and the corrector drives both
shooting residuals to zero within that hyperplane with the damped Newton
of `shooting.solve_on_plane`. Folds are recorded where the x0 step
changes sign. Distinguished points (energy zero and maximum, period
minimum, smallest x0) are refined afterwards over the series' arclength,
by Brent's root finder or Brent's bounded minimizer. Every probe is a
full corrector re-convergence on the hyperplane normal to its segment,
started from the quadratic through the three nearest converged points,
so that it needs about one Newton iteration.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .artifacts import write_csv
from .dynamics import PotentialSpec
from .integrate import IntegrationError, IntegratorConfig
from .shooting import (SolutionRecord, SolverError, fd_jacobian,
                       residuals, solve_on_plane)

__all__ = [
    "ContinuationSeries",
    "ContinuationError",
    "SpecialPointNotFound",
    "continue_family",
    "locate_special",
    "SPECIAL_KINDS",
]

SPECIAL_KINDS = ("E-zero", "T-min", "E-max", "x0-min")
_CORRECTOR_MAX_ITER = 10


class ContinuationError(SolverError):
    """Corrector breakdown that prevents even the first continuation step."""


class SpecialPointNotFound(SolverError):
    """The series does not bracket the requested distinguished point."""


@dataclass
class ContinuationSeries:
    """An ordered family of converged solutions with fold bookkeeping."""

    label: str
    points: list[SolutionRecord]
    fold_points: list[int] = field(default_factory=list)
    special_points: list[tuple[str, SolutionRecord]] = field(default_factory=list)
    truncation_reason: str | None = None
    tol: float = 1e-10

    @property
    def scale(self) -> np.ndarray:
        p = self.points[0].params
        return np.array([p.x0, p.y0, p.v])

    def u_coords(self) -> np.ndarray:
        """Points in start-normalized coordinates, shape (n, 3)."""
        s = self.scale
        return np.array([[p.params.x0, p.params.y0, p.params.v] for p in self.points]) / s

    def x0_values(self) -> np.ndarray:
        return np.array([p.params.x0 for p in self.points])

    def to_csv(self, path, header_lines: tuple[str, ...] = ()):
        write_csv(path, header_lines, "label,x0,y0,v,T,E,n0".split(","),
                  ((self.label, *p.params, p.T, p.E, p.n0) for p in self.points))


def _normal_plane(tangent: np.ndarray) -> np.ndarray:
    """Two orthonormal directions spanning the hyperplane normal to tangent."""
    return np.linalg.svd(tangent.reshape(1, 3))[2][1:]


def continue_family(start: SolutionRecord, spec: PotentialSpec,
                    cfg: IntegratorConfig, step: float = 0.01,
                    n_steps: int = 500, direction: int = 1,
                    tol: float = 1e-10, step_max_factor: float = 8.0,
                    x0_limits: tuple[float, float] | None = None,
                    label: str | None = None) -> ContinuationSeries:
    """Trace the family through `start` by pseudo-arclength continuation.

    direction fixes the sign of the initial x0 motion. The step adapts:
    halved when the corrector fails, grown 1.3x (up to step_max_factor
    times the nominal step) after corrector successes in three or fewer
    iterations. Stops after n_steps points, at x0_limits, or with a
    recorded truncation reason when the corrector cannot proceed.
    """
    if direction not in (-1, 1):
        raise ValueError("direction must be +1 or -1")
    if not step > 0 or n_steps < 0:
        raise ValueError("step must be positive and n_steps non-negative")
    label = label or start.series_label or "series"
    p0 = start.params
    scale = np.array([p0.x0, p0.y0, p0.v])
    u = np.array([1.0, 1.0, 1.0])
    s0 = residuals(p0, spec, cfg)
    if not s0.ok:
        raise ContinuationError(f"start point does not integrate: {s0.status}")
    if s0.norm > max(tol, 10.0 * start.residual_norm + 1e-14):
        raise ContinuationError(
            f"start point residual {s0.norm:.2e} above tolerance {tol:.2e}")
    series = ContinuationSeries(
        label=label, points=[SolutionRecord.from_sample(s0, spec, label)], tol=tol)
    # initial tangent: null direction of the residual Jacobian, oriented along x0
    J = fd_jacobian(u, s0, np.eye(3), scale, spec, cfg)
    tangent = np.linalg.svd(J)[2][2]
    if tangent[0] != 0.0 and math.copysign(1.0, tangent[0]) != direction:
        tangent = -tangent

    us = [u.copy()]
    h = step
    while len(series.points) < n_steps + 1:
        u_prev = us[-1]
        u_pred = u_prev + h * tangent
        # u_pred lies on the arclength hyperplane {(u - u_prev).tangent = h};
        # the corrector stays on it
        try:
            u_new, s_new, its = solve_on_plane(scale, u_pred, _normal_plane(tangent),
                                               spec, cfg, tol, _CORRECTOR_MAX_ITER)
        except (SolverError, IntegrationError) as exc:
            h *= 0.5
            if h < step * 2.0 ** -14:
                series.truncation_reason = f"step underflow: {exc}"
                break
            continue
        us.append(u_new.copy())
        series.points.append(SolutionRecord.from_sample(s_new, spec, label))
        if len(us) >= 3:
            d1 = us[-1][0] - us[-2][0]
            d0 = us[-2][0] - us[-3][0]
            if d0 * d1 < 0.0:
                series.fold_points.append(len(us) - 2)
        delta = us[-1] - u_prev
        norm = float(np.linalg.norm(delta))
        if norm == 0.0:
            series.truncation_reason = "corrector returned the anchor point"
            break
        tangent = delta / norm
        if its <= 3:
            h = min(h * 1.3, step * step_max_factor)
        x0_now = us[-1][0] * scale[0]
        if x0_limits is not None and not (x0_limits[0] <= x0_now <= x0_limits[1]):
            series.truncation_reason = f"reached x0 limit at {x0_now:.6g}"
            break
    return series


def _arc_params(us: np.ndarray):
    """Cumulative arclength of the normalized polyline."""
    seglen = np.linalg.norm(np.diff(us, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(seglen)])


def _curve_probe(series: ContinuationSeries, spec: PotentialSpec,
                 cfg: IntegratorConfig):
    """(probe, S, probed): S the series points' arclength along the
    polyline, probe(s) the family point at arclength s as a record, and
    probed every record probe made, by s.

    The point lies on the hyperplane normal to its segment through the
    polyline point at s. Its corrector starts from the quadratic in s
    through the three converged points nearest s (series points and
    earlier probes), projected onto that hyperplane.
    """
    us = series.u_coords()
    S = _arc_params(us)
    known = dict(zip(S.tolist(), us))
    probed = {}

    def probe(s: float) -> SolutionRecord:
        seg = min(max(int(np.searchsorted(S, s, side="right")) - 1, 0), len(us) - 2)
        tangent = (us[seg + 1] - us[seg]) / (S[seg + 1] - S[seg])
        u_chord = us[seg] + (s - S[seg]) * tangent
        near = sorted(known, key=lambda r: abs(r - s))[:3]
        guess = sum(known[r] * math.prod((s - q) / (r - q) for q in near if q != r)
                    for r in near)
        guess -= ((guess - u_chord) @ tangent) * tangent
        u, smp, _ = solve_on_plane(series.scale, guess, _normal_plane(tangent), spec,
                                   cfg, series.tol, _CORRECTOR_MAX_ITER)
        known[s] = u
        probed[s] = SolutionRecord.from_sample(smp, spec, series.label)
        return probed[s]

    return probe, S, probed


def locate_special(series: ContinuationSeries, kind: str,
                   cfg: IntegratorConfig,
                   spec: PotentialSpec | None = None,
                   s_tol: float = 1e-6) -> SolutionRecord:
    """Refine a distinguished point along the series.

    kind "E-zero" needs a sign change of the energy between consecutive
    points, refined by Brent's root finder on that segment. "T-min",
    "E-max" and "x0-min" need an interior discrete extremum, refined by
    Brent's bounded minimizer (parabolic steps, golden-section fallback)
    over the two segments around it; the best point probed is returned.
    Both work over the polyline's normalized arclength s and stop once
    the bracket in s is below s_tol times the polyline length (times 1
    for shorter polylines). Each probe is a full corrector re-convergence
    on the hyperplane normal to its segment at s, started from the curve
    through the nearest converged points. The refined record is returned
    and appended to the series' special_points.
    """
    if kind not in SPECIAL_KINDS:
        raise ValueError(f"unknown special point kind {kind!r}")
    if len(series.points) < 3:
        raise SpecialPointNotFound("series too short")
    probe, S, probed = _curve_probe(series, spec or series.points[0].potential, cfg)
    xtol = s_tol * max(S[-1], 1.0)

    if kind == "E-zero":
        E = [p.E for p in series.points]
        idx = next((k for k in range(len(E) - 1)
                    if E[k] == 0.0 or (E[k] > 0.0) != (E[k + 1] > 0.0)), None)
        if idx is None:
            raise SpecialPointNotFound("energy does not change sign along the series")
        s_root = brentq(lambda s: probe(s).E, S[idx], S[idx + 1], xtol=xtol)
        rec = probed.get(s_root) or probe(s_root)
    else:
        value = {"T-min": lambda r: r.T, "E-max": lambda r: -r.E,
                 "x0-min": lambda r: r.params.x0}[kind]
        k = int(np.argmin([value(p) for p in series.points]))
        if k == 0 or k == len(series.points) - 1:
            raise SpecialPointNotFound(f"{kind} not bracketed by interior points")
        minimize_scalar(lambda s: value(probe(s)), bounds=(S[k - 1], S[k + 1]),
                        method="bounded", options={"xatol": xtol})
        rec = min(probed.values(), key=value)
    series.special_points.append((kind, rec))
    return rec
