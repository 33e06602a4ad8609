"""Pseudo-arclength continuation of solution families.

Solutions come in one-parameter families in (x0, y0, v) that fold back
in x0, so x0 cannot serve as the continuation parameter. Points advance
by a secant predictor in start-normalized coordinates. The predicted
point lies on the arclength hyperplane, and the corrector drives both
shooting residuals to zero within that hyperplane with the damped Newton
of `shooting.solve_on_plane`. Each corrector starts from the previous
point's converged (secant-updated) Jacobian and gives up after a
two-trial line search, so that a missed basin costs a halved step
rather than a long backtrack. Folds are recorded where the x0 step
changes sign. Each point's converged Jacobian stays on the series.

Distinguished points (energy zero and maximum, period minimum, smallest
x0) are refined afterwards over the series' arclength, by Brent's root
finder or Brent's minimizer started from the bracket the series' own
points form. Every probe is a full corrector re-convergence on the
hyperplane normal to its segment, started from the quadratic through
the three nearest converged points and from the Jacobian of the nearest
one, so that it needs about one Newton iteration. The series keeps one
probe cache that every search on it shares: the series points and every
converged probe, by arclength, so a search re-probes neither the series
points it brackets nor the points earlier searches converged. The cache
holds while the series' points, label and tolerance and the integrator
configuration stay the same; any change starts a fresh one.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .artifacts import write_csv
from .dynamics import PotentialSpec, ShootingParams
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
_CORRECTOR_TRIALS = 2  # line-search trials before the step is halved instead
_GROW_MAX_ITER = 5  # corrector iterations at most for the step to grow
_STEP_MAX_FACTOR = 8.0  # cap on the arclength step, in nominal steps
_S_TOL = 1e-6  # special-point bracket in s, relative to the polyline length


class ContinuationError(SolverError):
    """Corrector breakdown that prevents even the first continuation step."""


class SpecialPointNotFound(SolverError):
    """The series does not bracket the requested distinguished point."""


@dataclass
class _ProbeCache:
    """Converged points along a series' polyline, for `_curve_probe`.

    `known` maps arclength s to (u, record, J): the series points (J from
    the series' Jacobians, or None) and every converged probe. Valid only
    for `key`, the series' points, label and tolerance and the integrator
    configuration it was built with.
    """

    key: tuple
    us: np.ndarray
    S: list[float]
    known: dict[float, tuple[np.ndarray, SolutionRecord, np.ndarray | None]]


@dataclass
class ContinuationSeries:
    """An ordered family of converged solutions with fold bookkeeping."""

    label: str
    points: list[SolutionRecord]
    fold_points: list[int] = field(default_factory=list)
    special_points: list[tuple[str, SolutionRecord]] = field(default_factory=list)
    truncation_reason: str | None = None
    tol: float = 1e-10
    # d(P_norm, D_norm)/d(x0, y0, v) at the points `continue_family`
    # converged, by parameters; warm starts for the special-point probes
    _jacobians: dict[ShootingParams, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _probes: _ProbeCache | None = field(default=None, init=False, repr=False,
                                        compare=False)

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
                    tol: float = 1e-10,
                    x0_limits: tuple[float, float] | None = None,
                    label: str | None = None) -> ContinuationSeries:
    """Trace the family through `start` by pseudo-arclength continuation.

    direction fixes the sign of the initial x0 motion. The residual
    Jacobian is carried along the family: the forward-difference one of
    the initial tangent seeds the first corrector, and each corrector's
    converged Jacobian seeds the next (after a failed corrector, the last
    converged one is reused). Each point's Jacobian is kept on the series
    for `locate_special`'s probes. The corrector's line search stops after
    _CORRECTOR_TRIALS (two) trials. The step adapts: halved when the
    corrector fails, grown 1.3x (up to _STEP_MAX_FACTOR times the
    nominal step) after corrector successes in _GROW_MAX_ITER (five) or
    fewer iterations, secant steps counted. Stops after n_steps points,
    at x0_limits, or with a recorded truncation reason when the
    corrector cannot proceed.
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
    series._jacobians[p0] = J / scale
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
            u_new, s_new, its, J_new = solve_on_plane(
                scale, u_pred, _normal_plane(tangent), spec, cfg, tol,
                _CORRECTOR_MAX_ITER, jacobian=J, trials=_CORRECTOR_TRIALS)
        except (SolverError, IntegrationError) as exc:
            h *= 0.5
            if h < step * 2.0 ** -14:
                series.truncation_reason = f"step underflow: {exc}"
                break
            continue
        J = J_new
        us.append(u_new.copy())
        series.points.append(SolutionRecord.from_sample(s_new, spec, label))
        series._jacobians[s_new.params] = J / scale
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
        if its <= _GROW_MAX_ITER:
            h = min(h * 1.3, step * _STEP_MAX_FACTOR)
        x0_now = us[-1][0] * scale[0]
        if x0_limits is not None and not (x0_limits[0] <= x0_now <= x0_limits[1]):
            series.truncation_reason = f"reached x0 limit at {x0_now:.6g}"
            break
    return series


def _arc_params(us: np.ndarray):
    """Cumulative arclength of the normalized polyline."""
    seglen = np.linalg.norm(np.diff(us, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(seglen)])


def _curve_probe(series: ContinuationSeries, cfg: IntegratorConfig):
    """(probe, S, probed): S the series points' arclength along the
    polyline, probe(s) the family point at arclength s as a record, and
    probed every record this probe returned, by s.

    Known points are the series' probe cache: the series points and the
    probes of every search run on the series since its points, label or
    tolerance, or cfg, last changed (a change starts a fresh cache). A
    probe at a known s returns its record without integrating. Any other
    lies on the hyperplane normal to its segment through the polyline
    point at s. Its corrector starts from the quadratic in s through the
    three nearest known points, projected onto that hyperplane, and from
    the Jacobian of the nearest (none for a series point without one),
    runs under the series' own potential, and adds the converged point
    to the cache.
    """
    spec = series.points[0].potential
    key = (tuple(series.points), series.label, series.tol, cfg)
    cache = series._probes
    if cache is None or cache.key != key:
        us = series.u_coords()
        S = _arc_params(us).tolist()
        scale = series.scale
        known = {}
        for s, u, p in zip(S, us, series.points):
            J = series._jacobians.get(p.params)
            known[s] = (u, p, None if J is None else J * scale)
        cache = series._probes = _ProbeCache(key, us, S, known)
    us, S, known = cache.us, cache.S, cache.known
    probed = {}

    def probe(s: float) -> SolutionRecord:
        if s not in known:
            seg = min(max(bisect_right(S, s) - 1, 0), len(us) - 2)
            tangent = (us[seg + 1] - us[seg]) / (S[seg + 1] - S[seg])
            u_chord = us[seg] + (s - S[seg]) * tangent
            near = sorted(known, key=lambda r: abs(r - s))[:3]
            guess = sum(known[r][0] * math.prod((s - q) / (r - q) for q in near if q != r)
                        for r in near)
            guess -= ((guess - u_chord) @ tangent) * tangent
            u, smp, _, J = solve_on_plane(series.scale, guess, _normal_plane(tangent),
                                          spec, cfg, series.tol, _CORRECTOR_MAX_ITER,
                                          jacobian=known[near[0]][2])
            known[s] = (u, SolutionRecord.from_sample(smp, spec, series.label), J)
        probed[s] = known[s][1]
        return probed[s]

    return probe, S, probed


def locate_special(series: ContinuationSeries, kind: str,
                   cfg: IntegratorConfig) -> SolutionRecord:
    """Refine a distinguished point along the series.

    kind "E-zero" needs a sign change of the energy between consecutive
    points, refined by Brent's root finder on that segment. "T-min",
    "E-max" and "x0-min" need a strict interior discrete extremum, refined
    by Brent's minimizer (parabolic steps, golden-section fallback) from
    the bracket it and its two neighbours form; the best point probed is
    returned. Both work over the polyline's normalized arclength s and
    stop once the bracket in s is below _S_TOL times the polyline length
    (times 1 for shorter polylines). Each probe goes through the series'
    probe cache (`_curve_probe`): the series points and the points earlier
    searches converged cost no integration, and a new probe is a full
    corrector re-convergence on the hyperplane normal to its segment at s,
    warm-started from the nearest known points. So a search's result may
    differ, within its bracket, with the searches run on the series before
    it. The refined record is returned and appended to the series'
    special_points.
    """
    if kind not in SPECIAL_KINDS:
        raise ValueError(f"unknown special point kind {kind!r}")
    if len(series.points) < 3:
        raise SpecialPointNotFound("series too short")
    probe, S, probed = _curve_probe(series, cfg)
    xtol = _S_TOL * max(S[-1], 1.0)

    if kind == "E-zero":
        E = [p.E for p in series.points]
        idx = next((k for k in range(len(E) - 1)
                    if E[k] == 0.0 or (E[k] > 0.0) != (E[k + 1] > 0.0)), None)
        if idx is None:
            raise SpecialPointNotFound("energy does not change sign along the series")
        rec = probe(brentq(lambda s: probe(s).E, S[idx], S[idx + 1], xtol=xtol))
    else:
        value = {"T-min": lambda r: r.T, "E-max": lambda r: -r.E,
                 "x0-min": lambda r: r.params.x0}[kind]
        vals = [value(p) for p in series.points]
        k = int(np.argmin(vals))
        if not 0 < k < len(vals) - 1 or not vals[k - 1] > vals[k] < vals[k + 1]:
            raise SpecialPointNotFound(f"{kind} not bracketed by interior points")
        # Brent's xtol is relative to |s|; scaled by the bracket's largest s it
        # is at most xtol/3 in s, the bounded search's absolute term, so the
        # final bracket is no wider than that search's
        minimize_scalar(lambda s: value(probe(s)), bracket=(S[k - 1], S[k], S[k + 1]),
                        method="brent", options={"xtol": xtol / (3.0 * S[k + 1])})
        rec = min(probed.values(), key=value)
    series.special_points.append((kind, rec))
    return rec
