"""Shooting residuals at the first collinear event, grid scans, and the
damped Newton that pins figure-eight solutions on a plane in (x0, y0, v).

A trajectory launched from the isosceles configuration is a figure-eight
choreography exactly when, at its first collinear instant, the two outer
bodies move in parallel (residual P) and sit symmetrically about the
inner one (residual D). Both residuals vanish together at a solution.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .artifacts import write_csv
from .dynamics import (PotentialSpec, ShootingParams, isosceles_state,
                       total_energy)
from .integrate import (EventNotFound, IntegrationError, IntegratorConfig,
                        TrajectoryFailure, integrate_to_collinear)

__all__ = [
    "STATUS_OK",
    "STATUS_TRAJECTORY_FAILURE",
    "STATUS_EVENT_NOT_FOUND",
    "ResidualSample",
    "ContourGrid",
    "SolutionRecord",
    "SolverError",
    "NewtonDivergence",
    "SingularJacobian",
    "residuals",
    "scan_grid",
    "find_seeds",
    "fd_jacobian",
    "solve_on_plane",
    "newton_solve",
    "energy_in_published_range",
    "solution_record_json",
    "solution_record_from_json",
]

STATUS_OK = "ok"
STATUS_TRAJECTORY_FAILURE = "trajectory-failure"
STATUS_EVENT_NOT_FOUND = "event-not-found"


@dataclass(frozen=True)
class ResidualSample:
    """Shooting residuals for one parameter triple.

    P is the cross product of the outer bodies' velocities at the first
    collinear event, D the difference of their squared separations from
    body 0 there. P_norm and D_norm carry the dimensionless versions
    (P scaled by the product of the outer speeds, D by the larger squared
    separation) used for every tolerance test. E is the conserved total
    energy, evaluated at launch. On a failed trajectory only the launch
    energy survives.
    """

    params: ShootingParams
    status: str = STATUS_OK
    P: float | None = None
    D: float | None = None
    E: float | None = None
    t_f: float | None = None
    P_norm: float | None = None
    D_norm: float | None = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def norm(self) -> float:
        """Euclidean norm of the dimensionless residual pair."""
        if not self.ok:
            return math.inf
        return math.hypot(self.P_norm, self.D_norm)


def residuals(params: ShootingParams, spec: PotentialSpec,
              cfg: IntegratorConfig) -> ResidualSample:
    """Integrate to the first collinear event and evaluate (P, D, E, t_f)."""
    state0 = isosceles_state(params)
    E0 = total_energy(state0, spec)
    try:
        t_f, y_f, _ = integrate_to_collinear(state0, spec, cfg)
    except TrajectoryFailure:
        return ResidualSample(params=params, status=STATUS_TRAJECTORY_FAILURE, E=E0)
    except EventNotFound:
        return ResidualSample(params=params, status=STATUS_EVENT_NOT_FOUND, E=E0)

    x0, y0, x1, y1, x2, y2, _, _, vx1, vy1, vx2, vy2 = y_f.tolist()
    P = vx2 * vy1 - vy2 * vx1
    dx1, dy1, dx2, dy2 = x1 - x0, y1 - y0, x2 - x0, y2 - y0
    r01sq = dx1 * dx1 + dy1 * dy1
    r02sq = dx2 * dx2 + dy2 * dy2
    D = r01sq - r02sq
    speed_scale = math.hypot(vx1, vy1) * math.hypot(vx2, vy2)
    return ResidualSample(
        params=params, status=STATUS_OK, P=P, D=D, E=E0, t_f=t_f,
        P_norm=P / speed_scale, D_norm=D / max(r01sq, r02sq),
    )


@dataclass
class ContourGrid:
    """Dense residual samples over a (y0, v) rectangle at fixed x0."""

    x0: float
    y0_axis: np.ndarray
    v_axis: np.ndarray
    samples: list[list[ResidualSample]]

    def __post_init__(self):
        if np.any(np.diff(self.y0_axis) <= 0) or np.any(np.diff(self.v_axis) <= 0):
            raise ValueError("grid axes must be strictly increasing")
        if len(self.samples) != len(self.y0_axis) or any(
                len(row) != len(self.v_axis) for row in self.samples):
            raise ValueError("sample matrix shape must match the axes")

    def to_csv(self, path, header_lines: tuple[str, ...] = ()):
        """Long-format CSV: one row per lattice point."""
        write_csv(path, header_lines, "x0,y0,v,P,D,E,t_f,status".split(","),
                  ((self.x0, s.params.y0, s.params.v, s.P, s.D, s.E, s.t_f, s.status)
                   for row in self.samples for s in row))

    def to_json_dict(self) -> dict:
        def matrix(attr):
            return [[getattr(s, attr) for s in row] for row in self.samples]

        return {
            "x0": self.x0,
            "y0_axis": [float(v) for v in self.y0_axis],
            "v_axis": [float(v) for v in self.v_axis],
            "P": matrix("P"),
            "D": matrix("D"),
            "E": matrix("E"),
            "t_f": matrix("t_f"),
            "status": matrix("status"),
        }


# module-level worker so process pools can pickle it
def _scan_cell(args):
    x0, y0, v, spec, cfg = args
    return residuals(ShootingParams(x0, y0, v), spec, cfg)


def scan_grid(x0: float, y0_range: tuple[float, float], v_range: tuple[float, float],
              n_y0: int, n_v: int, spec: PotentialSpec, cfg: IntegratorConfig,
              jobs: int = 1) -> ContourGrid:
    """Evaluate residuals on an n_y0 x n_v lattice; failures are recorded per cell."""
    if n_y0 < 2 or n_v < 2:
        raise ValueError("grid needs at least 2 points per axis")
    if not (0 < y0_range[0] < y0_range[1] and 0 < v_range[0] < v_range[1]):
        raise ValueError("ranges must be positive and ordered")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    y0_axis = np.linspace(y0_range[0], y0_range[1], n_y0)
    v_axis = np.linspace(v_range[0], v_range[1], n_v)
    tasks = [(x0, y0, v, spec, cfg) for y0 in y0_axis for v in v_axis]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            flat = list(pool.map(_scan_cell, tasks, chunksize=64))
    else:
        flat = [_scan_cell(t) for t in tasks]
    samples = [flat[i * n_v:(i + 1) * n_v] for i in range(n_y0)]
    return ContourGrid(x0=x0, y0_axis=y0_axis, v_axis=v_axis, samples=samples)


def _bilinear_root(pc, dc):
    """Intersection of the two bilinear zero curves on the unit cell.

    pc, dc are corner values ordered (00, 10, 01, 11) in (xi, eta).
    Returns (xi, eta) inside [0, 1]^2 or None.
    """

    def f(c, xi, eta):
        return (c[0] * (1 - xi) * (1 - eta) + c[1] * xi * (1 - eta)
                + c[2] * (1 - xi) * eta + c[3] * xi * eta)

    def grad(c, xi, eta):
        dxi = (c[1] - c[0]) * (1 - eta) + (c[3] - c[2]) * eta
        deta = (c[2] - c[0]) * (1 - xi) + (c[3] - c[1]) * xi
        return dxi, deta

    xi, eta = 0.5, 0.5
    for _ in range(25):
        fp = f(pc, xi, eta)
        fd = f(dc, xi, eta)
        if abs(fp) < 1e-14 and abs(fd) < 1e-14:
            break
        a, b = grad(pc, xi, eta)
        c, d = grad(dc, xi, eta)
        det = a * d - b * c
        if det == 0.0:
            return None
        xi -= (d * fp - b * fd) / det
        eta -= (-c * fp + a * fd) / det
        if not (-1.0 <= xi <= 2.0 and -1.0 <= eta <= 2.0):
            return None
    if -1e-9 <= xi <= 1 + 1e-9 and -1e-9 <= eta <= 1 + 1e-9:
        return min(max(xi, 0.0), 1.0), min(max(eta, 0.0), 1.0)
    return None


def find_seeds(grid: ContourGrid) -> list[ShootingParams]:
    """Candidate solution parameters from lattice cells where both residuals
    change sign. Cells containing failed samples are skipped."""
    seeds = []
    ny, nv = len(grid.y0_axis), len(grid.v_axis)
    for i in range(ny - 1):
        for j in range(nv - 1):
            cell = (grid.samples[i][j], grid.samples[i + 1][j],
                    grid.samples[i][j + 1], grid.samples[i + 1][j + 1])
            if not all(s.ok for s in cell):
                continue
            pc = [s.P for s in cell]
            dc = [s.D for s in cell]
            if not (min(pc) < 0.0 < max(pc) and min(dc) < 0.0 < max(dc)):
                continue
            hit = _bilinear_root(pc, dc)
            xi, eta = hit if hit is not None else (0.5, 0.5)
            y0 = grid.y0_axis[i] + xi * (grid.y0_axis[i + 1] - grid.y0_axis[i])
            v = grid.v_axis[j] + eta * (grid.v_axis[j + 1] - grid.v_axis[j])
            seeds.append(ShootingParams(grid.x0, float(y0), float(v)))
    return seeds


@dataclass(frozen=True)
class SolutionRecord:
    """A converged figure-eight solution.

    T is the full choreography period (twelve times the collinear event
    time); residual_norm is the dimensionless residual magnitude at the
    converged parameters; n0 is the per-body collision count, filled in
    by the orbit-analysis layer when requested.
    """

    params: ShootingParams
    T: float
    E: float
    residual_norm: float
    potential: PotentialSpec
    n0: int | None = None
    series_label: str | None = None

    @classmethod
    def from_sample(cls, s: ResidualSample, spec: PotentialSpec,
                    label: str | None = None) -> "SolutionRecord":
        """Record of a successful residual sample (T is twelve event times)."""
        return cls(params=s.params, T=12.0 * s.t_f, E=s.E, residual_norm=s.norm,
                   potential=spec, series_label=label)

    def with_n0(self, n0: int) -> "SolutionRecord":
        return replace(self, n0=n0)

    def with_label(self, label: str) -> "SolutionRecord":
        return replace(self, series_label=label)


# published total-energy window for lj(12,6) solutions, used as a sanity
# flag only (euler-line potential minimum up to the observed maximum)
_E_RANGE_LJ126 = (-5547.0 / 10924.0, 0.295542)
_E_RANGE_SLACK = 1e-3


def energy_in_published_range(E: float) -> bool:
    lo, hi = _E_RANGE_LJ126
    return lo - _E_RANGE_SLACK <= E <= hi + _E_RANGE_SLACK


class SolverError(Exception):
    """Base for shooting-solver failures."""


class NewtonDivergence(SolverError):
    def __init__(self, message: str, best_params: ShootingParams,
                 best_norm: float, iterations: int):
        super().__init__(f"{message} (best |F|={best_norm:.3e} "
                         f"after {iterations} iterations)")
        self.best_params = best_params
        self.best_norm = best_norm
        self.iterations = iterations


class SingularJacobian(SolverError):
    def __init__(self, params: ShootingParams):
        super().__init__(f"residual Jacobian singular to working precision at {params}")
        self.params = params


# forward-difference step along a direction d at u: _FD_REL_STEP times
# the size of u along d (|u_k| for a coordinate direction), floored
_FD_REL_STEP = 1e-6
_FD_ABS_FLOOR = 1e-8
# trial steps of the backtracking line search, halving from the full step
_LINE_SEARCH_TRIALS = 12

# solve planes in start-scaled coordinates u = (x0, y0, v) / start
_FIXED_X0 = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def _sample_at(u: np.ndarray, scale: np.ndarray, spec: PotentialSpec,
               cfg: IntegratorConfig) -> ResidualSample:
    """Residuals at the parameters u * scale; a failed trajectory or a
    non-positive parameter raises IntegrationError."""
    x0, y0, v = (float(c) for c in u * scale)
    if not (x0 > 0 and y0 > 0 and v > 0):
        raise IntegrationError(
            f"parameters left the positive domain: ({x0:.6g}, {y0:.6g}, {v:.6g})")
    params = ShootingParams(x0, y0, v)
    # residuals turns every integrator failure into a status
    s = residuals(params, spec, cfg)
    if not s.ok:
        raise IntegrationError(f"trajectory failed during solve: {s.status}",
                               params=params)
    return s


def _pair(s: ResidualSample) -> np.ndarray:
    return np.array([s.P_norm, s.D_norm])


def fd_jacobian(u: np.ndarray, sample: ResidualSample, directions: np.ndarray,
                scale: np.ndarray, spec: PotentialSpec,
                cfg: IntegratorConfig) -> np.ndarray:
    """Forward-difference derivatives of (P_norm, D_norm) at the
    start-scaled point u, whose residuals are `sample`, along each row of
    `directions`; shape (2, len(directions))."""
    f0 = _pair(sample)
    J = np.empty((2, len(directions)))
    for k, d in enumerate(directions):
        h = max(_FD_REL_STEP * float(np.abs(d) @ np.abs(u)), _FD_ABS_FLOOR)
        J[:, k] = (_pair(_sample_at(u + h * d, scale, spec, cfg)) - f0) / h
    return J


def solve_on_plane(scale: np.ndarray, u0: np.ndarray, directions: np.ndarray,
                   spec: PotentialSpec, cfg: IntegratorConfig, tol: float,
                   max_iter: int) -> tuple[np.ndarray, ResidualSample, int]:
    """Damped Newton on (P_norm, D_norm) over the plane u0 + span(directions).

    u are start-scaled coordinates, the parameters being u * scale;
    `directions` holds two rows. Forward-difference Jacobian along them,
    backtracking halving line search on |F|, converged when |F| <= tol.
    Returns (u, sample, iterations). Raises IntegrationError when u0 or a
    Jacobian probe does not integrate, SingularJacobian when the 2x2
    system degenerates and NewtonDivergence, carrying the best iterate,
    when the line search stalls or max_iter is exhausted.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    u = np.asarray(u0, dtype=float)
    cur = _sample_at(u, scale, spec, cfg)
    # every accepted step lowers |F|, so the current iterate is the best
    for iteration in range(max_iter):
        fnorm = cur.norm
        if fnorm <= tol:
            return u, cur, iteration
        J = fd_jacobian(u, cur, directions, scale, spec, cfg)
        det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
        if abs(det) < 1e-14 * max(abs(J).max(), 1e-300) ** 2:
            raise SingularJacobian(cur.params)
        step = np.linalg.solve(J, -_pair(cur)) @ directions
        lam = 1.0
        for _ in range(_LINE_SEARCH_TRIALS):
            try:
                trial = _sample_at(u + lam * step, scale, spec, cfg)
            except IntegrationError:
                trial = None
            if trial is not None and trial.norm < fnorm:
                break
            lam *= 0.5
        else:
            raise NewtonDivergence("line search stalled", cur.params, fnorm,
                                   iteration)
        u, cur = u + lam * step, trial
    if cur.norm <= tol:
        return u, cur, max_iter
    raise NewtonDivergence("no convergence", cur.params, cur.norm, max_iter)


def newton_solve(seed: ShootingParams, spec: PotentialSpec, cfg: IntegratorConfig,
                 tol: float = 1e-10, max_iter: int = 50) -> SolutionRecord:
    """Damped 2-D Newton on the dimensionless residual pair at fixed x0.

    `solve_on_plane` over (y0, v), scaled by the seed. Raises
    NewtonDivergence when max_iter is exhausted (carrying the best
    iterate) and SingularJacobian when the 2x2 system degenerates.
    A failed trajectory at an iterate raises IntegrationError carrying the
    iterate in `params`.
    """
    _, s, _ = solve_on_plane(np.array([seed.x0, seed.y0, seed.v]), np.ones(3),
                             _FIXED_X0, spec, cfg, tol, max_iter)
    return SolutionRecord.from_sample(s, spec)


def record_from_params(params: ShootingParams, spec: PotentialSpec,
                       cfg: IntegratorConfig) -> SolutionRecord:
    """Record for given parameters without Newton refinement.

    Useful for published parameter triples taken at face value; the
    stored residual_norm reports how close they actually are.
    """
    s = residuals(params, spec, cfg)
    if not s.ok:
        raise SolverError(f"trajectory failed for {params}: {s.status}")
    return SolutionRecord.from_sample(s, spec)


def solution_record_json(record: SolutionRecord,
                         cfg: IntegratorConfig | None = None) -> dict:
    d = {
        "version": __version__,
        "params": {"x0": record.params.x0, "y0": record.params.y0,
                   "v": record.params.v},
        "T": record.T,
        "E": record.E,
        "n0": record.n0,
        "residual_norm": record.residual_norm,
        "potential": record.potential.to_json_dict(),
        "series_label": record.series_label,
    }
    if cfg is not None:
        d["integrator"] = cfg.to_json_dict()
    return d


def solution_record_from_json(d: dict) -> SolutionRecord:
    p = d["params"]
    return SolutionRecord(
        params=ShootingParams(float(p["x0"]), float(p["y0"]), float(p["v"])),
        T=float(d["T"]),
        E=float(d["E"]),
        residual_norm=float(d["residual_norm"]),
        potential=PotentialSpec.from_json_dict(d["potential"]),
        n0=d.get("n0"),
        series_label=d.get("series_label"),
    )

