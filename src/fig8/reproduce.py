"""End-to-end checks against the published figure-eight results.

Each criterion is declared once with `@criterion`: its id, its title,
whether it runs in quick mode and its runtime limit. Its body receives a
shared lazy context, so expensive artifacts (converged solutions,
continuation series, grids) are built once, and a `Checks` recorder.
`run_criterion` runs one body: it times it, gates its runtime, records an
exception as a failure and returns the `CriterionResult`. `run_criteria`
runs the table, prints each result and returns them; it writes no file.
The `reproduce` CLI subcommand writes them to `reproduce_report.json`,
stamped like every other artifact, and the acceptance test suite runs
every criterion through the same `run_criterion`.
"""

import contextlib
import io
import math
import os
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .artifacts import read_record
from .analysis import (collision_count, configuration_energy_extrema,
                       integrate_full_orbit, orbit_from_record,
                       verify_choreography)
from .continuation import continue_family, locate_special
from .dynamics import (PotentialSpec, ShootingParams, isosceles_state,
                       pair_force, pair_potential, total_energy,
                       angular_momentum, linear_momentum)
from .integrate import (IntegrationError, IntegratorConfig, integrate,
                        integrate_to_collinear)
from .shooting import (NewtonDivergence, SolverError, find_seeds, newton_solve,
                       record_from_params, residuals, scan_grid,
                       solution_record_from_json, solve_on_plane)

LJ = PotentialSpec.lj()
H6 = PotentialSpec.homogeneous(6)

# published parameter triples (x0, y0, v) and energies where stated
ALPHA_TRIPLES = [
    # upper branch (figure-eight lobes reach the launch triangle)
    (0.75, 0.725966, 0.522742),
    (1.0, 0.983588, 0.232296),
    (1.5, 1.478621, 0.0694721),
    # lower branch (gourd-shaped lobes)
    (0.75, 0.553223, 0.615805),
    (1.0, 0.513969, 0.396537),
    (1.5, 0.502649, 0.181062),
]

CITED_WITH_E = {
    "beta": [
        (0.726, 0.766265, 0.302694, 0.0274632),
        (1.0, 0.956733, 0.144241, 0.00263843),
        (1.0, 1.241130, 0.0717890, 0.000697053),
    ],
    "gamma": [
        (0.6007, 0.748371, 0.371779, 0.0622734),
        (0.8, 1.081836, 0.126051, 0.00561328),
        (0.8, 1.136739, 0.0749665, -0.00519619),
    ],
    "delta": [
        (0.6501, 0.597985, 0.304229, -0.143858),
        (0.84, 0.827038, 0.126408, -0.0330865),
        (0.84, 0.848830, 0.0757119, -0.0387688),
    ],
    "epsilon": [
        (0.7074, 0.579781, 0.204620, -0.211945),
        (0.91, 0.803912, 0.0857343, -0.0497687),
        (0.91, 0.811359, 0.0540501, -0.0521151),
    ],
}

# all eighteen published triples as (family, x0, y0, v, cited E or None)
PUBLISHED_TRIPLES = ([("alpha", *t, None) for t in ALPHA_TRIPLES]
                     + [(name, *t) for name, ts in CITED_WITH_E.items() for t in ts])

# (family, triple, per-body collision count n0); quick mode checks beta only
COLLISION_CASES = ([("beta", CITED_WITH_E["beta"][0][:3], 8),
                    ("gamma", CITED_WITH_E["gamma"][2][:3], 8),
                    ("delta", CITED_WITH_E["delta"][1][:3], 16),
                    ("epsilon", CITED_WITH_E["epsilon"][1][:3], 24)]
                   + [("alpha-upper", t, 0) for t in ALPHA_TRIPLES[:3]]
                   + [("alpha-lower", t, 4) for t in ALPHA_TRIPLES[3:]])

# directions (x0, v) of a solve at fixed y0, in start-scaled coordinates
FIXED_Y0 = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])

ALPHA_PRIME = (0.553223, 0.615805)      # second crossing at x0 = 0.75
ALPHA_CROSSING = (0.725966, 0.522742)


@dataclass
class CriterionResult:
    cid: int
    title: str
    passed: bool
    details: list[str] = field(default_factory=list)
    elapsed: float = 0.0
    skipped: bool = False

    def show(self):
        """Print the pass/fail line, then one indented line per detail."""
        status = "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")
        print(f"[{status}] criterion {self.cid:2d}: {self.title} ({self.elapsed:.1f}s)")
        for d in self.details:
            print(f"       {d}")

    def to_json_dict(self) -> dict:
        return {"criterion": self.cid, "title": self.title,
                "passed": bool(self.passed), "skipped": self.skipped,
                "elapsed_s": round(self.elapsed, 2), "details": self.details}


class ReproduceContext:
    """Lazy cache of the expensive artifacts the criteria share.

    Each artifact is a cached property: built on first use, kept for the
    context's life, and built again on the next use if building it raised.
    """

    def __init__(self, jobs: int = 1, quick: bool = False):
        if jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {jobs}")
        self.cfg = IntegratorConfig()
        self.jobs = jobs
        self.quick = quick
        self.records = []          # every converged solution seen (criterion 10)

    def register(self, record):
        self.records.append(record)
        return record

    def _register_series(self, series):
        self.records.extend(series.points)
        return series

    # -- solutions -----------------------------------------------------

    @cached_property
    def homog_record(self):
        return self.register(
            newton_solve(ShootingParams(1.0, 0.98, 0.23), H6, self.cfg))

    @cached_property
    def alpha_record(self):
        return self.register(
            newton_solve(ShootingParams(0.75, 0.73, 0.52), LJ, self.cfg))

    # -- continuation series --------------------------------------------

    @cached_property
    def alpha_minus(self):
        """Through the fold and out the gourd branch to x0 = 1.6."""
        return self._register_series(continue_family(
            self.alpha_record, LJ, self.cfg, step=0.015, n_steps=220,
            direction=-1, x0_limits=(0.6, 1.62), label="alpha"))

    @cached_property
    def alpha_plus(self):
        return self._register_series(continue_family(
            self.alpha_record, LJ, self.cfg, step=0.02, n_steps=120,
            direction=1, x0_limits=(0.7, 2.13), label="alpha"))

    @cached_property
    def gamma_minus(self):
        start = self.register(newton_solve(
            ShootingParams(0.8, 1.136739, 0.0749665), LJ, self.cfg))
        return self._register_series(continue_family(
            start, LJ, self.cfg, step=0.01, n_steps=80, direction=-1,
            x0_limits=(0.6, 0.85), label="gamma"))

    # -- branch samples at exact x0 targets ------------------------------

    @cached_property
    def upper_asymptotic_points(self):
        """Solve at x0 = 2, 2.05, 2.1 from a secant along x0 through the two
        series points that bracket the target (past the tail, the last two)."""
        pts = sorted((p.params for p in self.alpha_plus.points), key=lambda p: p.x0)
        if len(pts) < 2:
            raise RuntimeError("no upper-branch points to extrapolate from")
        out = []
        for x0t in (2.0, 2.05, 2.1):
            a, b = next(((p, q) for p, q in zip(pts, pts[1:]) if p.x0 <= x0t <= q.x0),
                        pts[-2:])
            w = (x0t - a.x0) / (b.x0 - a.x0)
            seed = ShootingParams(x0t, a.y0 + w * (b.y0 - a.y0), a.v + w * (b.v - a.v))
            out.append(self.register(newton_solve(seed, LJ, self.cfg, tol=1e-10)))
        return out

    @cached_property
    def lower_asymptotic_points(self):
        """Walk the gourd branch from the series tail out to x0 = 2.1.

        Out here the residual noise floor (trajectory sensitivity times
        integrator tolerance at event times past t = 50) reaches the
        1e-7..1e-6 range, so the walk converges to 1e-6 and accepts a
        stalled best iterate below 3e-6 when it stays in the branch's
        parameter band. That still pins the parameters orders of
        magnitude tighter than the energy comparison needs.
        """
        pts = sorted((p.params for p in self.alpha_minus.points if p.params.y0 < 0.56),
                     key=lambda p: p.x0)
        if len(pts) < 2:
            raise RuntimeError("no gourd-branch tail to extrapolate from")
        b = pts[-1]
        a = next((p for p in reversed(pts) if p.x0 <= b.x0 - 0.01), pts[-2])
        targets = [2.0, 2.05, 2.1]
        out = []
        dx = 0.025
        while targets:
            x0t = min(b.x0 + dx, targets[0])
            # v decays like a power of x0 along this branch; seed it that
            # way (linear extrapolation overshoots into neighboring
            # families in the crowded low-v region)
            p_exp = math.log(b.v / a.v) / math.log(b.x0 / a.x0)
            w = (x0t - a.x0) / (b.x0 - a.x0)
            seed = ShootingParams(x0t, a.y0 + w * (b.y0 - a.y0),
                                  b.v * (x0t / b.x0) ** p_exp)
            rec = None
            try:
                rec = newton_solve(seed, LJ, self.cfg, tol=1e-6, max_iter=25)
            except NewtonDivergence as exc:
                if exc.best_norm <= 3e-6:
                    rec = record_from_params(exc.best_params, LJ, self.cfg)
            except (SolverError, IntegrationError):
                pass
            if rec is None or not (0.47 < rec.params.y0 < 0.56 and rec.E > 0):
                dx *= 0.5
                if dx < 1e-3:
                    raise RuntimeError(
                        f"walk lost the gourd branch near x0={x0t}")
                continue
            self.register(rec)
            a, b = b, rec.params
            dx = min(dx * 1.4, 0.05)
            if x0t == targets[0]:
                out.append(rec)
                targets.pop(0)
        return out

    # -- grids -----------------------------------------------------------

    @cached_property
    def smoke_grid(self):
        return scan_grid(0.75, (0.45, 1.3), (0.05, 0.7), 60, 60, LJ, self.cfg,
                         jobs=self.jobs)

    @cached_property
    def full_grid(self):
        return scan_grid(0.75, (0.45, 1.3), (0.05, 0.7), 200, 200, LJ, self.cfg,
                         jobs=self.jobs)


class Checks:
    """The detail lines of one criterion; it passes when every check does."""

    def __init__(self):
        self.details = []
        self.passed = True

    def __call__(self, ok, text: str):
        ok = bool(ok)
        self.details.append(("ok  " if ok else "BAD ") + text)
        self.passed &= ok

    def note(self, text: str):
        """A detail line that is not a check, indented under the checks' text."""
        self.details.append("     " + text)


@dataclass(frozen=True)
class Criterion:
    cid: int
    title: str
    body: Callable[[ReproduceContext, Checks], None]
    quick: bool = False          # runs in `reproduce --quick`
    limit_s: float | None = None  # whole-criterion runtime gate


CRITERIA: list[Criterion] = []


def criterion(cid: int, title: str, quick: bool = False,
              limit_s: float | None = None):
    """Declare the decorated body as criterion `cid` and append it to CRITERIA."""

    def declare(body):
        crit = Criterion(cid, title, body, quick, limit_s)
        CRITERIA.append(crit)
        return crit

    return declare


def run_criterion(ctx: ReproduceContext, crit: Criterion) -> CriterionResult:
    """Run one criterion body, timed, with its runtime gate appended.

    An exception in the body fails the criterion with an `error:` detail
    line instead of propagating, so a full run still reports every row.
    """
    check = Checks()
    t0 = time.perf_counter()
    try:
        crit.body(ctx, check)
    except Exception as exc:  # keep the table complete on blowups
        check.details.append(f"error: {type(exc).__name__}: {exc}")
        check.passed = False
    elapsed = time.perf_counter() - t0
    if crit.limit_s is not None:
        check(elapsed < crit.limit_s, f"runtime {elapsed:.1f}s < {crit.limit_s:g}s")
    return CriterionResult(crit.cid, crit.title, check.passed, check.details, elapsed)


@criterion(1, "homogeneous-potential baseline solution", quick=True, limit_s=10.0)
def c01_homogeneous_baseline(ctx, check):
    """Power-law (exponent 6) solution at x0=1 from seed (0.98, 0.23)."""
    from . import cli

    # the command's report names a temporary file: keep it out of the table
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(out):
            code = cli.main(["solve", "--x0", "1.0", "--y0", "0.98", "--v", "0.23",
                             "--potential", "homogeneous:6", "-o", tmp])
        check(code == 0, f"cmd_solve exit code {code}")
        check(out.getvalue().startswith("converged: "), "cmd_solve reports converged")
        if code != 0:
            return
        paths = [p for p in os.listdir(tmp) if p.startswith("solution")]
        rec = solution_record_from_json(read_record(os.path.join(tmp, paths[0])))
        ctx.register(rec)
    check(abs(rec.params.y0 - 0.985945) <= 1e-4,
          f"y0 = {rec.params.y0:.6f} vs 0.985945 +- 1e-4")
    check(abs(rec.params.v - 0.234675) <= 1e-4,
          f"v = {rec.params.v:.6f} vs 0.234675 +- 1e-4")
    check(abs(rec.T - 61.2000) <= 1e-2, f"T = {rec.T:.4f} vs 61.2000 +- 1e-2")


@criterion(2, "first Lennard-Jones solution at x0 = 0.75", quick=True, limit_s=10.0)
def c02_alpha_solution(ctx, check):
    rec = ctx.alpha_record
    check(abs(rec.params.y0 - 0.725966) <= 1e-4,
          f"y0 = {rec.params.y0:.6f} vs 0.725966 +- 1e-4")
    check(abs(rec.params.v - 0.522742) <= 1e-4,
          f"v = {rec.params.v:.6f} vs 0.522742 +- 1e-4")


def _seed_near(grid, seeds, target):
    """Whether a seed lies within one lattice spacing of target (y0, v)."""
    dy = float(grid.y0_axis[1] - grid.y0_axis[0])
    dv = float(grid.v_axis[1] - grid.v_axis[0])
    ty, tv = target
    return any(abs(s.y0 - ty) <= dy and abs(s.v - tv) <= dv for s in seeds)


@criterion(3, "residual-contour topology at x0 = 0.75")
def c03_contour_topology(ctx, check):
    t0 = time.perf_counter()
    grid = ctx.smoke_grid
    t_smoke = time.perf_counter() - t0
    seeds = find_seeds(grid)
    check(_seed_near(grid, seeds, ALPHA_CROSSING),
          f"60x60 smoke: seed within one spacing of the first crossing "
          f"({len(seeds)} seeds, {t_smoke:.0f}s)")
    check(t_smoke < 180.0, f"smoke runtime {t_smoke:.0f}s < 3min")
    t1 = time.perf_counter()
    grid = ctx.full_grid
    t_full = time.perf_counter() - t1
    seeds = find_seeds(grid)
    check(len(seeds) >= 6, f"200x200: {len(seeds)} seed cells >= 6")
    check(_seed_near(grid, seeds, ALPHA_CROSSING),
          "200x200: seed within one spacing of the first crossing")
    check(_seed_near(grid, seeds, ALPHA_PRIME),
          "200x200: seed within one spacing of the second crossing")
    check(t_full < 1800.0,
          f"full scan runtime {t_full:.0f}s < 30min (jobs={ctx.jobs})")


@criterion(4, "smallest x0 of the first family (fold)")
def c04_alpha_fold(ctx, check):
    fold = ctx.register(locate_special(ctx.alpha_minus, "x0-min", ctx.cfg))
    check(abs(fold.params.x0 - 0.6812) <= 2e-3,
          f"x0-min = {fold.params.x0:.6f} vs 0.6812 +- 2e-3")
    check(abs(fold.params.y0 - 0.617578) <= 2e-3,
          f"y0 at fold = {fold.params.y0:.6f} vs 0.617578 +- 2e-3")


@criterion(5, "residuals and energies at published branch points")
def c05_published_branch_points(ctx, check):
    """Pointwise residuals at the published 6-digit triples.

    Measured and expected to fail at three entries: the second family's
    smallest-x0 point sits at its fold (locally singular shooting map)
    and the two large-x0 gourd points carry condition numbers near 1e4,
    so rounding the parameters to 6 digits already moves the residuals
    past the stated bound. The companion refinements reported alongside
    show every published triple is correct at its printed precision.
    """
    for name, x0, y0, v, e_cited in PUBLISHED_TRIPLES:
        s = residuals(ShootingParams(x0, y0, v), LJ, ctx.cfg)
        check(s.ok and s.norm <= 1e-4,
              f"{name} ({x0}, {y0}, {v}): |(P,D)| = {s.norm:.2e} <= 1e-4")
        if e_cited is not None and s.E is not None:
            check(abs(s.E - e_cited) <= 1e-4,
                  f"{name} ({x0}, {y0}, {v}): E = {s.E:.8f} vs {e_cited} +- 1e-4")
    # companion: away from the beta fold every triple refines onto the
    # family within its printed precision; the beta smallest-x0 entry is
    # refined at fixed y0 instead (the family folds in x0 there)
    worst = 0.0
    beta_fold = CITED_WITH_E["beta"][0][:3]
    for _, x0, y0, v, _ in PUBLISHED_TRIPLES:
        if (x0, y0, v) == beta_fold:
            continue
        rec = ctx.register(newton_solve(ShootingParams(x0, y0, v), LJ,
                                        ctx.cfg, tol=1e-11))
        worst = max(worst, abs(rec.params.y0 - y0), abs(rec.params.v - v))
    check.note(f"companion: 17 of 18 triples refine onto the family "
               f"within {worst:.1e} of their printed 6-digit values")
    _, s, _ = solve_on_plane(np.array(beta_fold), np.ones(3), FIXED_Y0, LJ,
                             ctx.cfg, tol=1e-10, max_iter=25)
    x0_f, v_f = s.params.x0, s.params.v
    dist = max(abs(x0_f - beta_fold[0]), abs(v_f - beta_fold[2]))
    check.note(f"companion: the smallest-x0 point of the second "
               f"family sits {dist:.1e} from the computed family "
               f"(fixed-y0 refinement lands at x0={x0_f:.6f}, "
               f"v={v_f:.6f}); that family's fold is at x0=0.726654")


@criterion(6, "collision counts", quick=True)
def c06_collision_counts(ctx, check):
    for name, (x0, y0, v), expect in COLLISION_CASES[:1 if ctx.quick else None]:
        n0 = collision_count(record_from_params(ShootingParams(x0, y0, v), LJ,
                                                ctx.cfg), ctx.cfg)
        check(n0 == expect, f"{name} ({x0}, {y0}, {v}): n0 = {n0}, expect {expect}")
    if ctx.quick:
        check.note("quick: beta only")


@criterion(7, "zero-energy solution on the third family")
def c07_zero_energy_solution(ctx, check):
    rec = ctx.register(locate_special(ctx.gamma_minus, "E-zero", ctx.cfg))
    check(abs(rec.params.x0 - 0.671188) <= 1e-3,
          f"x0 = {rec.params.x0:.6f} vs 0.671188 +- 1e-3")
    check(abs(rec.E) <= 1e-6, f"|E| = {abs(rec.E):.2e} <= 1e-6")
    check.note(f"(y0, v) = ({rec.params.y0:.6f}, {rec.params.v:.6f}) "
               "vs published (0.893818, 0.188131)")


@criterion(8, "energy extrema (family maximum and closed forms)", quick=True)
def c08_energy_extrema(ctx, check):
    ext = configuration_energy_extrema(LJ)
    check(abs(ext.isosceles_min + 0.75) <= 1e-9,
          f"isosceles minimum {ext.isosceles_min:.12f} = -3/4")
    # golden-section oracle over the collinear configuration energy
    from scipy.optimize import minimize_scalar

    f = lambda r: 2.0 * pair_potential(r, LJ) + pair_potential(2.0 * r, LJ)
    res = minimize_scalar(f, bounds=(0.9, 1.5), method="bounded",
                          options={"xatol": 1e-12})
    check(abs(ext.euler_min - res.fun) <= 1e-9,
          f"collinear minimum closed form {ext.euler_min:.12f} vs "
          f"numeric oracle {res.fun:.12f} (<= 1e-9)")
    check(abs(ext.euler_min + 5547.0 / 10924.0) <= 1e-9,
          f"collinear minimum = -5547/10924 at r = {ext.euler_r:.6f}")
    check.note("note: the published fraction prints the numerator as "
               "5546; its own decimal 0.507781 and the oracle match 5547/10924")
    if ctx.quick:
        check.note("quick: closed forms only, family maximum skipped")
        return
    emax = ctx.register(locate_special(ctx.alpha_minus, "E-max", ctx.cfg))
    check(abs(emax.E - 0.295542) <= 1e-3,
          f"family energy maximum E = {emax.E:.6f} vs 0.295542 +- 1e-3")
    check(abs(emax.params.x0 - 0.686512) <= 1e-3,
          f"at x0 = {emax.params.x0:.6f} vs 0.686512 +- 1e-3")


@criterion(9, "large-x0 energy asymptotics on both branches")
def c09_asymptotics(ctx, check):
    for branch, points, target in [("upper", ctx.upper_asymptotic_points, 0.047),
                                   ("lower", ctx.lower_asymptotic_points, 0.035)]:
        for rec in points:
            val = rec.E * rec.params.x0 ** 6
            check(abs(val - target) <= 0.1 * target,
                  f"{branch} x0={rec.params.x0}: E*x0^6 = {val:.5f} "
                  f"vs {target} +- 10%")


@criterion(10, "minimum-period bound")
def c10_period_bound(ctx, check):
    tmin = ctx.register(locate_special(ctx.alpha_minus, "T-min", ctx.cfg))
    check(abs(tmin.T - 14.5) <= 0.5,
          f"minimum period on the first family T = {tmin.T:.4f} vs 14.5 +- 0.5")
    all_T = min(r.T for r in ctx.records)
    check(all_T >= tmin.T - 1e-6,
          f"no solution from criteria 1-9 has smaller T (global min {all_T:.4f})")


@criterion(11, "conservation / symmetry / oracle property suite", quick=True,
           limit_s=120.0)
def c11_property_suite(ctx, check):
    cfg = ctx.cfg
    rec = ctx.register(newton_solve(ShootingParams(0.75, 0.73, 0.52), LJ, cfg,
                                    tol=1e-13))
    state0 = isosceles_state(rec.params)
    E0 = total_energy(state0, LJ)

    # conservation along one period (single forward arc)
    seg = integrate(state0, LJ, rec.T, cfg)
    drift_E = drift_L = drift_p = 0.0
    for y in seg.eval_many(np.linspace(0.0, rec.T, 25)).T:
        drift_E = max(drift_E, abs(total_energy(y, LJ) - E0))
        drift_L = max(drift_L, abs(angular_momentum(y)))
        drift_p = max(drift_p, math.hypot(*linear_momentum(y)))
    check(drift_E <= 1e-9 * (1.0 + abs(E0)),
          f"energy drift {drift_E:.2e} <= 1e-9 (1+|E|) over one period")
    check(drift_L <= 1e-9, f"angular momentum drift {drift_L:.2e} <= 1e-9")
    check(drift_p <= 1e-9, f"linear momentum drift {drift_p:.2e} <= 1e-9")

    # choreography + overlap of symmetry assembly vs direct integration
    orbit = orbit_from_record(rec, cfg)
    direct = integrate_full_orbit(state0, LJ, cfg, rec.T)
    chor = verify_choreography(direct)
    check(chor <= 1e-6, f"choreography residual {chor:.2e} <= 1e-6 (direct orbit)")
    overlap = float(np.max(np.abs(orbit.q - direct.q)))
    check(overlap <= 1e-6,
          f"assembled vs direct orbit sup norm {overlap:.2e} <= 1e-6")

    # pair force against a finite difference of the pair potential
    h = 1e-6
    worst = 0.0
    for r in np.linspace(0.8, 3.0, 45):
        fd = -(pair_potential(r + h, LJ) - pair_potential(r - h, LJ)) / (2 * h)
        f = pair_force((r, 0.0), LJ)[0]
        worst = max(worst, abs(f - fd) / max(abs(fd), 1e-30))
    check(worst <= 1e-6,
          f"pair force vs finite difference rel err {worst:.2e} <= 1e-6")

    # homogeneous scaling invariance of the residual zeros
    p = ctx.homog_record.params
    worst_scaled = 0.0
    for lam in (0.5, 2.0):
        s = residuals(ShootingParams(lam * p.x0, lam * p.y0, p.v / lam ** 3),
                      H6, cfg)
        worst_scaled = max(worst_scaled, s.norm)
    check(worst_scaled <= 1e-6,
          f"scaled homogeneous residuals {worst_scaled:.2e} <= 1e-6 "
          "at lambda in {0.5, 2}")

    # time reversal recovers the launch state
    t_f, y_rev, _ = integrate_to_collinear(state0, LJ, cfg)
    y_rev[6:] = -y_rev[6:]
    back = integrate(y_rev, LJ, t_f, cfg)
    y_back = back.eval(t_f).copy()
    y_back[6:] = -y_back[6:]
    rev_err = float(np.max(np.abs(y_back - state0)))
    check(rev_err <= 1e-8, f"time-reversal recovery sup err {rev_err:.2e} <= 1e-8")


def run_criteria(quick: bool = False, jobs: int = 1, verbose: bool = True):
    """Run the criteria and return their results; writes no file."""
    ctx = ReproduceContext(jobs=jobs, quick=quick)
    results = []
    for crit in CRITERIA:
        if quick and not crit.quick:
            results.append(CriterionResult(crit.cid, crit.title, True,
                                           ["skipped in quick mode"], skipped=True))
            continue
        res = run_criterion(ctx, crit)
        results.append(res)
        if verbose:
            res.show()
    if verbose:
        n_pass = sum(r.passed for r in results if not r.skipped)
        n_run = sum(1 for r in results if not r.skipped)
        print(f"\n{n_pass}/{n_run} criteria passed"
              + (f" ({len(results) - n_run} skipped)" if n_run < len(results) else ""))
    return results
