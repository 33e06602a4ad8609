"""End-to-end checks against the published figure-eight results.

Each criterion is an independent function over a shared lazy context so
expensive artifacts (converged solutions, continuation series, grids)
are built once. The `reproduce` CLI subcommand prints one pass/fail line
per criterion; the acceptance test suite asserts the same results.
"""

import json
import os
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from .analysis import (collision_report, configuration_energy_extrema,
                       integrate_full_orbit, orbit_from_record,
                       verify_choreography)
from .continuation import continue_family, locate_special
from .dynamics import (PotentialSpec, ShootingParams, isosceles_state,
                       pair_force, pair_potential, total_energy, Vec2,
                       angular_momentum, linear_momentum)
from .integrate import IntegratorConfig, integrate, integrate_to_collinear
from .shooting import (find_seeds, newton_solve, record_from_params, residuals,
                       scan_grid, solution_record_from_json, solve_on_plane)

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

COLLISION_COUNTS = {"beta": 8, "gamma": 8, "delta": 16, "epsilon": 24}

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

    def line(self) -> str:
        status = "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")
        return f"[{status}] criterion {self.cid:2d}: {self.title} ({self.elapsed:.1f}s)"


class ReproduceContext:
    """Lazy cache of the expensive artifacts the criteria share."""

    def __init__(self, jobs: int = 1, quick: bool = False):
        if jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {jobs}")
        self.cfg = IntegratorConfig()
        self.jobs = jobs
        self.quick = quick
        self.records = []          # every converged solution seen (criterion 10)
        self._cache = {}

    def register(self, record):
        self.records.append(record)
        return record

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    # -- solutions -----------------------------------------------------

    def homog_record(self):
        return self._get("homog", lambda: self.register(
            newton_solve(ShootingParams(1.0, 0.98, 0.23), H6, self.cfg)))

    def alpha_record(self):
        return self._get("alpha", lambda: self.register(
            newton_solve(ShootingParams(0.75, 0.73, 0.52), LJ, self.cfg)))

    # -- continuation series --------------------------------------------

    def alpha_minus(self):
        """Through the fold and out the gourd branch to x0 = 1.6."""

        def build():
            series = continue_family(
                self.alpha_record(), LJ, self.cfg, step=0.015, n_steps=220,
                direction=-1, x0_limits=(0.6, 1.62), label="alpha")
            self.records.extend(series.points)
            return series

        return self._get("alpha_minus", build)

    def alpha_plus(self):
        def build():
            series = continue_family(
                self.alpha_record(), LJ, self.cfg, step=0.02, n_steps=120,
                direction=1, x0_limits=(0.7, 2.13), label="alpha")
            self.records.extend(series.points)
            return series

        return self._get("alpha_plus", build)

    def gamma_minus(self):
        def build():
            start = self.register(newton_solve(
                ShootingParams(0.8, 1.136739, 0.0749665), LJ, self.cfg))
            series = continue_family(start, LJ, self.cfg, step=0.01,
                                     n_steps=80, direction=-1,
                                     x0_limits=(0.6, 0.85), label="gamma")
            self.records.extend(series.points)
            return series

        return self._get("gamma_minus", build)

    # -- branch samples at exact x0 targets ------------------------------

    def _branch_point(self, series, branch: str, x0_target: float, tol: float):
        """Solve at exact x0_target seeded from the series (secant along x0)."""
        pts = [p.params for p in series.points]
        if branch == "lower":
            pts = [p for p in pts if p.y0 < 0.56]
        pts.sort(key=lambda p: p.x0)
        if len(pts) < 2:
            raise RuntimeError(f"no {branch}-branch points to extrapolate from")
        a, b = pts[-2], pts[-1]
        for p, q in zip(pts, pts[1:]):
            if p.x0 <= x0_target <= q.x0:
                a, b = p, q
                break
        w = (x0_target - a.x0) / (b.x0 - a.x0)
        seed = ShootingParams(x0_target, a.y0 + w * (b.y0 - a.y0),
                              a.v + w * (b.v - a.v))
        return self.register(newton_solve(seed, LJ, self.cfg, tol=tol))

    def upper_asymptotic_points(self):
        def build():
            series = self.alpha_plus()
            return [self._branch_point(series, "upper", x, 1e-10)
                    for x in (2.0, 2.05, 2.1)]

        return self._get("upper_pts", build)

    def lower_asymptotic_points(self):
        """Walk the gourd branch from the series tail out to x0 = 2.1.

        Out here the residual noise floor (trajectory sensitivity times
        integrator tolerance at event times past t = 50) reaches the
        1e-7..1e-6 range, so the walk converges to 1e-6 and accepts a
        stalled best iterate below 3e-6 when it stays in the branch's
        parameter band. That still pins the parameters orders of
        magnitude tighter than the energy comparison needs.
        """

        def build():
            import math

            from .shooting import NewtonDivergence, SolverError
            from .integrate import IntegrationError

            series = self.alpha_minus()
            pts = sorted((p.params for p in series.points if p.params.y0 < 0.56),
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

        return self._get("lower_pts", build)

    # -- grids -----------------------------------------------------------

    def smoke_grid(self):
        return self._get("grid60", lambda: scan_grid(
            0.75, (0.45, 1.3), (0.05, 0.7), 60, 60, LJ, self.cfg,
            jobs=self.jobs))

    def full_grid(self):
        return self._get("grid200", lambda: scan_grid(
            0.75, (0.45, 1.3), (0.05, 0.7), 200, 200, LJ, self.cfg,
            jobs=self.jobs))


def _check(details, ok_flag, text):
    ok_flag = bool(ok_flag)
    details.append(("ok  " if ok_flag else "BAD ") + text)
    return ok_flag


def c01_homogeneous_baseline(ctx) -> CriterionResult:
    """Power-law (exponent 6) solution at x0=1 from seed (0.98, 0.23)."""
    from . import cli

    t0 = time.perf_counter()
    details = []
    with tempfile.TemporaryDirectory() as tmp:
        code = cli.main(["solve", "--x0", "1.0", "--y0", "0.98", "--v", "0.23",
                         "--potential", "homogeneous:6", "-o", tmp])
        ok = _check(details, code == 0, f"cmd_solve exit code {code}")
        rec = None
        if code == 0:
            paths = [p for p in os.listdir(tmp) if p.startswith("solution")]
            with open(os.path.join(tmp, paths[0])) as fh:
                rec = solution_record_from_json(json.load(fh))
            ctx.register(rec)
    if rec is not None:
        ok &= _check(details, abs(rec.params.y0 - 0.985945) <= 1e-4,
                     f"y0 = {rec.params.y0:.6f} vs 0.985945 +- 1e-4")
        ok &= _check(details, abs(rec.params.v - 0.234675) <= 1e-4,
                     f"v = {rec.params.v:.6f} vs 0.234675 +- 1e-4")
        ok &= _check(details, abs(rec.T - 61.2000) <= 1e-2,
                     f"T = {rec.T:.4f} vs 61.2000 +- 1e-2")
    elapsed = time.perf_counter() - t0
    ok &= _check(details, elapsed < 10.0, f"runtime {elapsed:.1f}s < 10s")
    return CriterionResult(1, "homogeneous-potential baseline solution", ok,
                           details, elapsed)


def c02_alpha_solution(ctx) -> CriterionResult:
    t0 = time.perf_counter()
    details = []
    rec = ctx.alpha_record()
    ok = _check(details, abs(rec.params.y0 - 0.725966) <= 1e-4,
                f"y0 = {rec.params.y0:.6f} vs 0.725966 +- 1e-4")
    ok &= _check(details, abs(rec.params.v - 0.522742) <= 1e-4,
                 f"v = {rec.params.v:.6f} vs 0.522742 +- 1e-4")
    elapsed = time.perf_counter() - t0
    ok &= _check(details, elapsed < 10.0, f"runtime {elapsed:.1f}s < 10s")
    return CriterionResult(2, "first Lennard-Jones solution at x0 = 0.75", ok,
                           details, elapsed)


def _grid_spacing(grid):
    return (float(grid.y0_axis[1] - grid.y0_axis[0]),
            float(grid.v_axis[1] - grid.v_axis[0]))


def _seed_near(seeds, target, dy, dv):
    ty, tv = target
    return any(abs(s.y0 - ty) <= dy and abs(s.v - tv) <= dv for s in seeds)


def c03_contour_topology(ctx) -> CriterionResult:
    t0 = time.perf_counter()
    details = []
    grid = ctx.smoke_grid()
    t_smoke = time.perf_counter() - t0
    seeds = find_seeds(grid)
    dy, dv = _grid_spacing(grid)
    ok = _check(details,
                _seed_near(seeds, ALPHA_CROSSING, dy, dv),
                f"60x60 smoke: seed within one spacing of the first crossing "
                f"({len(seeds)} seeds, {t_smoke:.0f}s)")
    ok &= _check(details, t_smoke < 180.0, f"smoke runtime {t_smoke:.0f}s < 3min")
    if ctx.quick:
        details.append("ok   full 200x200 scan skipped in quick mode")
        return CriterionResult(3, "residual-contour topology at x0 = 0.75 (smoke only)",
                               ok, details, time.perf_counter() - t0)
    t1 = time.perf_counter()
    grid = ctx.full_grid()
    t_full = time.perf_counter() - t1
    seeds = find_seeds(grid)
    dy, dv = _grid_spacing(grid)
    ok &= _check(details, len(seeds) >= 6,
                 f"200x200: {len(seeds)} seed cells >= 6")
    ok &= _check(details, _seed_near(seeds, ALPHA_CROSSING, dy, dv),
                 "200x200: seed within one spacing of the first crossing")
    ok &= _check(details, _seed_near(seeds, ALPHA_PRIME, dy, dv),
                 "200x200: seed within one spacing of the second crossing")
    ok &= _check(details, t_full < 1800.0,
                 f"full scan runtime {t_full:.0f}s < 30min (jobs={ctx.jobs})")
    return CriterionResult(3, "residual-contour topology at x0 = 0.75", ok,
                           details, time.perf_counter() - t0)


def c04_alpha_fold(ctx) -> CriterionResult:
    t0 = time.perf_counter()
    details = []
    series = ctx.alpha_minus()
    fold = locate_special(series, "x0-min", ctx.cfg)
    ctx.register(fold)
    ok = _check(details, abs(fold.params.x0 - 0.6812) <= 2e-3,
                f"x0-min = {fold.params.x0:.6f} vs 0.6812 +- 2e-3")
    ok &= _check(details, abs(fold.params.y0 - 0.617578) <= 2e-3,
                 f"y0 at fold = {fold.params.y0:.6f} vs 0.617578 +- 2e-3")
    return CriterionResult(4, "smallest x0 of the first family (fold)", ok,
                           details, time.perf_counter() - t0)


def c05_published_branch_points(ctx) -> CriterionResult:
    """Pointwise residuals at the published 6-digit triples.

    Measured and expected to fail at three entries: the second family's
    smallest-x0 point sits at its fold (locally singular shooting map)
    and the two large-x0 gourd points carry condition numbers near 1e4,
    so rounding the parameters to 6 digits already moves the residuals
    past the stated bound. The companion refinements reported alongside
    show every published triple is correct at its printed precision.
    """
    t0 = time.perf_counter()
    details = []
    ok = True
    for name, triples in [("alpha", [(x, y, v, None) for x, y, v in ALPHA_TRIPLES]),
                          *CITED_WITH_E.items()]:
        for (x0, y0, v, e_cited) in triples:
            s = residuals(ShootingParams(x0, y0, v), LJ, ctx.cfg)
            ok &= _check(details, s.ok and s.norm <= 1e-4,
                         f"{name} ({x0}, {y0}, {v}): |(P,D)| = {s.norm:.2e} <= 1e-4")
            if e_cited is not None and s.E is not None:
                ok &= _check(details, abs(s.E - e_cited) <= 1e-4,
                             f"{name} ({x0}, {y0}, {v}): E = {s.E:.8f} "
                             f"vs {e_cited} +- 1e-4")
    # companion: away from the beta fold every triple refines onto the
    # family within its printed precision; the beta smallest-x0 entry is
    # refined at fixed y0 instead (the family folds in x0 there)
    worst = 0.0
    beta_fold = CITED_WITH_E["beta"][0][:3]
    for name, triples in [("alpha", [(x, y, v, None) for x, y, v in ALPHA_TRIPLES]),
                          *CITED_WITH_E.items()]:
        for (x0, y0, v, _) in triples:
            if (x0, y0, v) == beta_fold:
                continue
            rec = ctx.register(newton_solve(ShootingParams(x0, y0, v), LJ,
                                            ctx.cfg, tol=1e-11))
            worst = max(worst, abs(rec.params.y0 - y0), abs(rec.params.v - v))
    details.append(f"     companion: 17 of 18 triples refine onto the family "
                   f"within {worst:.1e} of their printed 6-digit values")
    _, s, _ = solve_on_plane(np.array(beta_fold), np.ones(3), FIXED_Y0, LJ,
                             ctx.cfg, tol=1e-10, max_iter=25)
    x0_f, v_f = s.params.x0, s.params.v
    dist = max(abs(x0_f - beta_fold[0]), abs(v_f - beta_fold[2]))
    details.append(f"     companion: the smallest-x0 point of the second "
                   f"family sits {dist:.1e} from the computed family "
                   f"(fixed-y0 refinement lands at x0={x0_f:.6f}, "
                   f"v={v_f:.6f}); that family's fold is at x0=0.726654")
    return CriterionResult(5, "residuals and energies at published branch points",
                           ok, details, time.perf_counter() - t0)


def c06_collision_counts(ctx) -> CriterionResult:
    t0 = time.perf_counter()
    details = []
    ok = True

    def count_for(x0, y0, v):
        rec = record_from_params(ShootingParams(x0, y0, v), LJ, ctx.cfg)
        orbit = orbit_from_record(rec, ctx.cfg)
        return collision_report(orbit, LJ).n0

    cases = [("beta", *CITED_WITH_E["beta"][0][:3], COLLISION_COUNTS["beta"])]
    if not ctx.quick:
        cases += [
            ("gamma", *CITED_WITH_E["gamma"][2][:3], COLLISION_COUNTS["gamma"]),
            ("delta", *CITED_WITH_E["delta"][1][:3], COLLISION_COUNTS["delta"]),
            ("epsilon", *CITED_WITH_E["epsilon"][1][:3],
             COLLISION_COUNTS["epsilon"]),
        ]
        cases += [("alpha-upper", *t, 0) for t in ALPHA_TRIPLES[:3]]
        cases += [("alpha-lower", *t, 4) for t in ALPHA_TRIPLES[3:]]
    for name, x0, y0, v, expect in cases:
        n0 = count_for(x0, y0, v)
        ok &= _check(details, n0 == expect,
                     f"{name} ({x0}, {y0}, {v}): n0 = {n0}, expect {expect}")
    title = "collision counts" + (" (quick: beta only)" if ctx.quick else "")
    return CriterionResult(6, title, ok, details, time.perf_counter() - t0)


def c07_zero_energy_solution(ctx) -> CriterionResult:
    t0 = time.perf_counter()
    details = []
    series = ctx.gamma_minus()
    rec = locate_special(series, "E-zero", ctx.cfg)
    ctx.register(rec)
    ok = _check(details, abs(rec.params.x0 - 0.671188) <= 1e-3,
                f"x0 = {rec.params.x0:.6f} vs 0.671188 +- 1e-3")
    ok &= _check(details, abs(rec.E) <= 1e-6, f"|E| = {abs(rec.E):.2e} <= 1e-6")
    details.append(f"     (y0, v) = ({rec.params.y0:.6f}, {rec.params.v:.6f}) "
                   "vs published (0.893818, 0.188131)")
    return CriterionResult(7, "zero-energy solution on the third family", ok,
                           details, time.perf_counter() - t0)


def c08_energy_extrema(ctx) -> CriterionResult:
    t0 = time.perf_counter()
    details = []
    ext = configuration_energy_extrema(LJ)
    ok = _check(details, abs(ext.isosceles_min + 0.75) <= 1e-9,
                f"isosceles minimum {ext.isosceles_min:.12f} = -3/4")
    # golden-section oracle over the collinear configuration energy
    from scipy.optimize import minimize_scalar

    f = lambda r: 2.0 * pair_potential(r, LJ) + pair_potential(2.0 * r, LJ)
    res = minimize_scalar(f, bounds=(0.9, 1.5), method="bounded",
                          options={"xatol": 1e-12})
    ok &= _check(details, abs(ext.euler_min - res.fun) <= 1e-9,
                 f"collinear minimum closed form {ext.euler_min:.12f} vs "
                 f"numeric oracle {res.fun:.12f} (<= 1e-9)")
    ok &= _check(details, abs(ext.euler_min + 5547.0 / 10924.0) <= 1e-9,
                 f"collinear minimum = -5547/10924 at r = {ext.euler_r:.6f}")
    details.append("     note: the published fraction prints the numerator as "
                   "5546; its own decimal 0.507781 and the oracle match "
                   "5547/10924")
    if ctx.quick:
        return CriterionResult(8, "configuration energy extrema (quick: closed forms)",
                               ok, details, time.perf_counter() - t0)
    series = ctx.alpha_minus()
    emax = locate_special(series, "E-max", ctx.cfg)
    ctx.register(emax)
    ok &= _check(details, abs(emax.E - 0.295542) <= 1e-3,
                 f"family energy maximum E = {emax.E:.6f} vs 0.295542 +- 1e-3")
    ok &= _check(details, abs(emax.params.x0 - 0.686512) <= 1e-3,
                 f"at x0 = {emax.params.x0:.6f} vs 0.686512 +- 1e-3")
    return CriterionResult(8, "energy extrema (family maximum and closed forms)",
                           ok, details, time.perf_counter() - t0)


def c09_asymptotics(ctx) -> CriterionResult:
    t0 = time.perf_counter()
    details = []
    ok = True
    for branch, points, target in [("upper", ctx.upper_asymptotic_points(), 0.047),
                                   ("lower", ctx.lower_asymptotic_points(), 0.035)]:
        for rec in points:
            val = rec.E * rec.params.x0 ** 6
            ok &= _check(details, abs(val - target) <= 0.1 * target,
                         f"{branch} x0={rec.params.x0}: E*x0^6 = {val:.5f} "
                         f"vs {target} +- 10%")
    return CriterionResult(9, "large-x0 energy asymptotics on both branches",
                           ok, details, time.perf_counter() - t0)


def c10_period_bound(ctx) -> CriterionResult:
    t0 = time.perf_counter()
    details = []
    series = ctx.alpha_minus()
    tmin = locate_special(series, "T-min", ctx.cfg)
    ctx.register(tmin)
    ok = _check(details, abs(tmin.T - 14.5) <= 0.5,
                f"minimum period on the first family T = {tmin.T:.4f} vs 14.5 +- 0.5")
    all_T = min(r.T for r in ctx.records)
    ok &= _check(details, all_T >= tmin.T - 1e-6,
                 f"no solution from criteria 1-9 has smaller T "
                 f"(global min {all_T:.4f})")
    return CriterionResult(10, "minimum-period bound", ok, details,
                           time.perf_counter() - t0)


def c11_property_suite(ctx) -> CriterionResult:
    t0 = time.perf_counter()
    details = []
    cfg = ctx.cfg
    rec = newton_solve(ShootingParams(0.75, 0.73, 0.52), LJ, cfg, tol=1e-13)
    ctx.register(rec)
    state0 = isosceles_state(rec.params)
    E0 = total_energy(state0, LJ)

    # conservation along one period (single forward arc)
    seg = integrate(state0, LJ, rec.T, cfg)
    drift_E = drift_L = drift_p = 0.0
    for t in np.linspace(0.0, rec.T, 25):
        st = seg.state(float(t))
        drift_E = max(drift_E, abs(total_energy(st, LJ) - E0))
        drift_L = max(drift_L, abs(angular_momentum(st)))
        drift_p = max(drift_p, linear_momentum(st).norm())
    ok = _check(details, drift_E <= 1e-9 * (1.0 + abs(E0)),
                f"energy drift {drift_E:.2e} <= 1e-9 (1+|E|) over one period")
    ok &= _check(details, drift_L <= 1e-9,
                 f"angular momentum drift {drift_L:.2e} <= 1e-9")
    ok &= _check(details, drift_p <= 1e-9,
                 f"linear momentum drift {drift_p:.2e} <= 1e-9")

    # choreography + overlap of symmetry assembly vs direct integration
    orbit = orbit_from_record(rec, cfg)
    direct = integrate_full_orbit(state0, LJ, cfg, rec.T)
    chor = verify_choreography(direct)
    ok &= _check(details, chor <= 1e-6,
                 f"choreography residual {chor:.2e} <= 1e-6 (direct orbit)")
    overlap = float(np.max(np.abs(orbit.q - direct.q)))
    ok &= _check(details, overlap <= 1e-6,
                 f"assembled vs direct orbit sup norm {overlap:.2e} <= 1e-6")

    # pair force against a finite difference of the pair potential
    h = 1e-6
    worst = 0.0
    for r in np.linspace(0.8, 3.0, 45):
        fd = -(pair_potential(r + h, LJ) - pair_potential(r - h, LJ)) / (2 * h)
        f = pair_force(Vec2(r, 0.0), LJ).x
        worst = max(worst, abs(f - fd) / max(abs(fd), 1e-30))
    ok &= _check(details, worst <= 1e-6,
                 f"pair force vs finite difference rel err {worst:.2e} <= 1e-6")

    # homogeneous scaling invariance of the residual zeros
    hrec = ctx.homog_record()
    p = hrec.params
    worst_scaled = 0.0
    for lam in (0.5, 2.0):
        s = residuals(ShootingParams(lam * p.x0, lam * p.y0, p.v / lam ** 3),
                      H6, cfg)
        worst_scaled = max(worst_scaled, s.norm)
    ok &= _check(details, worst_scaled <= 1e-6,
                 f"scaled homogeneous residuals {worst_scaled:.2e} <= 1e-6 "
                 "at lambda in {0.5, 2}")

    # time reversal recovers the launch state
    t_f, state_f, _ = integrate_to_collinear(state0, LJ, cfg)
    y_rev = state_f.to_array()
    y_rev[6:] = -y_rev[6:]
    from .dynamics import ThreeBodyState

    back = integrate(ThreeBodyState.from_array(0.0, y_rev), LJ, t_f, cfg)
    y_back = back.eval(t_f).copy()
    y_back[6:] = -y_back[6:]
    rev_err = float(np.max(np.abs(y_back - state0.to_array())))
    ok &= _check(details, rev_err <= 1e-8,
                 f"time-reversal recovery sup err {rev_err:.2e} <= 1e-8")

    elapsed = time.perf_counter() - t0
    ok &= _check(details, elapsed < 120.0, f"property suite {elapsed:.0f}s < 2min")
    return CriterionResult(11, "conservation / symmetry / oracle property suite",
                           ok, details, elapsed)


CRITERIA = [
    (1, c01_homogeneous_baseline, True),
    (2, c02_alpha_solution, True),
    (3, c03_contour_topology, False),
    (4, c04_alpha_fold, False),
    (5, c05_published_branch_points, False),
    (6, c06_collision_counts, True),
    (7, c07_zero_energy_solution, False),
    (8, c08_energy_extrema, True),
    (9, c09_asymptotics, False),
    (10, c10_period_bound, False),
    (11, c11_property_suite, True),
]


def run_criteria(quick: bool = False, jobs: int = 1,
                 out_dir: str | None = None, verbose: bool = True):
    ctx = ReproduceContext(jobs=jobs, quick=quick)
    results = []
    for cid, func, in_quick in CRITERIA:
        if quick and not in_quick:
            results.append(CriterionResult(cid, func.__doc__ or func.__name__,
                                           True, ["skipped in quick mode"],
                                           0.0, skipped=True))
            continue
        try:
            res = func(ctx)
        except Exception as exc:  # keep the table complete on blowups
            res = CriterionResult(cid, func.__name__, False,
                                  [f"error: {type(exc).__name__}: {exc}"])
        results.append(res)
        if verbose:
            print(res.line())
            for d in res.details:
                print(f"       {d}")
    if verbose:
        n_pass = sum(r.passed for r in results if not r.skipped)
        n_run = sum(1 for r in results if not r.skipped)
        print(f"\n{n_pass}/{n_run} criteria passed"
              + (f" ({len(results) - n_run} skipped)" if n_run < len(results) else ""))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        from . import __version__

        payload = {
            "version": __version__,
            "quick": quick,
            "results": [
                {"criterion": r.cid, "title": r.title, "passed": bool(r.passed),
                 "skipped": r.skipped, "elapsed_s": round(r.elapsed, 2),
                 "details": r.details}
                for r in results
            ],
        }
        with open(os.path.join(out_dir, "reproduce_report.json"), "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return results
