"""Checks of the workloads' outputs against computations made apart from fig8.

Each check returns a list of error strings; an empty list passes. The
comparisons use the reference integrator (`reference.py`), the published
values (`published.py`) and properties the method must have: the launch
energy in closed form, energy conservation, sign changes of both
residuals around every seed, and agreement of the symmetry-assembled
orbit with direct integration. None compares against stored output.
The tolerances are justified in README.md.
"""

import math

import numpy as np

import published
import reference

# scan: reference comparison of sampled cells
SCAN_SAMPLES = 6
REF_HORIZON = 40.0      # sampled cells are compared up to this event time
TOL_T_F_REL = 1e-8
HORIZON_SLACK = 1e-3
TOL_RESIDUAL = 1e-7
TOL_ENERGY = 1e-12
STATUSES = ("ok", "trajectory-failure", "event-not-found")

# family and solve
TOL_POINT_RESIDUAL = 1e-8
TOL_SOLVE_RESIDUAL = 1e-7
TOL_PRINTED = 2e-6
TOL_CITED_E = 1e-4
TOL_E_SPREAD = 1e-9
TOL_CHOREOGRAPHY = 1e-6


def _close(a, b, tol):
    return a is not None and b is not None and abs(a - b) <= tol


def _energy_error(sample_or_record, x0, y0, v):
    e = reference.launch_energy(x0, y0, v)
    return abs(sample_or_record.E - e) / max(1.0, abs(e))


# -- scan -------------------------------------------------------------------

def scan_cell_errors(s) -> list[str]:
    """Consistency of one ResidualSample with its status and launch energy."""
    p = s.params
    where = f"cell ({p.y0:.6f}, {p.v:.6f})"
    errs = []
    if s.status not in STATUSES:
        return [f"{where}: unknown status {s.status!r}"]
    values = (s.P, s.D, s.t_f, s.P_norm, s.D_norm)
    if s.status == "ok":
        if not all(x is not None and math.isfinite(x) for x in values):
            errs.append(f"{where}: status ok without finite residuals")
        elif not (0.0 < s.t_f <= reference.T_MAX and abs(s.P_norm) <= 1.0
                  and abs(s.D_norm) <= 1.0
                  and (s.P > 0) == (s.P_norm > 0) and (s.D > 0) == (s.D_norm > 0)):
            errs.append(f"{where}: residuals out of range or signs disagree")
    elif any(x is not None for x in values):
        errs.append(f"{where}: status {s.status} carries residual values")
    if s.E is None or _energy_error(s, *p) > TOL_ENERGY:
        errs.append(f"{where}: E = {s.E} is not the launch energy")
    return errs


def reference_pair(params):
    """Reference shots of a cell up to REF_HORIZON at the reference's own
    tolerance and at the program's, whose difference estimates how much
    the cell's residuals move with integration error."""
    return tuple(reference.shoot(*params, t_max=REF_HORIZON, tol=tol)[0]
                 for tol in (reference.TOL, reference.PROGRAM_TOL))


def compare_with_reference(s, shot, loose) -> list[str]:
    """A program sample against the reference shot of the same parameters
    (`shot`), with tolerances widened to ten times the reference's own
    change between its tolerance and the program's (`loose`)."""
    p = s.params
    where = f"cell ({p.x0}, {p.y0:.6f}, {p.v:.6f})"
    if shot.status == "event-not-found" and loose.status == "event-not-found":
        # no crossing before the horizon: the program must not report one
        if s.status == "ok" and s.t_f < REF_HORIZON - HORIZON_SLACK:
            return [f"{where}: t_f = {s.t_f} but no crossing before {REF_HORIZON}"]
        return []
    if shot.status != loose.status:
        return []       # the crossing sits at the horizon: not comparable
    if s.status != shot.status:
        return [f"{where}: status {s.status}, reference {shot.status}"]
    if s.status != "ok":
        return []
    errs = []
    for name, floor in (("t_f", TOL_T_F_REL * max(1.0, shot.t_f)),
                        ("P_norm", TOL_RESIDUAL), ("D_norm", TOL_RESIDUAL)):
        ref = getattr(shot, name)
        tol = max(floor, 10.0 * abs(getattr(loose, name) - ref))
        if not _close(getattr(s, name), ref, tol):
            errs.append(f"{where}: {name} {getattr(s, name)!r} vs reference "
                        f"{float(ref)!r} (tolerance {tol:.1e})")
    return errs


def sign_change_cells(grid) -> set[tuple[int, int]]:
    """Cells whose four corners are ok and where both P and D change sign."""
    out = set()
    ny, nv = len(grid.y0_axis), len(grid.v_axis)
    for i in range(ny - 1):
        for j in range(nv - 1):
            corners = [grid.samples[a][b] for a in (i, i + 1) for b in (j, j + 1)]
            if not all(c.status == "ok" for c in corners):
                continue
            P = [c.P for c in corners]
            D = [c.D for c in corners]
            if min(P) < 0.0 < max(P) and min(D) < 0.0 < max(D):
                out.add((i, j))
    return out


def _cells_holding(grid, y0, v):
    ys, vs = grid.y0_axis, grid.v_axis
    eps = 1e-12
    rows = [i for i in range(len(ys) - 1) if ys[i] - eps <= y0 <= ys[i + 1] + eps]
    cols = [j for j in range(len(vs) - 1) if vs[j] - eps <= v <= vs[j + 1] + eps]
    return {(i, j) for i in rows for j in cols}


def seed_errors(grid, seeds) -> list[str]:
    """Every seed lies in a sign-change cell, one seed per such cell."""
    cells = sign_change_cells(grid)
    errs = []
    for s in seeds:
        if s.x0 != grid.x0 or not (_cells_holding(grid, s.y0, s.v) & cells):
            errs.append(f"seed ({s.y0:.6f}, {s.v:.6f}) is not in a cell where "
                        "both residuals change sign")
    if len(seeds) != len(cells):
        errs.append(f"{len(seeds)} seeds for {len(cells)} sign-change cells")
    return errs


def block_errors(block, grid, lattice_y0, lattice_v) -> list[str]:
    """The grid covers exactly the requested lattice points."""
    want_y = lattice_y0[list(block.rows())]
    want_v = lattice_v[list(block.cols())]
    if (len(grid.y0_axis), len(grid.v_axis)) != (len(want_y), len(want_v)):
        return [f"block {block}: grid shape differs from the request"]
    if (np.max(np.abs(grid.y0_axis - want_y)) > 1e-12
            or np.max(np.abs(grid.v_axis - want_v)) > 1e-12):
        return [f"block {block}: grid axes are not the lattice points"]
    errs = []
    for i, row in enumerate(grid.samples):
        for j, s in enumerate(row):
            if (s.params.x0 != published.X0_SCAN
                    or abs(s.params.y0 - want_y[i]) > 1e-12
                    or abs(s.params.v - want_v[j]) > 1e-12):
                errs.append(f"block {block}: sample ({i}, {j}) has params {s.params}")
    return errs


def check_scan(outputs, rng, lattice_y0, lattice_v) -> list[str]:
    errs = []
    crossing_found = False
    dy = lattice_y0[1] - lattice_y0[0]
    dv = lattice_v[1] - lattice_v[0]
    for block, grid, seeds in outputs:
        errs += block_errors(block, grid, lattice_y0, lattice_v)
        for row in grid.samples:
            for s in row:
                errs += scan_cell_errors(s)
        errs += seed_errors(grid, seeds)
        if (block.stride_y, block.stride_v) == (1, 1):
            y, v = published.FIRST_CROSSING
            crossing_found |= any(abs(s.y0 - y) <= dy and abs(s.v - v) <= dv
                                  for s in seeds)
    if not crossing_found:
        errs.append("no seed within one lattice spacing of the first crossing "
                    f"{published.FIRST_CROSSING}")
    # a seeded sample of cells, drawn from the requested cells alone
    cells = [(b, g, i, j) for b, g, _ in outputs
             for i in range(b.n_y) for j in range(b.n_v)]
    for k in rng.choice(len(cells), size=min(SCAN_SAMPLES, len(cells)),
                        replace=False):
        _, grid, i, j = cells[k]
        s = grid.samples[i][j]
        errs += compare_with_reference(s, *reference_pair(s.params))
    return errs


# -- family -----------------------------------------------------------------

def point_errors(rec, where) -> list[str]:
    """A converged point: reference residuals vanish, closed-form energy,
    and the period is twelve reference event times."""
    p = rec.params
    errs = []
    if _energy_error(rec, *p) > TOL_ENERGY:
        errs.append(f"{where}: E = {rec.E!r} is not the launch energy")
    shot, _ = reference.shoot(*p)
    if shot.status != "ok":
        return errs + [f"{where}: reference trajectory {shot.status}"]
    res = math.hypot(shot.P_norm, shot.D_norm)
    if res > TOL_POINT_RESIDUAL:
        errs.append(f"{where}: reference residual {res:.2e} at {p}")
    if abs(rec.T - 12.0 * shot.t_f) > TOL_T_F_REL * rec.T:
        errs.append(f"{where}: T = {rec.T!r} vs reference {12.0 * shot.t_f!r}")
    return errs


def _within(value, target_tol):
    target, tol = target_tol
    return abs(value - target) <= tol


def special_errors(kind, rec, series_points) -> list[str]:
    """A refined special point against the published value and its series."""
    p = rec.params
    errs = []
    if kind == "x0-min":
        if not (_within(p.x0, published.X0_MIN) and _within(p.y0, published.X0_MIN_Y0)):
            errs.append(f"x0-min at ({p.x0:.6f}, {p.y0:.6f}), published "
                        f"{published.X0_MIN[0]}, {published.X0_MIN_Y0[0]}")
        if p.x0 > min(q.params.x0 for q in series_points) + 1e-9:
            errs.append("x0-min lies above the smallest x0 of its series")
    elif kind == "E-max":
        if not (_within(rec.E, published.E_MAX) and _within(p.x0, published.E_MAX_X0)):
            errs.append(f"E-max {rec.E:.6f} at x0 {p.x0:.6f}, published "
                        f"{published.E_MAX[0]} at {published.E_MAX_X0[0]}")
        if rec.E < max(q.E for q in series_points) - 1e-12:
            errs.append("E-max lies below the largest energy of its series")
    elif kind == "T-min":
        if not _within(rec.T, published.T_MIN):
            errs.append(f"T-min {rec.T:.4f}, published {published.T_MIN[0]}")
        if rec.T > min(q.T for q in series_points) + 1e-9:
            errs.append("T-min lies above the smallest period of its series")
    elif kind == "E-zero":
        if not _within(p.x0, published.E_ZERO_X0) or abs(rec.E) > published.E_ZERO_ABS_E:
            errs.append(f"E-zero at x0 {p.x0:.6f} with E = {rec.E:.2e}, published "
                        f"x0 {published.E_ZERO_X0[0]}")
    else:
        errs.append(f"unexpected special point {kind}")
    return errs


def fold_indices(points) -> list[int]:
    """Indices where x0 turns around along the series."""
    x = [q.params.x0 for q in points]
    return [k for k in range(1, len(x) - 1) if (x[k] - x[k - 1]) * (x[k + 1] - x[k]) < 0]


def check_family(outputs) -> list[str]:
    errs = []
    for label, out in outputs.items():
        run = out["run"]
        if "start" not in out or "series" not in out:
            errs.append(f"{label}: no series")
            continue
        series = out["series"]
        if out["start"].params.x0 != run.x0:
            errs.append(f"{label}: start solved away from x0 = {run.x0}")
        errs += point_errors(out["start"], f"{label} start")
        if len(series.points) != run.n_steps + 1 or series.truncation_reason:
            errs.append(f"{label}: {len(series.points)} points for {run.n_steps} "
                        f"steps ({series.truncation_reason})")
        for k, rec in enumerate(series.points):
            errs += point_errors(rec, f"{label} point {k}")
        if series.fold_points != fold_indices(series.points):
            errs.append(f"{label}: folds recorded at {series.fold_points}, "
                        f"x0 turns at {fold_indices(series.points)}")
        for kind in run.specials:
            rec = out["specials"].get(kind)
            if rec is None:
                errs.append(f"{label}: special point {kind} missing")
                continue
            errs += point_errors(rec, f"{label} {kind}")
            errs += special_errors(kind, rec, series.points)
    return errs


# -- solve ------------------------------------------------------------------

def choreography_residual(orbit, shot_traj, t_f) -> float:
    """Largest distance between the assembled orbit and direct reference
    integration over its first two twelfths, where the first symmetry map
    (valid only when both residuals vanish) already applies."""
    mask = orbit.t <= 2.0 * t_f
    worst = 0.0
    for k in np.flatnonzero(mask):
        y = shot_traj.eval(float(orbit.t[k]))
        worst = max(worst, float(np.max(np.abs(orbit.q[:, k, :].ravel() - y[:6]))))
    return worst


def energy_spread(orbit) -> float:
    """Spread of the total energy over every sample of the assembled orbit."""
    y = np.concatenate([orbit.q.transpose(0, 2, 1).reshape(6, -1),
                        orbit.p.transpose(0, 2, 1).reshape(6, -1)])
    e = reference.energy(y)
    return float(e.max() - e.min())


def solve_errors(case, rec, orbit, summary) -> list[str]:
    x0, y0, v = (float(s) for s in case.printed)
    where = f"{case.family} ({', '.join(case.printed)})"
    p = rec.params
    errs = []
    if p.x0 != x0 or abs(p.y0 - y0) > TOL_PRINTED or abs(p.v - v) > TOL_PRINTED:
        errs.append(f"{where}: converged to ({p.y0:.8f}, {p.v:.8f})")
    if _energy_error(rec, *p) > TOL_ENERGY:
        errs.append(f"{where}: E = {rec.E!r} is not the launch energy")
    if case.energy is not None and abs(rec.E - case.energy) > TOL_CITED_E:
        errs.append(f"{where}: E = {rec.E:.8f}, cited {case.energy}")
    n0 = summary.get("n0")
    if n0 != published.COLLISION_COUNT[case.family]:
        errs.append(f"{where}: n0 = {n0}, published "
                    f"{published.COLLISION_COUNT[case.family]}")
    spread = energy_spread(orbit)
    if spread > TOL_E_SPREAD or summary["E_spread"] > TOL_E_SPREAD:
        errs.append(f"{where}: energy spread {spread:.2e} "
                    f"(summary {summary['E_spread']:.2e}) along the orbit")
    shot, traj = reference.shoot(*p, extend_to=2.0 * rec.T / 12.0)
    if shot.status != "ok":
        return errs + [f"{where}: reference trajectory {shot.status}"]
    res = math.hypot(shot.P_norm, shot.D_norm)
    if res > TOL_SOLVE_RESIDUAL:
        errs.append(f"{where}: reference residual {res:.2e}")
    if abs(rec.T - 12.0 * shot.t_f) > TOL_T_F_REL * rec.T:
        errs.append(f"{where}: T = {rec.T!r} vs reference {12.0 * shot.t_f!r}")
    chor = choreography_residual(orbit, traj, rec.T / 12.0)
    if chor > TOL_CHOREOGRAPHY:
        errs.append(f"{where}: assembled orbit departs {chor:.2e} from direct "
                    "integration")
    return errs


def check_solve(outputs) -> list[str]:
    errs = []
    for case, rec, orbit, summary in outputs:
        errs += solve_errors(case, rec, orbit, summary)
    return errs
