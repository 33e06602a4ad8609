"""Family tracing through folds and refinement of distinguished points."""

import numpy as np
import pytest

from fig8.dynamics import PotentialSpec, ShootingParams
from fig8.integrate import IntegratorConfig
from fig8.shooting import SolverError, newton_solve, residuals, solve_on_plane
from fig8.continuation import (ContinuationError, SpecialPointNotFound,
                               _normal_plane, continue_family, locate_special)

LJ = PotentialSpec.lj()
H6 = PotentialSpec.homogeneous(6)
CFG = IntegratorConfig()


@pytest.fixture(scope="module")
def alpha_record():
    return newton_solve(ShootingParams(0.75, 0.73, 0.52), LJ, CFG)


@pytest.fixture(scope="module")
def series_down(alpha_record):
    """Through the fold and onto the gourd branch, up to x0 = 1.05."""
    return continue_family(alpha_record, LJ, CFG, step=0.015, n_steps=100,
                           direction=-1, x0_limits=(0.6, 1.05), label="alpha")


@pytest.fixture(scope="module")
def series_up(alpha_record):
    return continue_family(alpha_record, LJ, CFG, step=0.02, n_steps=60,
                           direction=1, x0_limits=(0.7, 1.55), label="alpha")


def solve_on_series_at(series, x0_target, branch_filter=None, tol=1e-10):
    """Newton at exact x0, seeded by interpolating the series."""
    pts = [p.params for p in series.points]
    if branch_filter:
        pts = [p for p in pts if branch_filter(p)]
    pts.sort(key=lambda p: p.x0)
    pairs = list(zip(pts, pts[1:]))
    a, b = pairs[-1]
    for p, q in pairs:
        if p.x0 <= x0_target <= q.x0:
            a, b = p, q
            break
    w = (x0_target - a.x0) / (b.x0 - a.x0)
    seed = ShootingParams(x0_target, a.y0 + w * (b.y0 - a.y0),
                          a.v + w * (b.v - a.v))
    return newton_solve(seed, LJ, CFG, tol=tol)


class TestContinueFamily:
    def test_fold_recorded_and_bracketed(self, series_down):
        assert len(series_down.fold_points) >= 1
        k = series_down.fold_points[0]
        xs = series_down.x0_values()
        # neighbors step in opposite x0 directions around the fold
        assert (xs[k] - xs[k - 1]) * (xs[k + 1] - xs[k]) < 0
        assert xs.min() == pytest.approx(0.6812, abs=3e-3)

    def test_every_point_satisfies_residual_tolerance(self, series_down):
        # independent re-verification, not trusting the corrector bookkeeping
        for rec in series_down.points[::7]:
            s = residuals(rec.params, LJ, CFG)
            assert s.norm <= 2.0 * series_down.tol

    def test_consecutive_step_bound(self, series_down):
        us = series_down.u_coords()
        steps = np.linalg.norm(np.diff(us, axis=0), axis=1)
        assert steps.max() <= 0.015 * 8.0 * 1.5

    def test_lower_branch_published_point(self, series_down):
        rec = solve_on_series_at(series_down, 1.0, lambda p: p.y0 < 0.56)
        assert rec.params.y0 == pytest.approx(0.513969, abs=1e-4)
        assert rec.params.v == pytest.approx(0.396537, abs=1e-4)

    def test_upper_branch_published_point(self, series_up):
        rec = solve_on_series_at(series_up, 1.5)
        assert rec.params.y0 == pytest.approx(1.478621, abs=1e-4)
        assert rec.params.v == pytest.approx(0.0694721, abs=1e-4)

    def test_labels_propagate(self, series_down):
        assert series_down.label == "alpha"
        assert all(p.series_label == "alpha" for p in series_down.points)

    def test_direction_validated(self, alpha_record):
        with pytest.raises(ValueError):
            continue_family(alpha_record, LJ, CFG, direction=0)

    def test_unreachable_tolerance_truncates_with_reason(self, alpha_record):
        series = continue_family(alpha_record, LJ, CFG, step=0.01, n_steps=10,
                                 direction=-1, tol=1e-16)
        assert series.truncation_reason is not None
        assert "underflow" in series.truncation_reason

    @pytest.mark.parametrize("h", [0.01, 0.03])
    def test_corrector_stays_on_the_arclength_hyperplane(self, series_up, h):
        us = series_up.u_coords()
        for k in range(3):
            t = us[k + 1] - us[k]
            t /= np.linalg.norm(t)
            u, s, _ = solve_on_plane(series_up.scale, us[k] + h * t,
                                     _normal_plane(t), LJ, CFG, series_up.tol, 10)
            assert s.norm <= series_up.tol
            assert abs(float((u - us[k]) @ t) - h) <= 1e-12

    def test_bad_start_rejected(self):
        from fig8.shooting import SolutionRecord

        fake = SolutionRecord(params=ShootingParams(0.75, 0.9, 0.2), T=10.0,
                              E=0.0, residual_norm=1e-12, potential=LJ)
        with pytest.raises(ContinuationError):
            continue_family(fake, LJ, CFG)

    def test_homogeneous_family_is_exact_scaling(self):
        rec = newton_solve(ShootingParams(1.0, 0.98, 0.23), H6, CFG)
        up = continue_family(rec, H6, CFG, step=0.02, n_steps=40, direction=1,
                             x0_limits=(0.5, 2.02), label="h6")
        down = continue_family(rec, H6, CFG, step=0.02, n_steps=40, direction=-1,
                               x0_limits=(0.48, 2.02), label="h6")
        xs = np.concatenate([down.x0_values()[::-1], up.x0_values()])
        assert xs.min() <= 0.55 and xs.max() >= 1.9
        for series in (up, down):
            for p in series.points:
                assert p.params.y0 / p.params.x0 == pytest.approx(0.985945,
                                                                  abs=1e-4)
                assert p.params.v * p.params.x0 ** 3 == pytest.approx(0.234675,
                                                                      abs=1e-4)


class TestLocateSpecial:
    def test_fold_refinement(self, series_down):
        fold = locate_special(series_down, "x0-min", CFG)
        assert fold.params.x0 == pytest.approx(0.6812, abs=2e-3)
        assert fold.params.y0 == pytest.approx(0.617578, abs=2e-3)
        assert ("x0-min", fold) in series_down.special_points

    def test_energy_maximum(self, series_down):
        emax = locate_special(series_down, "E-max", CFG)
        assert emax.E == pytest.approx(0.295542, abs=1e-3)
        assert emax.params.x0 == pytest.approx(0.686512, abs=1e-3)

    def test_period_minimum(self, series_down):
        tmin = locate_special(series_down, "T-min", CFG)
        assert tmin.T == pytest.approx(14.5, abs=0.5)

    def test_missing_bracket_raises(self, series_up):
        with pytest.raises(SpecialPointNotFound):
            locate_special(series_up, "E-zero", CFG)

    def test_corrector_failure_is_a_solver_error(self, alpha_record):
        # an unreachable tolerance makes the first probe's corrector fail;
        # the failure reaches the caller as a SolverError, not a private type
        series = continue_family(alpha_record, LJ, CFG, n_steps=12, direction=-1)
        series.tol = 1e-16
        with pytest.raises(SolverError) as err:
            locate_special(series, "x0-min", CFG)
        assert not isinstance(err.value, SpecialPointNotFound)

    def test_unknown_kind_rejected(self, series_down):
        with pytest.raises(ValueError):
            locate_special(series_down, "widest-lobe", CFG)


class TestSeriesExport:
    def test_csv_round_trip_fields(self, series_down, tmp_path):
        path = tmp_path / "series.csv"
        series_down.to_csv(path, header_lines=("config: {}",))
        lines = path.read_text().splitlines()
        assert lines[1] == "label,x0,y0,v,T,E,n0"
        first = lines[2].split(",")
        assert first[0] == "alpha"
        assert float(first[1]) == series_down.points[0].params.x0
        assert first[6] == ""  # collision counts not annotated here
