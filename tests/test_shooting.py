"""Residual evaluation, grid scanning, seed detection, and the Newton solve."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fig8.dynamics import PotentialSpec, ShootingParams
from fig8.integrate import IntegrationError, IntegratorConfig
from fig8.shooting import (STATUS_OK, STATUS_TRAJECTORY_FAILURE, ContourGrid,
                           NewtonDivergence, ResidualSample,
                           SingularJacobian, SolverError,
                           energy_in_published_range, find_seeds, newton_solve,
                           record_from_params, residuals, scan_grid,
                           solution_record_from_json, solution_record_json,
                           solve_on_plane)

LJ = PotentialSpec.lj()
H6 = PotentialSpec.homogeneous(6)
CFG = IntegratorConfig()

ALPHA = ShootingParams(0.75, 0.725966, 0.522742)


class TestResiduals:
    def test_alpha_nearly_vanishes(self):
        s = residuals(ALPHA, LJ, CFG)
        assert s.ok
        assert abs(s.P) <= 1e-5
        assert abs(s.D) <= 1e-5

    def test_homogeneous_nearly_vanishes(self):
        s = residuals(ShootingParams(1.0, 0.985945, 0.234675), H6, CFG)
        assert s.ok
        assert abs(s.P) <= 1e-4 and abs(s.D) <= 1e-4
        assert s.t_f == pytest.approx(5.1, abs=1e-3)

    def test_perturbation_breaks_residuals(self):
        s = residuals(ShootingParams(0.75, 0.725966 + 0.05, 0.522742), LJ, CFG)
        assert s.ok
        assert max(abs(s.P), abs(s.D)) > 1e-3

    def test_bit_reproducible(self):
        a = residuals(ALPHA, LJ, CFG)
        b = residuals(ALPHA, LJ, CFG)
        assert (a.P, a.D, a.E, a.t_f) == (b.P, b.D, b.E, b.t_f)

    def test_homogeneous_scaling_law(self):
        base = newton_solve(ShootingParams(1.0, 0.98, 0.23), H6, CFG)
        p = base.params
        for lam in (0.5, 2.0):
            s = residuals(ShootingParams(lam * p.x0, lam * p.y0, p.v / lam ** 3),
                          H6, CFG)
            assert s.ok
            assert s.norm <= 1e-7

    def test_failure_sample_shape(self):
        # collapsing power-law run: only launch energy survives
        s = residuals(ShootingParams(0.3, 0.3, 0.01), H6,
                      IntegratorConfig(min_distance=0.05, t_max=50.0))
        assert s.status == STATUS_TRAJECTORY_FAILURE
        assert s.P is None and s.D is None and s.t_f is None
        assert s.E is not None
        assert s.norm == math.inf

    def test_energy_at_launch_equals_event_energy(self):
        from fig8.dynamics import isosceles_state, total_energy
        from fig8.integrate import integrate_to_collinear

        s = residuals(ALPHA, LJ, CFG)
        _, y_f, _ = integrate_to_collinear(isosceles_state(ALPHA), LJ, CFG)
        assert total_energy(y_f, LJ) == pytest.approx(s.E, abs=1e-10)


def synthetic_grid(pfun, dfun, y0_axis, v_axis, fail_at=()):
    samples = []
    for i, y0 in enumerate(y0_axis):
        row = []
        for j, v in enumerate(v_axis):
            params = ShootingParams(0.75, float(y0), float(v))
            if (i, j) in fail_at:
                row.append(ResidualSample(params=params,
                                          status=STATUS_TRAJECTORY_FAILURE,
                                          E=0.0))
            else:
                row.append(ResidualSample(
                    params=params, status=STATUS_OK,
                    P=pfun(y0, v), D=dfun(y0, v), E=0.0, t_f=1.0,
                    P_norm=pfun(y0, v), D_norm=dfun(y0, v)))
        samples.append(row)
    return ContourGrid(x0=0.75, y0_axis=np.asarray(y0_axis),
                       v_axis=np.asarray(v_axis), samples=samples)


class TestFindSeeds:
    def test_linear_fields_single_crossing(self):
        y0s = np.linspace(0.3, 0.7, 9)
        vs = np.linspace(0.1, 0.5, 9)
        grid = synthetic_grid(lambda y, v: y - 0.52, lambda y, v: v - 0.33,
                              y0s, vs)
        seeds = find_seeds(grid)
        assert len(seeds) == 1
        assert seeds[0].y0 == pytest.approx(0.52, abs=1e-9)
        assert seeds[0].v == pytest.approx(0.33, abs=1e-9)

    def test_constant_sign_field_no_seeds(self):
        y0s = np.linspace(0.3, 0.7, 5)
        vs = np.linspace(0.1, 0.5, 5)
        grid = synthetic_grid(lambda y, v: 1.0 + y, lambda y, v: v - 0.3, y0s, vs)
        assert find_seeds(grid) == []

    def test_failed_cells_excluded(self):
        y0s = np.linspace(0.3, 0.7, 5)
        vs = np.linspace(0.1, 0.5, 5)
        # the crossing sits inside the failed 2x2 neighborhood
        fails = {(2, 2)}
        grid = synthetic_grid(lambda y, v: y - 0.5, lambda y, v: v - 0.3,
                              y0s, vs, fail_at=fails)
        seeds = find_seeds(grid)
        assert all((abs(s.y0 - 0.5) > 1e-6 or abs(s.v - 0.3) > 1e-6)
                   for s in seeds)

    def test_all_failed_grid_empty(self):
        y0s = np.linspace(0.3, 0.4, 2)
        vs = np.linspace(0.1, 0.2, 2)
        grid = synthetic_grid(lambda y, v: 0.0, lambda y, v: 0.0, y0s, vs,
                              fail_at={(0, 0), (0, 1), (1, 0), (1, 1)})
        assert find_seeds(grid) == []

    def test_nonlinear_fields_stay_in_cell(self):
        y0s = np.linspace(0.3, 0.7, 5)
        vs = np.linspace(0.1, 0.5, 5)
        grid = synthetic_grid(lambda y, v: (y - 0.42) * (1 + 3 * v),
                              lambda y, v: (v - 0.27) - 0.3 * (y - 0.42),
                              y0s, vs)
        seeds = find_seeds(grid)
        assert len(seeds) >= 1
        for s in seeds:
            assert y0s[0] <= s.y0 <= y0s[-1]
            assert vs[0] <= s.v <= vs[-1]


class TestScanGrid:
    def test_small_scan_finds_alpha(self):
        grid = scan_grid(0.75, (0.70, 0.76), (0.49, 0.55), 7, 7, LJ, CFG)
        seeds = find_seeds(grid)
        assert any(abs(s.y0 - 0.725966) < 0.02 and abs(s.v - 0.522742) < 0.02
                   for s in seeds)

    def test_strong_repulsion_region_empty(self):
        # launch triangle already inside the repulsive core: no solutions
        grid = scan_grid(0.75, (0.06, 0.24), (0.1, 0.6), 6, 6, LJ, CFG)
        assert find_seeds(grid) == []

    def test_below_half_core_diameter_empty(self):
        # mirror pair closer than half the zero-crossing separation: the
        # whole y0 < 0.5 strip at x0 = 0.75 carries no crossings
        grid = scan_grid(0.75, (0.45, 0.499), (0.05, 0.7), 10, 20, LJ, CFG)
        assert find_seeds(grid) == []

    def test_zero_energy_solution_window_has_seed(self):
        grid = scan_grid(0.671188, (0.86, 0.93), (0.16, 0.22), 8, 8, LJ, CFG)
        seeds = find_seeds(grid)
        dy = (0.93 - 0.86) / 7
        dv = (0.22 - 0.16) / 7
        assert any(abs(s.y0 - 0.893818) <= dy and abs(s.v - 0.188131) <= dv
                   for s in seeds)

    def test_shape_and_status_recorded(self):
        grid = scan_grid(0.75, (0.4, 0.6), (0.2, 0.4), 3, 4, LJ, CFG)
        assert len(grid.samples) == 3
        assert all(len(row) == 4 for row in grid.samples)
        assert all(s.status in (STATUS_OK, STATUS_TRAJECTORY_FAILURE,
                                "event-not-found")
                   for row in grid.samples for s in row)

    def test_parallel_matches_serial(self):
        serial = scan_grid(0.75, (0.70, 0.74), (0.50, 0.54), 3, 3, LJ, CFG)
        parallel = scan_grid(0.75, (0.70, 0.74), (0.50, 0.54), 3, 3, LJ, CFG,
                             jobs=2)
        for r1, r2 in zip(serial.samples, parallel.samples):
            for s1, s2 in zip(r1, r2):
                assert s1 == s2

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError):
            scan_grid(0.75, (0.7, 0.6), (0.2, 0.4), 3, 3, LJ, CFG)
        with pytest.raises(ValueError):
            scan_grid(0.75, (0.6, 0.7), (0.2, 0.4), 1, 3, LJ, CFG)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_nonpositive_jobs_rejected(self, jobs):
        with pytest.raises(ValueError):
            scan_grid(0.75, (0.6, 0.7), (0.2, 0.4), 3, 3, LJ, CFG, jobs=jobs)

    def test_csv_and_json_export(self, tmp_path):
        grid = scan_grid(0.75, (0.70, 0.74), (0.50, 0.54), 3, 3, LJ, CFG)
        path = tmp_path / "grid.csv"
        grid.to_csv(path, header_lines=("config: {}",))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "x0,y0,v,P,D,E,t_f,status"
        assert len(lines) == 2 + 9
        d = grid.to_json_dict()
        assert len(d["P"]) == 3 and len(d["P"][0]) == 3
        json.dumps(d)  # serializable


class TestNewtonSolve:
    def test_alpha_from_loose_seed(self):
        rec = newton_solve(ShootingParams(0.75, 0.73, 0.52), LJ, CFG)
        assert rec.params.y0 == pytest.approx(0.725966, abs=1e-5)
        assert rec.params.v == pytest.approx(0.522742, abs=1e-5)
        assert rec.residual_norm <= 1e-10
        assert rec.T == pytest.approx(12 * 1.70239, abs=1e-3)

    def test_homogeneous_baseline(self):
        rec = newton_solve(ShootingParams(1.0, 0.98, 0.23), H6, CFG)
        assert rec.params.y0 == pytest.approx(0.985945, abs=1e-5)
        assert rec.params.v == pytest.approx(0.234675, abs=1e-5)
        assert rec.T == pytest.approx(61.2000, abs=1e-3)

    def test_second_family_energy(self):
        rec = newton_solve(ShootingParams(1.0, 0.96, 0.14), LJ, CFG)
        assert rec.params.y0 == pytest.approx(0.956733, abs=1e-5)
        assert rec.params.v == pytest.approx(0.144241, abs=1e-5)
        assert rec.E == pytest.approx(0.00263843, abs=1e-5)

    def test_failed_trajectory_carries_params(self):
        # no collinear event before t_max = 0.5: the seed's own shot fails
        with pytest.raises(IntegrationError) as err:
            newton_solve(ALPHA, LJ, IntegratorConfig(t_max=0.5))
        assert err.value.params == ALPHA
        assert "event-not-found" in str(err.value)

    def test_divergence_carries_best_iterate(self):
        with pytest.raises(NewtonDivergence) as err:
            newton_solve(ShootingParams(0.75, 0.73, 0.52), LJ, CFG,
                         tol=1e-16, max_iter=3)
        assert err.value.best_params.x0 == 0.75
        assert err.value.best_norm < 1e-3

    def test_fold_seed_raises_solver_error(self):
        # at the second family's smallest x0 the fixed-x0 Jacobian degenerates
        with pytest.raises(SolverError):
            newton_solve(ShootingParams(0.726, 0.766265, 0.302694), LJ, CFG,
                         tol=1e-12, max_iter=8)

    # max_iter 5 bounds an example's cost; whether a seed converges or
    # diverges, the outcome keeps its type and carries the seed's x0
    @settings(max_examples=20, deadline=None)
    @given(x0=st.floats(0.6, 1.5), y0=st.floats(0.45, 1.3), v=st.floats(0.05, 0.7))
    def test_in_window_seeds_converge_or_raise_with_parameters(self, x0, y0, v):
        try:
            rec = newton_solve(ShootingParams(x0, y0, v), LJ, CFG, max_iter=5)
        except NewtonDivergence as exc:
            assert exc.best_norm > 1e-10
            carried = exc.best_params
        except SingularJacobian as exc:
            carried = exc.params
        except IntegrationError as exc:
            carried = exc.params
        else:
            assert rec.residual_norm <= 1e-10
            carried = rec.params
        assert isinstance(carried, ShootingParams)
        assert carried.x0 == x0


class TestSolveOnPlane:
    def test_fixed_y0_solve_at_the_beta_fold(self):
        # where the fixed-x0 solve degenerates, Newton in (x0, v) converges
        beta = np.array([0.726, 0.766265, 0.302694])
        u, s, _ = solve_on_plane(
            beta, np.ones(3), np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
            LJ, CFG, tol=1e-10, max_iter=25)
        assert s.norm <= 1e-10
        assert s.params.y0 == beta[1]
        assert s.params.x0 == pytest.approx(0.72666, abs=5e-5)
        assert np.allclose(u * beta, list(s.params), rtol=1e-15)


class TestRecords:
    def test_json_round_trip(self):
        rec = record_from_params(ALPHA, LJ, CFG).with_label("alpha").with_n0(0)
        d = solution_record_json(rec, CFG)
        again = solution_record_from_json(d)
        assert again == rec
        assert d["version"]
        assert d["integrator"]["rel_tol"] == CFG.rel_tol

    def test_record_from_params_reports_residual(self):
        rec = record_from_params(ALPHA, LJ, CFG)
        assert 0 < rec.residual_norm < 1e-4
        assert rec.T > 0

    def test_energy_range_flag(self):
        assert energy_in_published_range(0.0)
        assert energy_in_published_range(0.295542)
        assert not energy_in_published_range(0.5)
        assert not energy_in_published_range(-0.6)
