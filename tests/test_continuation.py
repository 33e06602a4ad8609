"""Family tracing through folds and refinement of distinguished points."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

import fig8.shooting
from fig8.dynamics import PotentialSpec, ShootingParams
from fig8.integrate import IntegratorConfig
from fig8.shooting import (SolutionRecord, SolverError, newton_solve, residuals,
                           solve_on_plane)
from fig8.continuation import (ContinuationError, SpecialPointNotFound,
                               SPECIAL_KINDS, _arc_params, _normal_plane,
                               continue_family, locate_special)

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


@pytest.fixture(scope="module")
def series_gamma():
    """The third family from near its published zero-energy point, across E = 0."""
    start = newton_solve(ShootingParams(0.68, 0.893818, 0.188131), LJ, CFG)
    return continue_family(start, LJ, CFG, step=0.01, n_steps=8, direction=-1,
                           label="gamma")


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


def _chord_probe(series, us, S, s):
    """Corrector re-convergence at arclength s, started on the chord."""
    seg = min(max(int(np.searchsorted(S, s, side="right")) - 1, 0), len(us) - 2)
    u_a, u_b = us[seg], us[seg + 1]
    tau = (s - S[seg]) / (S[seg + 1] - S[seg])
    _, smp, _ = solve_on_plane(series.scale, u_a + tau * (u_b - u_a),
                               _normal_plane((u_b - u_a) / np.linalg.norm(u_b - u_a)),
                               LJ, CFG, series.tol, 10)
    return SolutionRecord.from_sample(smp, LJ)


def golden_section_oracle(series, kind, s_tol=1e-6):
    """The refinement by plain golden-section search (brentq for E-zero)
    over arclength, every probe started on the chord: slow but simple."""
    us = series.u_coords()
    S = _arc_params(us)
    xtol = s_tol * max(S[-1], 1.0)
    if kind == "E-zero":
        E = [p.E for p in series.points]
        k = next(k for k in range(len(E) - 1) if (E[k] > 0.0) != (E[k + 1] > 0.0))
        s_root = brentq(lambda s: _chord_probe(series, us, S, s).E, S[k], S[k + 1],
                        xtol=xtol)
        return _chord_probe(series, us, S, s_root)
    value = {"T-min": lambda r: r.T, "E-max": lambda r: -r.E,
             "x0-min": lambda r: r.params.x0}[kind]
    k = int(np.argmin([value(p) for p in series.points]))
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = S[k - 1], S[k + 1]
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    rec_c, rec_d = _chord_probe(series, us, S, c), _chord_probe(series, us, S, d)
    while b - a > xtol:
        if value(rec_c) < value(rec_d):
            b, d, rec_d = d, c, rec_c
            c = b - invphi * (b - a)
            rec_c = _chord_probe(series, us, S, c)
        else:
            a, c, rec_c = c, d, rec_d
            d = a + invphi * (b - a)
            rec_d = _chord_probe(series, us, S, d)
    return rec_c if value(rec_c) < value(rec_d) else rec_d


class TestSpecialPointSearch:
    """Brent over arclength with warm-started probes, against the oracle."""

    SERIES = {"x0-min": "series_down", "E-max": "series_down",
              "T-min": "series_down", "E-zero": "series_gamma"}
    # residual evaluations measured per refinement (the golden-section
    # oracle makes 257, 270, 257 and 30), plus a 25% margin
    BUDGET = {"x0-min": 42, "E-max": 52, "T-min": 42, "E-zero": 15}
    MARGIN = 1.25

    @pytest.fixture(scope="class")
    def refined(self, request):
        return {kind: locate_special(request.getfixturevalue(name), kind, CFG)
                for kind, name in self.SERIES.items()}

    @pytest.mark.parametrize("kind", SPECIAL_KINDS)
    def test_matches_golden_section_oracle(self, request, refined, kind):
        oracle = golden_section_oracle(request.getfixturevalue(self.SERIES[kind]), kind)
        rec = refined[kind]
        extremised = {"x0-min": lambda r: r.params.x0, "E-max": lambda r: r.E,
                      "T-min": lambda r: r.T, "E-zero": lambda r: r.E}[kind]
        assert abs(extremised(rec) - extremised(oracle)) <= 1e-9
        for got, want in zip(rec.params, oracle.params):
            assert abs(got - want) <= 1e-6

    def test_no_worse_than_the_series(self, series_down, refined):
        pts = series_down.points
        assert refined["x0-min"].params.x0 <= min(p.params.x0 for p in pts) + 1e-9
        assert refined["E-max"].E >= max(p.E for p in pts) - 1e-12
        assert refined["T-min"].T <= min(p.T for p in pts) + 1e-9

    @pytest.mark.parametrize("kind", SPECIAL_KINDS)
    def test_integration_budget(self, request, monkeypatch, kind):
        series = request.getfixturevalue(self.SERIES[kind])
        calls = []
        monkeypatch.setattr(fig8.shooting, "residuals",
                            lambda *a: calls.append(a) or residuals(*a))
        locate_special(series, kind, CFG)
        assert len(calls) <= self.MARGIN * self.BUDGET[kind]


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
