"""Propagation accuracy, event location, and failure modes."""

import math
import pickle
import warnings
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import DOP853
from scipy.optimize import brentq

import fig8.integrate as fig8_integrate
from fig8.dynamics import (PotentialSpec, ShootingParams, angular_momentum,
                           isosceles_state, linear_momentum, total_energy)
from fig8.integrate import (_EVENT_PROBES, _PRETEST_FRACS, EventNotFound,
                            IntegrationError, IntegratorConfig,
                            StiffnessFailure, TrajectoryFailure,
                            TrajectorySegment, _collinearity_jet, _dense_sum,
                            _may_hold_event, _min_pair_dist_sq, _probe_times,
                            _pretest_samples, collinearity, integrate,
                            integrate_to_collinear)
from fig8.shooting import STATUS_TRAJECTORY_FAILURE, residuals

LJ = PotentialSpec.lj()
H6 = PotentialSpec.homogeneous(6)
CFG = IntegratorConfig()

ALPHA = ShootingParams(0.75, 0.725966, 0.522742)
HOMOG = ShootingParams(1.0, 0.985945, 0.234675)
R_MIN = 2.0 ** (1.0 / 6.0)


def at_rest(*q):
    """Flat state of three bodies at rest at the positions q."""
    return np.array([*q, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], dtype=float)


def equilateral_rest(side):
    h = side * math.sqrt(3.0) / 2.0
    return at_rest(-side / 2, -h / 3, side / 2, -h / 3, 0.0, 2 * h / 3)


class TestCollinearity:
    def test_isosceles_value(self):
        p = ShootingParams(0.8, 0.6, 0.3)
        assert collinearity(isosceles_state(p)) == pytest.approx(
            6.0 * p.x0 * p.y0, rel=1e-15)

    def test_collinear_placement(self):
        assert collinearity(at_rest(0, 0, 1, 1, 2, 2)) == 0.0

    def test_euler_placement(self):
        assert collinearity(at_rest(0, 0, -1.3, 0.7, 1.3, -0.7)) == 0.0


class TestIntegrate:
    def test_equilibrium_stays_put(self):
        state = equilateral_rest(R_MIN)
        seg = integrate(state, LJ, 1.0, CFG)
        assert np.max(np.abs(seg.eval(1.0) - state)) < 1e-9

    def test_energy_drift_over_alpha_period(self):
        state = isosceles_state(ALPHA)
        E0 = total_energy(state, LJ)
        T = 20.4287
        seg = integrate(state, LJ, T, CFG)
        for y in seg.eval_many(np.linspace(0.0, T, 17)).T:
            assert abs(total_energy(y, LJ) - E0) <= 1e-9 * (1.0 + abs(E0))

    def test_momenta_conserved(self):
        state = isosceles_state(ALPHA)
        seg = integrate(state, LJ, 10.0, CFG)
        end = seg.eval(10.0)
        assert abs(angular_momentum(end)) <= 1e-9
        assert math.hypot(*linear_momentum(end)) <= 1e-9

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
        y = state.copy()
        y[6:] = -y[6:]
        bwd = integrate(y, H6, half, CFG)
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
        ts = seg.ts
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
        assert row0[1:] == pytest.approx(list(isosceles_state(ALPHA)))

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

    def test_eval_many_equals_step_interpolants_bit_for_bit(self):
        # the scalar call of each step's own interpolant is the reference;
        # times past either end use the first or last step
        seg = integrate(isosceles_state(ALPHA), LJ, 3.0, CFG)
        rng = np.random.default_rng(3)
        ts = np.concatenate([seg.ts, rng.uniform(-0.1, seg.t_end + 0.1, 300)])
        many = seg.eval_many(ts)
        for col, t in zip(many.T, ts.tolist()):
            k = min(max(bisect_right(seg.ts, t) - 1, 0), len(seg.interpolants) - 1)
            assert col.tolist() == seg.interpolants[k](t).tolist()


# every potential family; the first two use the closed forms of the force table
ALL_KINDS = [LJ, H6, PotentialSpec.lj(10, 4), PotentialSpec.homogeneous(4)]


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
        tf, _, seg = integrate_to_collinear(isosceles_state(HOMOG), H6, CFG)
        assert tf == pytest.approx(61.2 / 12.0, abs=1e-3)
        assert seg.t_end == tf

    def test_alpha_event_is_central_configuration(self):
        tf, y_f, _ = integrate_to_collinear(isosceles_state(ALPHA), LJ, CFG)
        # inner body crosses the origin while the outer two move in parallel
        assert math.hypot(*y_f[0:2]) < 1e-4
        assert math.hypot(*(y_f[8:10] - y_f[10:12])) < 1e-4

    def test_event_refinement_quality(self):
        tf, y_f, seg = integrate_to_collinear(isosceles_state(ALPHA), LJ, CFG)
        scale = math.hypot(*(y_f[2:4] - y_f[0:2])) * math.hypot(*(y_f[4:6] - y_f[0:2]))
        assert abs(collinearity(y_f)) <= 1e-12 * scale
        assert collinearity(seg.eval(tf - 1e-6)) > 0

    def test_self_convergence(self):
        tf1, _, _ = integrate_to_collinear(isosceles_state(ALPHA), LJ, CFG)
        tight = IntegratorConfig(rel_tol=5e-12, abs_tol=5e-12)
        tf2, _, _ = integrate_to_collinear(isosceles_state(ALPHA), LJ, tight)
        assert abs(tf1 - tf2) < 1e-9

    def test_mirror_symmetry_same_event_time(self):
        tf, _, _ = integrate_to_collinear(isosceles_state(ALPHA), LJ, CFG)
        mirrored = isosceles_state(ALPHA) * np.tile([1.0, -1.0], 6)
        tf_m, _, _ = integrate_to_collinear(mirrored, LJ, CFG)
        assert tf_m == pytest.approx(tf, abs=1e-10)

    def test_time_reversal_recovers_start(self):
        state0 = isosceles_state(ALPHA)
        tf, y, _ = integrate_to_collinear(state0, LJ, CFG)
        y[6:] = -y[6:]
        back = integrate(y, LJ, tf, CFG)
        yb = back.eval(tf).copy()
        yb[6:] = -yb[6:]
        assert np.max(np.abs(yb - state0)) < 1e-9

    def test_already_collinear_rejected(self):
        with pytest.raises(ValueError):
            integrate_to_collinear(at_rest(0, 0, -1, 0, 1, 0), LJ, CFG)


COMPONENTS = st.one_of(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
                       st.sampled_from([math.nan, math.inf, -math.inf]))


@st.composite
def launch_vectors(draw):
    """Random flat states, wrong shapes, coincident bodies, collinear starts."""
    kind = draw(st.sampled_from(["random", "shape", "coincident", "collinear"]))
    if kind == "shape":
        shape = draw(st.sampled_from([(), (0,), (6,), (11,), (13,), (12, 1), (2, 6)]))
        return draw(arrays(np.float64, shape, elements=COMPONENTS))
    y = draw(arrays(np.float64, 12, elements=COMPONENTS))
    i, j = draw(st.permutations(range(3)))[:2]
    if kind == "coincident":
        y[2 * j:2 * j + 2] = y[2 * i:2 * i + 2]
    elif kind == "collinear":
        # body 2 on the line through bodies 0 and 1
        with np.errstate(invalid="ignore"):
            y[4:6] = y[0:2] + draw(st.floats(-2.0, 2.0)) * (y[2:4] - y[0:2])
    return y


class TestLaunchStateBoundary:
    @settings(max_examples=200, deadline=None)
    @given(y0=launch_vectors(), spec=st.sampled_from([LJ, H6, PotentialSpec.lj(10, 4)]))
    def test_any_vector_returns_or_raises_a_declared_error(self, y0, spec):
        cfg = IntegratorConfig(t_max=0.5)
        malformed = y0.shape != (12,) or not np.isfinite(y0).all()
        for run in (lambda: integrate(y0, spec, 0.5, cfg),
                    lambda: integrate_to_collinear(y0, spec, cfg)):
            if malformed:
                with pytest.raises(ValueError):
                    run()
                continue
            # numpy warns where the generic force law meets a zero distance
            # or overflows; the distance guard then ends the run
            try:
                with np.errstate(all="ignore"):
                    run()
            except (ValueError, IntegrationError):
                pass

    def test_coincident_bodies_fail_at_t0(self):
        y = at_rest(0.3, 0.2, 0.3, 0.2, -1.0, 0.5)
        with pytest.raises(TrajectoryFailure) as err:
            integrate(y, LJ, 1.0, CFG)
        assert err.value.t == 0.0
        # a coincident pair is aligned with any third body
        with pytest.raises(ValueError, match="collinear"):
            integrate_to_collinear(y, LJ, CFG)

    def test_coincident_launch_fails_before_the_force_law_warns(self):
        # the distance guard runs ahead of the first RHS call, where the
        # generic force law would divide zero by zero
        y = at_rest(0.3, 0.2, 0.3, 0.2, -1.0, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrajectoryFailure) as err:
                integrate(y, PotentialSpec.lj(10, 4), 1.0, CFG)
        assert err.value.t == 0.0


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

    def test_zero_pair_distance_is_a_trajectory_failure(self, monkeypatch):
        # the float force law raises ZeroDivisionError at an exact zero
        # distance; stand it in on the 50th evaluation of a run
        make_rhs = fig8_integrate.make_rhs

        def dividing_by_zero(spec):
            rhs, calls = make_rhs(spec), [0]

            def stage(t, y):
                calls[0] += 1
                if calls[0] == 50:
                    raise ZeroDivisionError("float division by zero")
                return rhs(t, y)

            return stage

        monkeypatch.setattr(fig8_integrate, "make_rhs", dividing_by_zero)
        with pytest.raises(TrajectoryFailure) as err:
            integrate_to_collinear(isosceles_state(ALPHA), LJ, CFG)
        assert 0.0 < err.value.t < 1.70239
        assert residuals(ALPHA, LJ, CFG).status == STATUS_TRAJECTORY_FAILURE


# -- bit parity with scipy's DOP853 solver object ----------------------------

def _scipy_propagate(state0, spec, cfg, t_bound, find_collinear, dense_at=None):
    """The stepping driver as it stood on scipy's DOP853 object.

    Returns (ts, interpolants, t_end, y_event or None); raises as the
    driver does. A list dense_at receives, for every accepted step, the
    number of RHS calls made before the step's dense output, whose three
    extra stages come next.
    """
    y0 = np.array(state0, dtype=float)
    solver = DOP853(fig8_integrate.make_rhs(spec), 0.0, y0, t_bound,
                    rtol=cfg.rel_tol, atol=cfg.abs_tol, max_step=cfg.max_step)
    min_d2 = cfg.min_distance ** 2
    if _min_pair_dist_sq(y0) < min_d2:
        raise TrajectoryFailure("bodies closer than min_distance", 0.0)
    ts = [0.0]
    interps = []
    prev_t, prev_c = 0.0, collinearity(y0)
    while solver.status == "running":
        solver.step()
        if solver.status == "failed":
            raise StiffnessFailure("stepper breakdown (step-size underflow)", solver.t)
        if dense_at is not None:
            dense_at.append(solver.nfev)
        interp = solver.dense_output()
        interps.append(interp)
        ts.append(solver.t)
        if find_collinear:
            for frac in (0.25, 0.5, 0.75, 1.0):
                tt = prev_t + frac * (solver.t - prev_t)
                c = collinearity(interp(tt))
                if c == 0.0 or (prev_c > 0.0) != (c > 0.0):
                    te = tt if c == 0.0 else brentq(
                        lambda s: collinearity(interp(s)),
                        prev_t, tt, xtol=1e-13, rtol=8.9e-16)
                    return ts, interps, te, np.asarray(interp(te), dtype=float)
                prev_t, prev_c = tt, c
        if _min_pair_dist_sq(solver.y) < min_d2:
            raise TrajectoryFailure("bodies closer than min_distance", solver.t)
    if find_collinear:
        raise EventNotFound(f"no collinearity sign change in [0, {t_bound:.6g}]")
    return ts, interps, solver.t, None


def _run_recorded(monkeypatch, fn, *args):
    """(result or exception, the (t, y) argument of every RHS call) of
    fn(*args). A right-hand side made during the call keeps recording into
    the list afterwards, as when a deferred interpolant is built."""
    calls = []
    make_rhs = fig8_integrate.make_rhs

    def recording(spec):
        rhs = make_rhs(spec)

        def recorded(t, y):
            calls.append((float(t), np.asarray(y, dtype=float).tolist()))
            return rhs(t, y)

        return recorded

    with monkeypatch.context() as m:
        m.setattr(fig8_integrate, "make_rhs", recording)
        try:
            out = fn(*args)
        except Exception as exc:  # compared by type and message
            out = exc
    return out, calls


def _run_counted(monkeypatch, fn, *args):
    """(result or exception, RHS evaluations) of fn(*args)."""
    out, calls = _run_recorded(monkeypatch, fn, *args)
    return out, len(calls)


def _dropped_dense_triples(ref_calls, dense_at, calls):
    """Starts, in ref_calls, of the dense-output triples that calls lacks.

    Fails unless calls is ref_calls with whole triples removed, each
    starting at one of dense_at.
    """
    starts = set(dense_at)
    dropped, i, j = [], 0, 0
    while i < len(ref_calls):
        if i in starts and calls[j:j + 3] != ref_calls[i:i + 3]:
            dropped.append(i)
            i += 3
            continue
        assert j < len(calls) and calls[j] == ref_calls[i], (i, j)
        i, j = i + 1, j + 1
    assert j == len(calls)
    return dropped


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
        # scipy's RHS calls, less the three dense-output stages of each step
        # that the event pre-test clears; building those steps' interpolants
        # makes exactly the missing calls, and gives scipy's bits
        state0, spec, cfg = COLLINEAR_CASES[case]
        cleared = []
        may_hold_event = fig8_integrate._may_hold_event

        def spy(*args):
            flagged = may_hold_event(*args)
            cleared.append(not flagged)
            return flagged

        monkeypatch.setattr(fig8_integrate, "_may_hold_event", spy)
        new, calls = _run_recorded(monkeypatch, integrate_to_collinear, state0, spec, cfg)
        dense_at = []
        ref, ref_calls = _run_recorded(monkeypatch, _scipy_propagate, state0, spec, cfg,
                                       cfg.t_max, True, dense_at)
        dropped = _dropped_dense_triples(ref_calls, dense_at, calls)
        assert len(dropped) == sum(cleared) > 0
        assert type(ref) is FAILING_CASES.get(case, tuple)
        if isinstance(ref, Exception):
            _assert_same_failure(new, ref)
            return
        t_f, y_f, seg = new
        ts, interps, te, ye = ref
        assert seg.ts == ts
        assert t_f == te and seg.t_end == te
        assert y_f.tolist() == ye.tolist()
        n_run = len(calls)
        assert len(seg.interpolants) == len(interps)
        for p, q in zip(seg.interpolants, interps):
            assert p.F.tolist() == q.F.tolist()
            assert (p.t_old, p.h, p.y_old.tolist()) == (q.t_old, q.h, q.y_old.tolist())
        assert calls[n_run:] == [c for i in dropped for c in ref_calls[i:i + 3]]
        assert len(calls) == len(ref_calls)
        if case == "long-tail":
            assert 97.0 < t_f < 97.5

    @pytest.mark.parametrize("case", sorted(INTEGRATE_CASES))
    def test_integrate(self, monkeypatch, case):
        state0, spec, t_end, cfg = INTEGRATE_CASES[case]
        new, n_new = _run_counted(monkeypatch, integrate, state0, spec, t_end, cfg)
        ref, n_ref = _run_counted(monkeypatch, _scipy_propagate, state0, spec, cfg,
                                  t_end, False)
        if case == "start-inside-floor":
            # the distance guard runs before the first RHS call; scipy's
            # solver makes two (f0 and the initial-step trial) before it
            assert (n_new, n_ref) == (0, 2)
        else:
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


# -- the event pre-test against every step flagged ---------------------------

def _hunt_both_ways(monkeypatch, state0, spec, cfg):
    """integrate_to_collinear's (t_f, y_f, ts) or failure, with the pre-test
    and with every step flagged (today's probe path on every step), and the
    largest gap, over the steps, between C on the pre-test's quintic and C
    on the step's interpolant, as a fraction of the step's margin."""

    def hunt():
        try:
            t_f, y_f, seg = integrate_to_collinear(state0, spec, cfg)
        except IntegrationError as exc:
            return type(exc), str(exc), getattr(exc, "t", None)
        return t_f, y_f.tolist(), seg.ts

    default = hunt()
    steps = []
    dense_output = fig8_integrate._dense_output

    def recording(K, rhs, t_old, y_old, y, h):
        F = dense_output(K, rhs, t_old, y_old, y, h)
        steps.append((K[0].tolist(), K[fig8_integrate._N_STAGES].tolist(), y_old, y, h, F))
        return F

    with monkeypatch.context() as m:
        m.setattr(fig8_integrate, "_EVENT_MARGIN", math.inf)
        m.setattr(fig8_integrate, "_dense_output", recording)
        every_step = hunt()
    worst = 0.0
    for f_old, f_new, y_old, y, h, F in steps:
        jet_old = _collinearity_jet(y_old.tolist(), f_old)
        samples, margin = _pretest_samples(jet_old, _collinearity_jet(y.tolist(), f_new), h)
        q = _dense_sum(F[:, :6], y_old[:6], _PRETEST_FRACS[:, None],
                       np.zeros((_PRETEST_FRACS.size, 6)))
        worst = max(worst, np.abs(samples - collinearity(q.T)).max() / margin)
    return default, every_step, worst


class TestEventPretest:
    """Dense output only on flagged steps changes no step, event or bit.

    With the margin at infinity every step is flagged, which is the probe
    path with no pre-test; the default must agree with it exactly, and the
    quintic must stay far inside the margin of the interpolant's C.
    """

    GAP = 1e-3  # of the margin; the benchmark workloads reach about 1.1e-6

    @pytest.mark.parametrize("case", sorted(COLLINEAR_CASES))
    def test_collinear_cases(self, monkeypatch, case):
        default, every_step, gap = _hunt_both_ways(monkeypatch, *COLLINEAR_CASES[case])
        assert default == every_step
        assert gap < self.GAP

    def test_baseline_grid(self, monkeypatch):
        for y0 in np.linspace(0.45, 1.3, 20):
            for v in np.linspace(0.05, 0.7, 20):
                state0 = isosceles_state(ShootingParams(0.75, float(y0), float(v)))
                default, every_step, gap = _hunt_both_ways(monkeypatch, state0, LJ, CFG)
                assert default == every_step, (y0, v)
                assert gap < self.GAP, (y0, v)

    @settings(max_examples=100, deadline=None)
    @given(x0=st.floats(0.6, 1.5), y0=st.floats(0.45, 1.3), v=st.floats(0.05, 0.7),
           spec=st.sampled_from([LJ, H6]))
    def test_in_window_launches(self, x0, y0, v, spec):
        with pytest.MonkeyPatch.context() as monkeypatch:
            default, every_step, gap = _hunt_both_ways(
                monkeypatch, isosceles_state(ShootingParams(x0, y0, v)), spec, CFG)
        assert default == every_step
        assert gap < self.GAP

    def test_floor_flags_a_step_whose_c_stays_tiny(self):
        # margin = 0.1 max(|C_start|, |C_end|, 1e-6 r2): a flat C below
        # 1e-7 r2 is flagged, one above it is not
        r2 = 3.0
        for c, flagged in ((0.99e-7 * r2, True), (1.01e-7 * r2, False)):
            jet = (c, 0.0, 0.0, r2)
            assert _may_hold_event(jet, jet, 0.1, 1.0) is flagged
            assert _may_hold_event(jet, jet, 0.1, -1.0)

    def test_flags_a_dip_between_the_step_ends(self):
        # C = 1 at both ends, falling at the start and rising at the end
        start, end = (1.0, -10.0, 0.0, 3.0), (1.0, 10.0, 0.0, 3.0)
        assert _may_hold_event(start, end, 1.0, 1.0)
        assert not _may_hold_event(start, end, 0.01, 1.0)


# -- the probe gaps against C sampled densely on every step ------------------

class TestProbeGaps:
    """The four probes per step see the first sign change of C.

    C is sampled at 65 points of every event-hunt step's interpolant. The
    first sampled sign change must lie in the step the event is reported
    in, bracketing the event time, so no probe gap hides an earlier one.
    The cells are lattice points of the default 200x200 scan at x0 = 0.75:
    its long-tail block (v < V_AXIS[40], t_f up to about 150) and one
    smooth column.
    """

    ROWS = (25, 65, 105, 145, 185)
    COLS = (5, 15, 25, 35, 120)
    DENSE = 65

    @pytest.mark.parametrize("i", ROWS)
    def test_first_dense_sign_change_is_the_event(self, i):
        for j in self.COLS:
            state0 = isosceles_state(ShootingParams(0.75, float(Y0_AXIS[i]),
                                                    float(V_AXIS[j])))
            t_f, _, seg = integrate_to_collinear(state0, LJ, CFG)
            positive = collinearity(state0) > 0.0
            for k, interp in enumerate(seg.interpolants):
                ts = np.linspace(interp.t_old, interp.t_old + interp.h, self.DENSE)
                c = collinearity(interp(ts))
                flips = np.nonzero((c == 0.0) | ((c > 0.0) != positive))[0]
                if flips.size:
                    break
            assert k == len(seg.interpolants) - 1, (i, j, k)
            assert ts[flips[0] - 1] <= t_f <= ts[flips[0]], (i, j)
