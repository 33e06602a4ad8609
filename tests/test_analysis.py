"""Orbit reconstruction, choreography checks, collisions, curvature, extrema."""

import math
from bisect import bisect_right

import numpy as np
import pytest
from scipy.spatial import cKDTree

from fig8.dynamics import (PotentialSpec, ShootingParams, accelerations,
                           isosceles_state, pair_force, pair_potential,
                           total_energy)
from fig8.integrate import IntegratorConfig, integrate_to_collinear
from fig8.shooting import newton_solve, record_from_params
from fig8.analysis import (_BLOCK_MAPS, CollisionInterval, CollisionReport,
                           FullOrbit, _wrapped_overlap, build_full_orbit,
                           collision_count, collision_report,
                           configuration_energy_extrema, curvature_profile,
                           integrate_full_orbit, orbit_from_record,
                           orbit_summary, verify_choreography)

LJ = PotentialSpec.lj()
H6 = PotentialSpec.homogeneous(6)
CFG = IntegratorConfig()
R_MIN = 2.0 ** (1.0 / 6.0)


@pytest.fixture(scope="module")
def alpha_record():
    return newton_solve(ShootingParams(0.75, 0.73, 0.52), LJ, CFG, tol=1e-13)


@pytest.fixture(scope="module")
def alpha_orbit(alpha_record):
    return orbit_from_record(alpha_record, CFG)


@pytest.fixture(scope="module")
def beta_record():
    return record_from_params(ShootingParams(0.726, 0.766265, 0.302694), LJ, CFG)


@pytest.fixture(scope="module")
def beta_orbit(beta_record):
    return orbit_from_record(beta_record, CFG)


@pytest.fixture(scope="module")
def alpha_lower_orbit():
    return orbit_from_record(
        record_from_params(ShootingParams(0.75, 0.553223, 0.615805), LJ, CFG), CFG)


@pytest.fixture(scope="module")
def epsilon_orbit():
    return orbit_from_record(
        record_from_params(ShootingParams(0.91, 0.803912, 0.0857343), LJ, CFG), CFG)


# -- scalar reference: one time, one block map, one step interpolant ---------

def scalar_orbit_eval(orbit, t):
    t0 = orbit._t0
    shift, rem = divmod(t % (12.0 * t0), 4.0 * t0)
    block = int(min(rem // t0, 3))
    tau = rem - block * t0
    reverse, src, qs, ps = _BLOCK_MAPS[block]
    s = min(max(t0 - tau if reverse else tau, 0.0), t0)
    seg = orbit._segment
    k = min(max(bisect_right(seg.ts, s) - 1, 0), len(seg.interpolants) - 1)
    y = seg.interpolants[k](s)
    body = [(i + int(min(shift, 2))) % 3 for i in range(3)]
    return (y[:6].reshape(3, 2)[src] * qs)[body], (y[6:].reshape(3, 2)[src] * ps)[body]


def scalar_pair_distance(orbit, i, j, t):
    q, _ = scalar_orbit_eval(orbit, t)
    return float(np.hypot(*(q[i] - q[j])))


def scalar_pair_approach(orbit, i, j, t):
    """(q_i - q_j).(p_i - p_j): half of d(r_ij^2)/dt."""
    q, p = scalar_orbit_eval(orbit, t)
    d, v = q[i] - q[j], p[i] - p[j]
    return float(d[0] * v[0] + d[1] * v[1])


def bisect(f, lo, hi, tol=1e-10):
    """Bisect the sign change of f to a bracket below tol in t."""
    flo = f(lo)
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if (flo <= 0.0) == (fmid <= 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def refine_crossing(orbit, i, j, r0, lo, hi):
    """Bisect r_ij(t) - r0 to a bracket below 1e-10 in t."""
    return bisect(lambda t: scalar_pair_distance(orbit, i, j, t) - r0, lo, hi)


def refine_minimum(orbit, i, j, lo, hi):
    """Minimum of r_ij on [lo, hi]: bisect d(r_ij^2)/dt to a bracket below
    1e-10 in t."""
    tm = bisect(lambda t: scalar_pair_approach(orbit, i, j, t), lo, hi)
    return tm % orbit.T, scalar_pair_distance(orbit, i, j, tm)


def reference_pair_intervals(orbit, i, j, r0):
    """Collision intervals of one pair, one interval and one time at a time."""
    r = orbit.pair_distance_samples(i, j)
    below = r <= r0
    n = orbit.n_samples
    dt = orbit.T / n
    intervals = []
    for k in [k for k in range(n) if below[k] and not below[k - 1]]:
        m = k
        while below[m % n]:
            m += 1
        t_start = refine_crossing(orbit, i, j, r0, (k - 1) * dt, k * dt)
        t_end = refine_crossing(orbit, i, j, r0, (m - 1) * dt, m * dt)
        ks = np.arange(k, m) % n
        t_min = int(ks[np.argmin(r[ks])]) * dt
        t_min, r_min = refine_minimum(orbit, i, j, t_min - dt, t_min + dt)
        intervals.append(CollisionInterval(i, j, t_start, t_end, r_min, t_min % orbit.T))
    return intervals


def reference_collision_report(orbit, spec):
    n_ij = np.zeros((3, 3), dtype=int)
    intervals = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        ivs = reference_pair_intervals(orbit, i, j, spec.r_min)
        n_ij[i, j] = n_ij[j, i] = len(ivs)
        intervals += ivs
    simultaneous = [(a, b) for a in intervals if (a.i, a.j) == (0, 1)
                    for b in intervals if (b.i, b.j) == (0, 2)
                    and _wrapped_overlap(a, b, orbit.T)]
    return CollisionReport(n_ij=n_ij, intervals=intervals, simultaneous=simultaneous)


class TestFullOrbitEval:
    def test_array_evaluator_equals_eval_bit_for_bit(self, beta_orbit):
        T, t0 = beta_orbit.T, beta_orbit._t0
        rng = np.random.default_rng(13)
        ts = np.concatenate([rng.uniform(0.0, 1.5 * T, 200),
                             np.arange(19) * t0, [T]])
        q, p = beta_orbit.eval_many(ts)
        assert q.shape == p.shape == (3, ts.size, 2)
        for k, t in enumerate(ts.tolist()):
            qs, ps = beta_orbit.eval(t)
            qr, pr = scalar_orbit_eval(beta_orbit, t)
            assert q[:, k].tolist() == qs.tolist() == qr.tolist()
            assert p[:, k].tolist() == ps.tolist() == pr.tolist()


class TestBuildFullOrbit:
    def test_sample_count_must_divide_twelve(self, alpha_record):
        state0 = isosceles_state(alpha_record.params)
        t_f, _, seg = integrate_to_collinear(state0, LJ, CFG)
        with pytest.raises(ValueError):
            build_full_orbit(seg, t_f, n_samples=1000)

    def test_segment_event_mismatch_rejected(self, alpha_record):
        state0 = isosceles_state(alpha_record.params)
        t_f, _, seg = integrate_to_collinear(state0, LJ, CFG)
        with pytest.raises(ValueError):
            build_full_orbit(seg, 2.0 * t_f, n_samples=2400)

    def test_closure(self, alpha_orbit):
        q0, _ = alpha_orbit.eval(alpha_orbit.T)
        assert np.max(np.abs(q0 - alpha_orbit.q[:, 0])) < 1e-9

    def test_one_sixth_is_mirrored_launch_triangle(self, alpha_orbit, alpha_record):
        # two twelfths in, the configuration is the x-mirrored launch
        # triangle with bodies relabeled
        n12 = alpha_orbit.n_samples // 12
        q = alpha_orbit.q[:, 2 * n12]
        start = isosceles_state(alpha_record.params)
        perm = (2, 0, 1)
        for i in range(3):
            src = start[2 * perm[i]:2 * perm[i] + 2]
            assert q[i, 0] == pytest.approx(-src[0], abs=1e-9)
            assert q[i, 1] == pytest.approx(src[1], abs=1e-9)

    def test_passes_through_origin(self, alpha_orbit):
        n12 = alpha_orbit.n_samples // 12
        assert np.linalg.norm(alpha_orbit.q[0, n12]) < 1e-9

    def test_max_x_is_twice_x0(self, alpha_orbit, alpha_record):
        assert alpha_orbit.q[:, :, 0].max() == pytest.approx(
            2.0 * alpha_record.params.x0, abs=1e-6)

    def test_energy_constant_on_assembled_orbit(self, alpha_orbit, alpha_record):
        E = [total_energy(np.concatenate([q.ravel(), p.ravel()]), LJ)
             for q, p in map(alpha_orbit.eval, alpha_orbit.t[::60])]
        assert max(E) - min(E) <= 1e-8 * (1.0 + abs(alpha_record.E))

    def test_mirror_symmetry_of_the_point_set(self, alpha_orbit):
        pts = alpha_orbit.q.reshape(-1, 2)
        tree = cKDTree(pts)
        for reflected in (pts * [-1.0, 1.0], pts * [1.0, -1.0]):
            dist, _ = tree.query(reflected, k=1)
            assert dist.max() < 1e-6

    def test_overlap_with_direct_integration(self, alpha_orbit, alpha_record):
        direct = integrate_full_orbit(isosceles_state(alpha_record.params), LJ,
                                      CFG, alpha_record.T)
        assert float(np.max(np.abs(alpha_orbit.q - direct.q))) <= 1e-6
        assert float(np.max(np.abs(alpha_orbit.p - direct.p))) <= 1e-6


class TestVerifyChoreography:
    def test_assembled_orbit_is_exactly_choreographic(self, alpha_orbit):
        assert verify_choreography(alpha_orbit) <= 1e-12

    def test_direct_orbit_choreography(self, alpha_record):
        direct = integrate_full_orbit(isosceles_state(alpha_record.params), LJ,
                                      CFG, alpha_record.T)
        assert verify_choreography(direct) <= 1e-6

    def test_negative_control(self):
        # a perturbed launch is not a solution and not a choreography
        params = ShootingParams(0.75, 0.78, 0.52)
        t_f, _, _ = integrate_to_collinear(isosceles_state(params), LJ, CFG)
        direct = integrate_full_orbit(isosceles_state(params), LJ, CFG,
                                      12.0 * t_f)
        assert verify_choreography(direct) > 1e-3

    def test_shift_direction_symmetry(self, alpha_orbit):
        # checking q_{i+1}(t) = q_i(t + T/3) is the same relation as
        # q_i(t) = q_{i+1}(t - T/3); the sampled residual must agree
        n = alpha_orbit.n_samples
        shift = n // 3
        worst = 0.0
        for i in range(3):
            a = alpha_orbit.q[i]
            b = np.roll(alpha_orbit.q[(i + 1) % 3], shift, axis=0)
            worst = max(worst, float(np.max(np.abs(a - b))))
        assert worst == pytest.approx(verify_choreography(alpha_orbit), abs=1e-12)


class TestCollisions:
    def test_beta_counts(self, beta_orbit):
        rep = collision_report(beta_orbit, LJ)
        assert rep.n_ij[0, 1] == 4
        assert rep.n_ij[0, 2] == 4
        assert rep.n0 == 8
        assert rep.per_body() == (8, 8, 8)

    def test_alpha_upper_no_collisions(self, alpha_orbit):
        assert collision_report(alpha_orbit, LJ).n0 == 0

    def test_alpha_lower_counts(self):
        rec = record_from_params(ShootingParams(0.75, 0.553223, 0.615805), LJ, CFG)
        assert collision_count(rec, CFG) == 4

    def test_gamma_simultaneous_at_euler_passages(self):
        rec = record_from_params(ShootingParams(0.8, 1.136739, 0.0749665), LJ, CFG)
        orbit = orbit_from_record(rec, CFG)
        rep = collision_report(orbit, LJ)
        assert rep.n0 == 8
        assert len(rep.simultaneous) == 2
        phases = sorted(
            (0.5 * (max(a.t_start, b.t_start) + min(a.t_end, b.t_end)))
            / orbit.T * 12.0
            for a, b in rep.simultaneous)
        assert phases[0] == pytest.approx(1.0, abs=0.05)
        assert phases[1] == pytest.approx(7.0, abs=0.05)

    def test_intervals_are_genuine_core_passages(self, beta_orbit):
        rep = collision_report(beta_orbit, LJ)
        for iv in rep.intervals:
            assert iv.width > 0
            assert iv.r_min_value < R_MIN
            # endpoints sit on the threshold
            assert beta_orbit.pair_distance_at(iv.i, iv.j, iv.t_start) == \
                pytest.approx(R_MIN, abs=1e-6)

    @pytest.mark.parametrize("name, n_intervals", [
        ("beta_orbit", 12), ("epsilon_orbit", 36), ("alpha_lower_orbit", 6)])
    def test_lockstep_matches_scalar_refiners(self, request, name, n_intervals):
        orbit = request.getfixturevalue(name)
        rep = collision_report(orbit, LJ).to_json_dict()
        assert len(rep["intervals"]) == n_intervals
        assert rep == reference_collision_report(orbit, LJ).to_json_dict()

    def test_interval_wrapping_past_zero(self, alpha_lower_orbit):
        # on the lower alpha family, bodies 0 and 2 are deepest in the core
        # at t = 0: that interval enters before T, exits past it, and its
        # minimum is reported mod T
        T = alpha_lower_orbit.T
        rep = collision_report(alpha_lower_orbit, LJ)
        wrapped = [iv for iv in rep.intervals if iv.t_end > T]
        assert [(iv.i, iv.j) for iv in wrapped] == [(0, 2)]
        assert 0.0 < wrapped[0].t_start < T
        assert min(wrapped[0].t_at_min, T - wrapped[0].t_at_min) <= 1e-10

    def test_unsupported_potential_rejected(self, alpha_orbit):
        with pytest.raises(ValueError):
            collision_report(alpha_orbit, H6)

    def test_orbit_without_dense_segment_rejected(self, beta_record):
        # a directly integrated orbit has samples only; nothing to refine on
        direct = integrate_full_orbit(isosceles_state(beta_record.params), LJ,
                                      CFG, beta_record.T, n_samples=240)
        with pytest.raises(ValueError, match="dense segment"):
            collision_report(direct, LJ)


class TestCurvature:
    def test_uniform_circular_motion(self):
        # rotating-triangle relative equilibrium: pair attraction supplies
        # exactly the centripetal force, so path curvature is 1/R
        side = 1.5
        R = side / math.sqrt(3.0)
        f_pair = pair_force((side, 0.0), LJ)[0]  # negative: attraction
        F_central = math.sqrt(3.0) * abs(f_pair)
        v = math.sqrt(F_central * R)
        n = 24
        t = np.arange(n) * (2 * math.pi / n)
        q = np.empty((3, n, 2))
        p = np.empty((3, n, 2))
        for i in range(3):
            ang = t + 2 * math.pi * i / 3
            q[i, :, 0] = R * np.cos(ang)
            q[i, :, 1] = R * np.sin(ang)
            p[i, :, 0] = -v * np.sin(ang)
            p[i, :, 1] = v * np.cos(ang)
        orbit = FullOrbit(T=2 * math.pi, t=t, q=q, p=p)
        kap = curvature_profile(orbit, LJ)
        assert np.allclose(kap[:, 1], 1.0 / R, rtol=1e-9)

    def test_beta_peaks_inside_collision_intervals(self, beta_orbit):
        rep = collision_report(beta_orbit, LJ)
        kap = curvature_profile(beta_orbit, LJ)
        intervals = [(iv.t_start, iv.t_end) for iv in rep.intervals
                     if 0 in (iv.i, iv.j)]

        def inside(t):
            return any((a <= t <= b) or (a > b and (t >= a or t <= b))
                       for a, b in intervals)

        top = np.argsort(kap[:, 1])[-20:]
        assert all(inside(float(kap[k, 0])) for k in top)

    def test_gamma_origin_passage_is_smooth(self):
        rec = record_from_params(ShootingParams(0.8, 1.136739, 0.0749665), LJ, CFG)
        orbit = orbit_from_record(rec, CFG)
        kap = curvature_profile(orbit, LJ)
        k = kap[:, 1]
        near_passage = np.abs(kap[:, 0] - orbit.T / 12.0) < orbit.T / 100.0
        assert np.nanmax(k) > 20.0
        assert np.nanmax(k[near_passage]) < 1.0

    def test_zero_speed_sample_reported_absent(self):
        n = 12
        t = np.arange(n) * (1.0 / n)
        q = np.zeros((3, n, 2))
        q[0, :, 0] = 2.0
        q[1, :, 0] = -2.0
        q[2, :, 1] = 2.0
        p = np.zeros((3, n, 2))  # body 0 at rest: curvature undefined
        orbit = FullOrbit(T=1.0, t=t, q=q, p=p)
        kap = curvature_profile(orbit, LJ)
        assert np.isnan(kap[:, 1]).all()


    @pytest.mark.parametrize("spec", [
        LJ, H6, PotentialSpec.lj(10, 4), PotentialSpec.homogeneous(4),
        PotentialSpec.morse(2.0, 1.1), PotentialSpec.buckingham(),
        PotentialSpec.screened_coulomb(1.5),
    ], ids=lambda s: s.kind)
    def test_matches_per_sample_oracle(self, spec):
        # a breathing, rotating triangle with arbitrary velocities; body 0
        # rests at the first sample
        n = 48
        t = np.arange(n) * (1.0 / n)
        q = np.empty((3, n, 2))
        p = np.empty((3, n, 2))
        for i in range(3):
            ang = 2 * math.pi * (t + i / 3)
            rad = 0.8 + 0.2 * np.sin(2 * math.pi * t * (i + 1))
            q[i, :, 0] = rad * np.cos(ang)
            q[i, :, 1] = rad * np.sin(ang)
            p[i, :, 0] = np.cos(3 * ang + i)
            p[i, :, 1] = 0.5 * np.sin(ang - i)
        p[0, 0] = 0.0
        kap = curvature_profile(FullOrbit(T=1.0, t=t, q=q, p=p), spec)

        oracle = np.empty(n)
        for k in range(n):
            state = np.concatenate([q[:, k].ravel(), p[:, k].ravel()])
            (ax, ay), (vx, vy) = accelerations(state, spec)[:2], p[0, k]
            speed = math.hypot(vx, vy)
            oracle[k] = abs(vx * ay - vy * ax) / speed ** 3 if speed > 0 else math.nan
        assert kap[:, 0].tolist() == t.tolist()
        at_rest = [True] + [False] * (n - 1)
        assert np.isnan(oracle).tolist() == at_rest
        assert np.isnan(kap[:, 1]).tolist() == at_rest
        assert np.nanmax(np.abs(kap[:, 1] - oracle)) <= 1e-12 * np.nanmax(oracle)


class TestConfigurationExtrema:
    def test_closed_forms(self):
        ext = configuration_energy_extrema(LJ)
        assert ext.isosceles_min == pytest.approx(-0.75, abs=1e-12)
        assert ext.isosceles_at[1] == pytest.approx(R_MIN / 2.0, rel=1e-12)
        assert ext.isosceles_at[0] == pytest.approx(R_MIN / (2 * math.sqrt(3.0)),
                                                    rel=1e-12)
        assert ext.euler_min == pytest.approx(-5547.0 / 10924.0, abs=1e-12)
        assert ext.euler_r == pytest.approx((2731.0 / 1376.0) ** (1.0 / 6.0),
                                            rel=1e-12)

    def test_against_golden_section_oracle(self):
        invphi = (math.sqrt(5.0) - 1.0) / 2.0

        def f(r):
            return 2.0 * pair_potential(r, LJ) + pair_potential(2.0 * r, LJ)

        a, b = 0.9, 1.5
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        while b - a > 1e-13:
            if f(c) < f(d):
                b, d = d, c
                c = b - invphi * (b - a)
            else:
                a, c = c, d
                d = a + invphi * (b - a)
        r_star = 0.5 * (a + b)
        ext = configuration_energy_extrema(LJ)
        assert ext.euler_min == pytest.approx(f(r_star), abs=1e-9)
        assert ext.euler_r == pytest.approx(r_star, abs=1e-6)

    def test_unsupported_potential(self):
        with pytest.raises(ValueError):
            configuration_energy_extrema(H6)


class TestExports:
    def test_orbit_csv(self, alpha_orbit, tmp_path):
        path = tmp_path / "orbit.csv"
        alpha_orbit.to_csv(path, header_lines=("record: {}",))
        lines = path.read_text().splitlines()
        assert lines[1].startswith("t,x0,y0")
        assert len(lines) == 2 + alpha_orbit.n_samples

    def test_summary(self, alpha_orbit):
        s = orbit_summary(alpha_orbit, LJ)
        assert s["n0"] == 0
        assert s["choreography_residual"] <= 1e-9
        assert s["E_spread"] <= 1e-9
        assert s["r_extrema"]["r01"][0] > 1.0
        assert "curvature_max" in s
