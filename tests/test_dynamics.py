"""Potentials, forces, conserved quantities, and the launch configuration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fig8.dynamics import (PotentialSpec, ShootingParams, accelerations,
                           angular_momentum, center_of_mass, isosceles_state,
                           kinetic_energy, linear_momentum, make_rhs,
                           pair_force, pair_potential, total_energy)

LJ = PotentialSpec.lj()
H6 = PotentialSpec.homogeneous(6)
R_MIN = 2.0 ** (1.0 / 6.0)

ALPHA = ShootingParams(0.75, 0.725966, 0.522742)


def fd_dudr(r, spec, h=1e-6):
    return (pair_potential(r + h, spec) - pair_potential(r - h, spec)) / (2 * h)


class TestPotentialSpec:
    def test_lj_well_constants(self):
        assert LJ.r_min == pytest.approx(R_MIN, abs=1e-15)
        assert LJ.r_zero == 1.0
        assert pair_potential(R_MIN, LJ) == pytest.approx(-0.25, abs=1e-15)

    def test_lj_zero_at_one(self):
        assert pair_potential(1.0, LJ) == 0.0

    def test_lj_unique_minimum_bracketed(self):
        # derivative changes sign exactly once across the well
        rs = np.linspace(0.9, 3.0, 400)
        signs = np.sign([LJ.du(r) for r in rs])
        flips = np.nonzero(np.diff(signs))[0]
        assert len(flips) == 1
        assert rs[flips[0]] < R_MIN < rs[flips[0] + 1]

    def test_homogeneous_value(self):
        assert pair_potential(1.0, H6) == -1.0

    def test_lj_requires_b_gt_a(self):
        with pytest.raises(ValueError):
            PotentialSpec.lj(b=6, a=12)

    def test_nonpositive_r_rejected(self):
        with pytest.raises(ValueError):
            pair_potential(0.0, LJ)
        with pytest.raises(ValueError):
            pair_potential(-1.0, H6)

    @pytest.mark.parametrize("spec", [
        PotentialSpec.lj(10, 4),
        PotentialSpec.morse(2.0, 1.1),
        PotentialSpec.buckingham(),
        PotentialSpec.screened_coulomb(1.5),
    ])
    def test_alternative_families_force_consistent(self, spec):
        for r in (0.9, 1.3, 2.2):
            assert spec.du(r) == pytest.approx(fd_dudr(r, spec), rel=1e-5)

    def test_morse_well_location(self):
        spec = PotentialSpec.morse(2.0, 1.3)
        assert spec.r_min == 1.3
        assert spec.u(1.3) == 0.0

    def test_buckingham_zero_crossing(self):
        spec = PotentialSpec.buckingham()
        rz = spec.r_zero
        assert spec.u(rz) == pytest.approx(0.0, abs=1e-12)
        assert spec.r_min is None

    def test_json_round_trip(self):
        for spec in (LJ, H6, PotentialSpec.lj(10, 4), PotentialSpec.morse(2, 1.1),
                     PotentialSpec.buckingham(), PotentialSpec.screened_coulomb(0.7)):
            again = PotentialSpec.from_json_dict(spec.to_json_dict())
            assert again == spec

    def test_json_wire_format(self):
        assert LJ.to_json_dict() == {"kind": "lj", "b": 12.0, "a": 6.0}
        assert H6.to_json_dict() == {"kind": "homogeneous", "a": 6.0}


class TestPairForce:
    def test_zero_at_well_bottom(self):
        f = pair_force((R_MIN, 0.0), LJ)
        assert abs(f[0]) < 1e-14 and f[1] == 0.0

    def test_homogeneous_attractive(self):
        f = pair_force((1.0, 0.0), H6)
        assert f[0] == pytest.approx(-6.0, abs=1e-12)
        assert f[1] == 0.0

    def test_repulsive_inside_core(self):
        # finite-difference oracle for the force magnitude at r = 0.9
        f = pair_force((0.9, 0.0), LJ)
        expected = 12.0 * 0.9 ** -13 - 6.0 * 0.9 ** -7
        assert f[0] > 0
        assert f[0] == pytest.approx(expected, rel=1e-12)
        assert f[0] == pytest.approx(-fd_dudr(0.9, LJ), rel=1e-6)

    def test_zero_displacement_rejected(self):
        with pytest.raises(ValueError):
            pair_force((0.0, 0.0), LJ)

    @settings(max_examples=60, deadline=None)
    @given(r=st.floats(0.8, 3.0), angle=st.floats(0.0, 2 * math.pi))
    def test_matches_potential_gradient(self, r, angle):
        d = np.array([r * math.cos(angle), r * math.sin(angle)])
        f = pair_force(d, LJ)
        expected = -fd_dudr(r, LJ)
        f_norm, d_norm = math.hypot(*f), math.hypot(*d)
        assert f_norm == pytest.approx(abs(expected), rel=1e-6, abs=1e-9)
        # central: force along +-d only
        assert abs(f[0] * d[1] - f[1] * d[0]) <= 1e-12 * max(1.0, f_norm * d_norm)


def equilateral_state(side):
    h = side * math.sqrt(3.0) / 2.0
    return np.array([-side / 2, -h / 3, side / 2, -h / 3, 0.0, 2 * h / 3,
                     0.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def norms(a):
    """Euclidean norms of the rows of a (..., 2) array."""
    return np.hypot(a[..., 0], a[..., 1])


class TestAccelerations:
    def test_equilateral_equilibrium(self):
        state = equilateral_state(R_MIN)
        assert accelerations(state, LJ).shape == (6,)
        for a in norms(accelerations(state, LJ).reshape(3, 2)):
            assert a < 1e-13

    def test_action_reaction(self):
        state = isosceles_state(ALPHA)
        a = accelerations(state, LJ).reshape(3, 2)
        total = a[0] + a[1] + a[2]
        biggest = norms(a).max()
        assert norms(total) <= 1e-12 * biggest

    @pytest.mark.parametrize("spec", [LJ, H6, PotentialSpec.morse(2.0, 1.1)],
                             ids=lambda s: s.kind)
    def test_rows_of_the_rhs_on_states_and_arrays(self, spec):
        rng = np.random.default_rng(7)
        y = rng.uniform(-0.6, 0.6, (12, 5))
        y[:6] += np.array([1.0, 0.0, -0.5, 0.9, -0.5, -0.9])[:, None]
        many = accelerations(y, spec)
        assert many.shape == (6, 5)
        assert many.tolist() == np.array(make_rhs(spec)(0.0, y)[6:]).tolist()
        for k in range(5):
            one = accelerations(y[:, k], spec)
            assert one.tolist() == np.array(make_rhs(spec)(0.0, y[:, k])[6:]).tolist()

    def test_matches_finite_difference_of_total_potential(self):
        state = isosceles_state(ShootingParams(0.75, 0.725966, 0.522742))
        acc = accelerations(state, LJ)
        h = 1e-6

        def U(flat):
            tot = 0.0
            for i in range(3):
                for j in range(i + 1, 3):
                    r = math.hypot(flat[2 * i] - flat[2 * j],
                                   flat[2 * i + 1] - flat[2 * j + 1])
                    tot += pair_potential(r, LJ)
            return tot

        flat = state[:6].tolist()
        for i in range(3):
            for c in range(2):
                up = list(flat)
                dn = list(flat)
                up[2 * i + c] += h
                dn[2 * i + c] -= h
                grad = (U(up) - U(dn)) / (2 * h)
                got = acc[2 * i + c]
                assert got == pytest.approx(-grad, rel=1e-6, abs=1e-8)


class TestEnergyAndMoments:
    def test_rest_equilateral_energy(self):
        state = equilateral_state(R_MIN)
        assert total_energy(state, LJ) == pytest.approx(-0.75, abs=1e-14)

    def test_rest_collinear_energy_closed_form(self):
        r = (2731.0 / 1376.0) ** (1.0 / 6.0)
        state = np.array([-r, 0.0, 0.0, 0.0, r, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert total_energy(state, LJ) == pytest.approx(-5547.0 / 10924.0,
                                                        abs=1e-14)

    def test_zero_energy_solution_launch(self):
        state = isosceles_state(ShootingParams(0.671188, 0.893818, 0.188131))
        assert abs(total_energy(state, LJ)) <= 1e-6

    def test_simple_angular_momentum(self):
        state = np.array([1, 0, -1, 0, 0, 1, 0, 1, 0, -1, 0, 0], dtype=float)
        assert angular_momentum(state) == 2.0

    def test_kinetic_energy(self):
        state = isosceles_state(ShootingParams(1.0, 1.0, 2.0))
        # the two edge launchers carry speed v each
        assert kinetic_energy(state) >= 0.5 * 2 * 2.0 ** 2


class TestIsoscelesState:
    def test_alpha_launch_moments(self):
        state = isosceles_state(ALPHA)
        assert norms(linear_momentum(state)) < 1e-15
        assert abs(angular_momentum(state)) < 1e-15
        assert norms(center_of_mass(state)) < 1e-15

    def test_edge_speeds_equal_v(self):
        p = ShootingParams(0.63, 1.21, 0.37)
        state = isosceles_state(p)
        assert norms(state[6:8]) == pytest.approx(p.v, rel=1e-15)
        assert norms(state[10:12]) == pytest.approx(p.v, rel=1e-15)

    def test_axis_body_velocity(self):
        state = isosceles_state(ShootingParams(1.0, 1.0, 1.0))
        assert state[8] == 0.0
        assert state[9] == pytest.approx(2.0 / math.sqrt(10.0), rel=1e-15)

    def test_geometry(self):
        state = isosceles_state(ShootingParams(0.8, 0.6, 0.3))
        assert state.shape == (12,) and state.dtype == np.float64
        assert state[:6].tolist() == [0.8, 0.6, -1.6, 0.0, 0.8, -0.6]

    @settings(max_examples=60, deadline=None)
    @given(x0=st.floats(0.1, 3.0), y0=st.floats(0.1, 3.0), v=st.floats(0.01, 2.0))
    def test_invariants_hold_everywhere(self, x0, y0, v):
        state = isosceles_state(ShootingParams(x0, y0, v))
        scale = max(1.0, v)
        assert norms(linear_momentum(state)) <= 1e-14 * scale
        assert abs(angular_momentum(state)) <= 1e-13 * scale * max(x0, y0)

    def test_positivity_enforced(self):
        for bad in ((0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0)):
            with pytest.raises(ValueError):
                ShootingParams(*bad)
