"""Full-orbit reconstruction and diagnostics.

A converged solution is only ever integrated over the first twelfth of
its period, up to the collinear event. The full orbit follows from three
symmetry maps (point inversion with time reversal, x-mirror with body
permutation, y-mirror with time reversal) plus the equal-time-spacing
shift between bodies. This module assembles that orbit, checks the
choreography and mirror properties, counts collision intervals, and
computes curvature and configuration-energy diagnostics.

Everything works on arrays of flat states. Within one twelfth-period
block a map fixes the source time, and its body permutation and sign
flips are exact, so one array evaluation of the dense segment gives all
three bodies bit for bit; `FullOrbit.eval_many` does so at any times.
Collision counting refines all of an orbit's interval brackets together
on it, one array evaluation per round. Curvature evaluates
`accelerations`, the rows of the integrator's right-hand side, the
package's one force law, on all samples at once.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import PotentialSpec, accelerations, isosceles_state, total_energy
from .artifacts import write_csv
from .integrate import (STATE_CSV_COLUMNS, IntegratorConfig, TrajectorySegment,
                        integrate, integrate_to_collinear)
from .shooting import SolutionRecord

__all__ = [
    "FullOrbit",
    "CollisionInterval",
    "CollisionReport",
    "ConfigurationExtrema",
    "build_full_orbit",
    "orbit_from_record",
    "integrate_full_orbit",
    "verify_choreography",
    "collision_report",
    "collision_count",
    "curvature_profile",
    "configuration_energy_extrema",
]

# The symmetry map of each twelfth-period block: whether the source time
# runs backwards (t0 - tau), the source body of each body (subscripts
# mod 3), and the (x, y) signs of positions and of velocities.
_BLOCK_MAPS = (
    (False, [0, 1, 2], (1.0, 1.0), (1.0, 1.0)),
    # q_i(t + t0) = -q_{2i}(t0 - t); velocities carry over unreflected
    (True, [0, 2, 1], (-1.0, -1.0), (1.0, 1.0)),
    # q_i(t + 2 t0) = (-x_{i+2}(t), y_{i+2}(t))
    (False, [2, 0, 1], (-1.0, 1.0), (-1.0, 1.0)),
    # q_i(t + 3 t0) = (x_{2i+1}(t0 - t), -y_{2i+1}(t0 - t))
    (True, [1, 0, 2], (1.0, -1.0), (-1.0, 1.0)),
)
_REVERSE, _SOURCE, _Q_SIGNS, _P_SIGNS = (np.array(col) for col in zip(*_BLOCK_MAPS))


def _bodies(y: np.ndarray):
    """(q, p), each of shape (3, n, 2), from flat states y of shape (12, n)."""
    return (y[:6].reshape(3, 2, -1).transpose(0, 2, 1),
            y[6:].reshape(3, 2, -1).transpose(0, 2, 1))


def _flat(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Flat states of shape (12, n) from (q, p), each of shape (3, n, 2)."""
    return np.concatenate([q, p]).transpose(0, 2, 1).reshape(12, -1)


def _map_segment_eval(seg: TrajectorySegment, t0: float, block: np.ndarray,
                      tau: np.ndarray, shift=0):
    """(q, p), each (3, len(tau), 2), of all bodies at (4 shift + block) t0 + tau.

    tau lies in [0, t0]; block (0..3) and the one-third shift (0..2) are
    integers or arrays broadcast against it. One segment evaluation serves
    all bodies; the maps' body permutations and sign flips are exact.
    """
    q, p = _bodies(seg.eval_many(np.clip(np.where(_REVERSE[block], t0 - tau, tau),
                                         0.0, t0)))
    body = _SOURCE[block, (np.arange(3)[:, None] + shift) % 3]
    cols = np.arange(tau.size)
    return q[body, cols] * _Q_SIGNS[block], p[body, cols] * _P_SIGNS[block]


@dataclass
class FullOrbit:
    """Uniform dense sampling of all three bodies over one period.

    q and p have shape (3, n, 2); sample k sits at time k T / n with n
    divisible by 12 so the special configurations land on samples.
    An evaluation hook supports refinement at arbitrary times when the
    orbit was assembled from a dense segment.
    """

    T: float
    t: np.ndarray
    q: np.ndarray
    p: np.ndarray
    source: SolutionRecord | None = None
    _segment: TrajectorySegment | None = None
    _t0: float | None = None

    @property
    def n_samples(self) -> int:
        return self.t.size

    def eval(self, t: float):
        """(q, p) with shape (3, 2) at arbitrary t, using the symmetry maps."""
        q, p = self.eval_many([t])
        return q[:, 0], p[:, 0]

    def eval_many(self, t):
        """(q, p), each of shape (3, len(t), 2), at arbitrary times t; one
        segment evaluation serves them all."""
        if self._segment is None:
            raise ValueError("orbit carries no dense segment; use the samples")
        t0 = self._t0
        shift, rem = np.divmod(np.mod(np.asarray(t, dtype=float).ravel(), 12.0 * t0),
                               4.0 * t0)
        block = np.minimum(rem // t0, 3.0)
        return _map_segment_eval(self._segment, t0, block.astype(int), rem - block * t0,
                                 np.minimum(shift, 2.0).astype(int))

    def pair_distance_samples(self, i: int, j: int) -> np.ndarray:
        d = self.q[i] - self.q[j]
        return np.hypot(d[:, 0], d[:, 1])

    def pair_distance_at(self, i: int, j: int, t: float) -> float:
        q, _ = self.eval(t)
        return float(np.hypot(*(q[i] - q[j])))

    def to_csv(self, path, header_lines: tuple[str, ...] = ()):
        write_csv(path, header_lines, STATE_CSV_COLUMNS,
                  np.column_stack([self.t, *self.q, *self.p]).tolist())


def build_full_orbit(segment: TrajectorySegment, t_f: float,
                     n_samples: int = 2400,
                     source: SolutionRecord | None = None) -> FullOrbit:
    """Assemble the period-12*t_f orbit from the [0, t_f] segment.

    n_samples must be divisible by 12. The three symmetry maps extend the
    segment over the first third of the period and the equal-time-spacing
    shift fills in the remaining two thirds.
    """
    if n_samples % 12 != 0:
        raise ValueError("n_samples must be divisible by 12")
    if segment.t_end < t_f * (1.0 - 1e-12):
        raise ValueError("segment does not reach the collinear event")
    t0 = t_f
    T = 12.0 * t0
    n12 = n_samples // 12
    tau = np.arange(n12) * (t0 / n12)
    q = np.empty((3, n_samples, 2))
    p = np.empty((3, n_samples, 2))
    third = 4 * n12
    q[:, :third], p[:, :third] = _map_segment_eval(
        segment, t0, np.repeat(np.arange(4), n12), np.tile(tau, 4))
    q[:, third:2 * third] = q[[1, 2, 0], :third]
    p[:, third:2 * third] = p[[1, 2, 0], :third]
    q[:, 2 * third:] = q[[2, 0, 1], :third]
    p[:, 2 * third:] = p[[2, 0, 1], :third]
    t = np.arange(n_samples) * (T / n_samples)
    return FullOrbit(T=T, t=t, q=q, p=p, source=source,
                     _segment=segment, _t0=t0)


def orbit_from_record(record: SolutionRecord, cfg: IntegratorConfig,
                      n_samples: int = 2400) -> FullOrbit:
    """Re-integrate a converged solution and assemble its full orbit."""
    state0 = isosceles_state(record.params)
    t_f, _, segment = integrate_to_collinear(state0, record.potential, cfg)
    return build_full_orbit(segment, t_f, n_samples=n_samples, source=record)


def integrate_full_orbit(state0, spec: PotentialSpec,
                         cfg: IntegratorConfig, T: float,
                         n_samples: int = 2400) -> FullOrbit:
    """Directly integrate a full period; the symmetry-free reference orbit.

    The period is covered by a forward arc on [0, T/2] and a time-reversed
    arc for (T/2, T): these periodic orbits are strongly unstable, so a
    single forward arc amplifies the initial-condition error by many
    orders of magnitude before closing. The two arcs keep the whole
    comparison at integration accuracy while still using nothing but the
    equations of motion and the initial flat state.
    """
    if n_samples % 12 != 0:
        raise ValueError("n_samples must be divisible by 12")
    t = np.arange(n_samples) * (T / n_samples)
    half = 0.5 * T * (1.0 + 1e-9)
    seg_fwd = integrate(state0, spec, half, cfg)
    y_rev = np.array(state0, dtype=float)
    y_rev[6:] = -y_rev[6:]
    seg_bwd = integrate(y_rev, spec, half, cfg)
    fwd = t <= 0.5 * T
    y = np.empty((12, n_samples))
    y[:, fwd] = seg_fwd.eval_many(t[fwd])
    y[:, ~fwd] = seg_bwd.eval_many(T - t[~fwd])
    y[6:, ~fwd] = -y[6:, ~fwd]
    q, p = _bodies(y)
    return FullOrbit(T=T, t=t, q=q, p=p)


def verify_choreography(orbit: FullOrbit) -> float:
    """Sup-norm residual of q_{i+1}(t) = q_i(t + T/3) over the samples.

    Returns the residual; the caller picks the tolerance to compare it with.
    """
    n = orbit.n_samples
    if n % 3 != 0:
        raise ValueError("sample count must divide the one-third shift")
    return float(np.max(np.abs(orbit.q[[1, 2, 0]] - np.roll(orbit.q, -(n // 3), axis=1))))


@dataclass(frozen=True)
class CollisionInterval:
    """Maximal closed interval with the pair distance at or below r_min."""

    i: int
    j: int
    t_start: float
    t_end: float
    r_min_value: float
    t_at_min: float

    @property
    def width(self) -> float:
        return self.t_end - self.t_start


@dataclass
class CollisionReport:
    """Counts and intervals of repulsive-core passages over one period."""

    n_ij: np.ndarray            # 3x3 symmetric counts, zero diagonal
    intervals: list[CollisionInterval]
    simultaneous: list[tuple[CollisionInterval, CollisionInterval]]

    @property
    def n0(self) -> int:
        return int(self.n_ij[0, 1] + self.n_ij[0, 2])

    def per_body(self) -> tuple[int, int, int]:
        return tuple(int(self.n_ij[i].sum()) for i in range(3))

    def to_json_dict(self) -> dict:
        return {
            "n_ij": self.n_ij.tolist(),
            "n0": self.n0,
            "intervals": [
                {"i": iv.i, "j": iv.j, "t_start": iv.t_start, "t_end": iv.t_end,
                 "r_min_value": iv.r_min_value, "t_at_min": iv.t_at_min}
                for iv in self.intervals
            ],
            "simultaneous": [
                [{"i": a.i, "j": a.j, "t_start": a.t_start, "t_end": a.t_end},
                 {"i": b.i, "j": b.j, "t_start": b.t_start, "t_end": b.t_end}]
                for a, b in self.simultaneous
            ],
        }


def _pair_separations(orbit: FullOrbit, i: np.ndarray, j: np.ndarray,
                      t: np.ndarray):
    """(q_i - q_j, p_i - p_j), each (len(t), 2), at the times t, for the
    pairs (i[k], j[k]) of each time."""
    q, p = orbit.eval_many(t)
    cols = np.arange(t.size)
    return q[i, cols] - q[j, cols], p[i, cols] - p[j, cols]


def _pair_distances(orbit: FullOrbit, i, j, t) -> np.ndarray:
    """r_ij at the times t, for the pairs (i[k], j[k]) of each time."""
    d, _ = _pair_separations(orbit, i, j, t)
    return np.hypot(d[:, 0], d[:, 1])


def _pair_approach(orbit: FullOrbit, i, j, t) -> np.ndarray:
    """(q_i - q_j).(p_i - p_j), half of d(r_ij^2)/dt, at the times t."""
    d, v = _pair_separations(orbit, i, j, t)
    return d[:, 0] * v[:, 0] + d[:, 1] * v[:, 1]


def _bisect(f, i, j, lo: np.ndarray, hi: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Bisect the sign change of f(i, j, t) on all brackets [lo, hi] at once,
    each to a width below tol (200 halvings at most); one evaluation per
    round. f takes the pairs and times of the brackets still open."""
    flo = f(i, j, lo)
    for _ in range(200):
        if not (act := np.flatnonzero(hi - lo > tol)).size:
            break
        mid = 0.5 * (lo[act] + hi[act])
        fmid = f(i[act], j[act], mid)
        same = (flo[act] <= 0.0) == (fmid <= 0.0)
        lo[act[same]], flo[act[same]] = mid[same], fmid[same]
        hi[act[~same]] = mid[~same]
    return 0.5 * (lo + hi)


def _pair_brackets(orbit: FullOrbit, i: int, j: int, r0: float) -> list:
    """(k, m, k_min) per collision interval of one pair: its first sample in
    the core, the first sample after it (past n when the interval wraps past
    T) and its deepest sample (mod n)."""
    r = orbit.pair_distance_samples(i, j)
    below = r <= r0
    if below.all():
        raise ValueError(f"pair ({i},{j}) never leaves the repulsive core")
    n = orbit.n_samples
    exits = np.flatnonzero(~below & np.roll(below, 1))
    brackets = []
    for k in np.flatnonzero(below & ~np.roll(below, 1)).tolist():
        m = int(exits[np.searchsorted(exits, k) % exits.size])
        m += n if m < k else 0
        ks = np.arange(k, m) % n
        brackets.append((k, m, int(ks[np.argmin(r[ks])])))
    return brackets


def _wrapped_overlap(a: CollisionInterval, b: CollisionInterval, T: float) -> bool:
    """Closed-interval overlap on the circle of circumference T."""

    def spans(iv):
        s, e = iv.t_start % T, iv.t_end % T
        if e >= s:
            return [(s, e)]
        return [(s, T), (0.0, e)]

    return any(s1 <= e2 and s2 <= e1 for s1, e1 in spans(a) for s2, e2 in spans(b))


def collision_report(orbit: FullOrbit, spec: PotentialSpec) -> CollisionReport:
    """Count repulsive-core passages: intervals with r_ij <= r_min of u.

    Samples bracket every entry, exit and deepest approach of all pairs; one
    bisection of r_ij - r_min (crossings) and one of d(r_ij^2)/dt (minima)
    refine them all on the orbit's dense segment, with one array
    evaluation per round.
    """
    if orbit._segment is None:
        raise ValueError("collision_report needs an orbit with a dense segment")
    r0 = spec.r_min
    if r0 is None:
        raise ValueError(f"potential kind {spec.kind!r} has no finite minimum; "
                         "collision counting is undefined")
    n_ij = np.zeros((3, 3), dtype=int)
    rows = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        found = _pair_brackets(orbit, i, j, r0)
        n_ij[i, j] = n_ij[j, i] = len(found)
        rows += [(i, j, *b) for b in found]
    i, j, k, m, k_min = np.array(rows, dtype=int).reshape(-1, 5).T
    dt = orbit.T / orbit.n_samples
    km = np.concatenate([k, m])
    t_start, t_end = np.split(_bisect(
        lambda i, j, t: _pair_distances(orbit, i, j, t) - r0,
        np.tile(i, 2), np.tile(j, 2), (km - 1) * dt, km * dt), 2)
    tm = _bisect(lambda i, j, t: _pair_approach(orbit, i, j, t),
                 i, j, k_min * dt - dt, k_min * dt + dt)
    r_min = _pair_distances(orbit, i, j, tm)
    # twice: a tiny negative tm mods to T itself, and T to 0
    t_min = np.mod(np.mod(tm, orbit.T), orbit.T)
    intervals = [CollisionInterval(*iv) for iv in zip(
        *(a.tolist() for a in (i, j, t_start, t_end, r_min, t_min)))]
    simultaneous = [(a, b) for a in intervals for b in intervals
                    if (a.i, a.j, b.i, b.j) == (0, 1, 0, 2)
                    and _wrapped_overlap(a, b, orbit.T)]
    return CollisionReport(n_ij=n_ij, intervals=intervals,
                           simultaneous=simultaneous)


def collision_count(record: SolutionRecord, cfg: IntegratorConfig,
                    n_samples: int = 2400) -> int:
    """Per-body collision count for a converged solution."""
    orbit = orbit_from_record(record, cfg, n_samples=n_samples)
    return collision_report(orbit, record.potential).n0


def curvature_profile(orbit: FullOrbit, spec: PotentialSpec | None = None):
    """Curvature of body 0's path at each sample: |v x a| / |v|^3.

    Accelerations come from the equations of motion, evaluated on all
    samples at once, not from finite differences. Samples with vanishing
    speed yield NaN. Returns an (n, 2) array of (t, kappa).
    """
    if spec is None:
        if orbit.source is None:
            raise ValueError("need a potential to evaluate accelerations")
        spec = orbit.source.potential
    y = _flat(orbit.q, orbit.p)
    a = accelerations(y, spec)
    vx, vy, ax, ay = y[6], y[7], a[0], a[1]
    speed = np.hypot(vx, vy)
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.abs(vx * ay - vy * ax) / speed ** 3
    kappa[speed == 0] = np.nan
    return np.column_stack([orbit.t, kappa])


@dataclass(frozen=True)
class ConfigurationExtrema:
    """Closed-form potential-energy minima over the two special configurations."""

    isosceles_min: float
    isosceles_at: tuple[float, float]
    euler_min: float
    euler_r: float


def configuration_energy_extrema(spec: PotentialSpec) -> ConfigurationExtrema:
    """Minimum potential energy over isosceles and over symmetric collinear
    placements, in closed form (pair-potential families with a finite well).
    """
    if spec.kind != "lj":
        raise ValueError("configuration extrema implemented for the lj family only")
    b, a = spec.b, spec.a
    rm = spec.r_min
    # isosceles: all three pair distances can reach the well bottom at once
    iso_min = 3.0 * spec.u(rm)
    iso_at = (rm / (2.0 * math.sqrt(3.0)), rm / 2.0)
    # symmetric collinear placement (spacing r, outer pair 2r):
    # f(r) = 2 u(r) + u(2r) = A r^-b - B r^-a
    A = 2.0 + 2.0 ** -b
    B = 2.0 + 2.0 ** -a
    r_star = (b * A / (a * B)) ** (1.0 / (b - a))
    euler_min = A * r_star ** -b - B * r_star ** -a
    return ConfigurationExtrema(isosceles_min=iso_min, isosceles_at=iso_at,
                                euler_min=euler_min, euler_r=r_star)


def orbit_summary(orbit: FullOrbit, spec: PotentialSpec) -> dict:
    """Compact JSON-ready diagnostics for one orbit."""
    y = _flat(*orbit.eval_many(orbit.t[:: max(1, orbit.n_samples // 48)]))
    energies = np.array([total_energy(col, spec) for col in y.T.tolist()])
    summary = {
        "T": orbit.T,
        "E": float(energies.mean()),
        "E_spread": float(energies.max() - energies.min()),
        "choreography_residual": verify_choreography(orbit),
        "max_x": float(orbit.q[:, :, 0].max()),
        "r_extrema": {},
    }
    for i in range(3):
        for j in range(i + 1, 3):
            r = orbit.pair_distance_samples(i, j)
            summary["r_extrema"][f"r{i}{j}"] = [float(r.min()), float(r.max())]
    if spec.r_min is not None:
        rep = collision_report(orbit, spec)
        summary["n0"] = rep.n0
        summary["n_ij"] = rep.n_ij.tolist()
        summary["simultaneous_collisions"] = len(rep.simultaneous)
    kappa = curvature_profile(orbit, spec)
    finite = kappa[np.isfinite(kappa[:, 1])]
    if finite.size:
        kmax = finite[np.argmax(finite[:, 1])]
        summary["curvature_max"] = {"t": float(kmax[0]), "kappa": float(kmax[1])}
    return summary

