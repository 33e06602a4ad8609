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
three bodies bit for bit. Curvature evaluates the integrator's
right-hand side, the package's one force law, on all samples at once.
"""

import math
from dataclasses import dataclass

import numpy as np

# accelerations stays bound for the hooks of perfbench/tracing.py
from .dynamics import (PotentialSpec, ThreeBodyState, accelerations,  # noqa: F401
                       isosceles_state, total_energy)
from .integrate import (IntegratorConfig, TrajectorySegment, integrate,
                        integrate_to_collinear, make_rhs)
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


def _bodies(y: np.ndarray):
    """(q, p), each of shape (3, n, 2), from flat states y of shape (12, n)."""
    return (y[:6].reshape(3, 2, -1).transpose(0, 2, 1),
            y[6:].reshape(3, 2, -1).transpose(0, 2, 1))


def _map_segment_eval(seg: TrajectorySegment, t0: float, block: int,
                      tau: np.ndarray):
    """Positions/velocities of all bodies on block*t0 + tau via the symmetry maps.

    tau must lie in [0, t0]; block in 0..3. The block fixes the source
    time, so one segment evaluation serves the three bodies; the
    permutation and sign flips are exact. Returns (q, p), each of shape
    (3, len(tau), 2).
    """
    reverse, src, qs, ps = _BLOCK_MAPS[block]
    q, p = _bodies(seg.eval_many(np.clip(t0 - tau if reverse else tau, 0.0, t0)))
    return q[src] * qs, p[src] * ps


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

    def state_at(self, t: float) -> ThreeBodyState:
        q, p = self.eval(t)
        return ThreeBodyState.from_array(t, np.concatenate([q.ravel(), p.ravel()]))

    def eval(self, t: float):
        """(q, p) with shape (3, 2) at arbitrary t, using the symmetry maps."""
        if self._segment is None:
            raise ValueError("orbit carries no dense segment; use the samples")
        t0 = self._t0
        tm = t % (12.0 * t0)
        shift, rem = divmod(tm, 4.0 * t0)
        block, tau = divmod(rem, t0)
        block = int(min(block, 3))
        tau = rem - block * t0
        shift = int(min(shift, 2))
        q, p = _map_segment_eval(self._segment, t0, block, np.array([tau]))
        src = [(i + shift) % 3 for i in range(3)]
        return q[src, 0], p[src, 0]

    def pair_distance_samples(self, i: int, j: int) -> np.ndarray:
        d = self.q[i] - self.q[j]
        return np.hypot(d[:, 0], d[:, 1])

    def pair_distance_at(self, i: int, j: int, t: float) -> float:
        q, _ = self.eval(t)
        return float(np.hypot(*(q[i] - q[j])))

    def to_csv(self, path, header_lines: tuple[str, ...] = ()):
        with open(path, "w") as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            fh.write("t,x0,y0,x1,y1,x2,y2,vx0,vy0,vx1,vy1,vx2,vy2\n")
            for k in range(self.n_samples):
                row = [self.t[k]]
                for i in range(3):
                    row += [self.q[i, k, 0], self.q[i, k, 1]]
                for i in range(3):
                    row += [self.p[i, k, 0], self.p[i, k, 1]]
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


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
    for block in range(4):
        sl = slice(block * n12, (block + 1) * n12)
        q[:, sl], p[:, sl] = _map_segment_eval(segment, t0, block, tau)
    third = 4 * n12
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


def integrate_full_orbit(state0: ThreeBodyState, spec: PotentialSpec,
                         cfg: IntegratorConfig, T: float,
                         n_samples: int = 2400) -> FullOrbit:
    """Directly integrate a full period; the symmetry-free reference orbit.

    The period is covered by a forward arc on [0, T/2] and a time-reversed
    arc for (T/2, T): these periodic orbits are strongly unstable, so a
    single forward arc amplifies the initial-condition error by many
    orders of magnitude before closing. The two arcs keep the whole
    comparison at integration accuracy while still using nothing but the
    equations of motion and the initial state.
    """
    if n_samples % 12 != 0:
        raise ValueError("n_samples must be divisible by 12")
    t = np.arange(n_samples) * (T / n_samples)
    half = 0.5 * T * (1.0 + 1e-9)
    seg_fwd = integrate(state0, spec, half, cfg)
    y_rev = state0.to_array()
    y_rev[6:] = -y_rev[6:]
    seg_bwd = integrate(ThreeBodyState.from_array(0.0, y_rev), spec, half, cfg)
    fwd = t <= 0.5 * T
    y = np.empty((12, n_samples))
    y[:, fwd] = seg_fwd.eval_many(t[fwd])
    y[:, ~fwd] = seg_bwd.eval_many(T - t[~fwd])
    y[6:, ~fwd] = -y[6:, ~fwd]
    q, p = _bodies(y)
    return FullOrbit(T=T, t=t, q=q, p=p)


def verify_choreography(orbit: FullOrbit, tol: float = 1e-6) -> float:
    """Sup-norm residual of q_{i+1}(t) = q_i(t + T/3) over the samples.

    Returns the residual; callers compare against tol.
    """
    n = orbit.n_samples
    if n % 3 != 0:
        raise ValueError("sample count must divide the one-third shift")
    shift = n // 3
    worst = 0.0
    for i in range(3):
        a = orbit.q[(i + 1) % 3]
        b = np.roll(orbit.q[i], -shift, axis=0)
        worst = max(worst, float(np.max(np.abs(a - b))))
    return worst


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


def _refine_crossing(orbit: FullOrbit, i: int, j: int, r0: float,
                     lo: float, hi: float, tol: float = 1e-10) -> float:
    """Bisect r_ij(t) - r0 to a bracket below tol in t."""
    flo = orbit.pair_distance_at(i, j, lo) - r0
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        fmid = orbit.pair_distance_at(i, j, mid) - r0
        if (flo <= 0.0) == (fmid <= 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _pair_intervals(orbit: FullOrbit, i: int, j: int, r0: float):
    """Collision intervals of one pair over [0, T) with the periodic wrap."""
    r = orbit.pair_distance_samples(i, j)
    below = r <= r0
    if not below.any():
        return []
    if below.all():
        raise ValueError(f"pair ({i},{j}) never leaves the repulsive core")
    n = orbit.n_samples
    dt = orbit.T / n
    refinable = orbit._segment is not None

    # entry at k: sample k-1 above, sample k at/below (cyclic)
    entries = [k for k in range(n) if below[k] and not below[k - 1]]
    intervals = []
    for k in entries:
        m = k
        while below[m % n]:
            m += 1
        # crossing times bracketed by the samples on each side
        t_in_lo, t_in_hi = (k - 1) * dt, k * dt
        t_out_lo, t_out_hi = (m - 1) * dt, m * dt
        if refinable:
            t_start = _refine_crossing(orbit, i, j, r0, t_in_lo, t_in_hi)
            t_end = _refine_crossing(orbit, i, j, r0, t_out_lo, t_out_hi)
        else:
            t_start = t_in_lo + dt * _linear_frac(r[(k - 1) % n] - r0, r[k % n] - r0)
            t_end = t_out_lo + dt * _linear_frac(r[(m - 1) % n] - r0, r[m % n] - r0)
        # deepest approach inside the interval
        ks = np.arange(k, m) % n
        kmin = int(ks[np.argmin(r[ks])])
        t_min = kmin * dt
        r_min_val = float(r[kmin])
        if refinable:
            t_min, r_min_val = _refine_minimum(orbit, i, j,
                                               t_min - dt, t_min + dt)
        intervals.append(CollisionInterval(i=i, j=j, t_start=t_start,
                                           t_end=t_end, r_min_value=r_min_val,
                                           t_at_min=t_min % orbit.T))
    return intervals


def _linear_frac(fa: float, fb: float) -> float:
    return fa / (fa - fb) if fa != fb else 0.5


def _refine_minimum(orbit: FullOrbit, i: int, j: int, lo: float, hi: float,
                    tol: float = 1e-10):
    """Golden-section minimum of r_ij on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = orbit.pair_distance_at(i, j, c)
    fd = orbit.pair_distance_at(i, j, d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = orbit.pair_distance_at(i, j, c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = orbit.pair_distance_at(i, j, d)
    tm = 0.5 * (a + b)
    return tm % orbit.T, orbit.pair_distance_at(i, j, tm)


def _wrapped_overlap(a: CollisionInterval, b: CollisionInterval, T: float) -> bool:
    """Closed-interval overlap on the circle of circumference T."""

    def spans(iv):
        s, e = iv.t_start % T, iv.t_end % T
        if e >= s:
            return [(s, e)]
        return [(s, T), (0.0, e)]

    for s1, e1 in spans(a):
        for s2, e2 in spans(b):
            if s1 <= e2 and s2 <= e1:
                return True
    return False


def collision_report(orbit: FullOrbit, spec: PotentialSpec) -> CollisionReport:
    """Count repulsive-core passages: intervals with r_ij <= r_min of u."""
    r0 = spec.r_min
    if r0 is None:
        raise ValueError(f"potential kind {spec.kind!r} has no finite minimum; "
                         "collision counting is undefined")
    n_ij = np.zeros((3, 3), dtype=int)
    intervals = []
    for i in range(3):
        for j in range(i + 1, 3):
            ivs = _pair_intervals(orbit, i, j, r0)
            n_ij[i, j] = n_ij[j, i] = len(ivs)
            intervals.extend(ivs)
    simultaneous = []
    iv01 = [iv for iv in intervals if (iv.i, iv.j) == (0, 1)]
    iv02 = [iv for iv in intervals if (iv.i, iv.j) == (0, 2)]
    for a in iv01:
        for b in iv02:
            if _wrapped_overlap(a, b, orbit.T):
                simultaneous.append((a, b))
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
    y = np.concatenate([orbit.q, orbit.p]).transpose(0, 2, 1).reshape(12, -1)
    f = make_rhs(spec)(orbit.t, y)
    vx, vy, ax, ay = f[0], f[1], f[6], f[7]
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
    energies = np.array([
        total_energy(orbit.state_at(float(t)), spec)
        for t in orbit.t[:: max(1, orbit.n_samples // 48)]
    ])
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

