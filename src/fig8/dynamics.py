"""Planar three-body geometry, pair potentials, forces, and conserved quantities.

Units are nondimensional throughout: unit masses, unit potential
coefficients, so momentum equals velocity. All types are immutable
values and every function is pure, so everything here is safe to call
concurrently.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Vec2",
    "PotentialSpec",
    "ThreeBodyState",
    "ShootingParams",
    "pair_potential",
    "pair_force",
    "accelerations",
    "total_energy",
    "potential_energy",
    "kinetic_energy",
    "angular_momentum",
    "linear_momentum",
    "center_of_mass",
    "isosceles_state",
]


@dataclass(frozen=True)
class Vec2:
    """Planar vector. Components must be finite."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite Vec2 components ({self.x}, {self.y})")

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, s: float) -> "Vec2":
        return Vec2(self.x * s, self.y * s)

    __rmul__ = __mul__

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> float:
        """Scalar (z-component of the) 2-D cross product."""
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


_KINDS = ("lj", "homogeneous", "morse", "buckingham", "screened_coulomb")


@dataclass(frozen=True)
class PotentialSpec:
    """Pair potential u(r) selecting one of several standard families.

    kind "lj":               u(r) = r^-b - r^-a        (default b=12, a=6)
    kind "homogeneous":      u(r) = -r^-a
    kind "morse":            u(r) = (1 - exp(-a (r - r0)))^2
    kind "buckingham":       u(r) = exp(-r) - r^-6
    kind "screened_coulomb": u(r) = -exp(-a r) / r

    Only the "lj" and "homogeneous" families carry quantitative targets;
    the others are provided as formula plug-ins.
    """

    kind: str = "lj"
    a: float | None = 6.0
    b: float | None = 12.0
    r0: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "lj":
            if self.a is None or self.b is None or self.a <= 0 or self.b <= 0:
                raise ValueError("lj potential needs positive exponents b, a")
            if self.b <= self.a:
                raise ValueError("lj potential needs b > a")
            if self.b == 12.0 and self.a == 6.0:
                # sanity anchors of the standard well: u(2^(1/6)) = -1/4, u(1) = 0
                rm = 2.0 ** (1.0 / 6.0)
                if abs(self.u(rm) + 0.25) > 1e-12 or abs(self.u(1.0)) > 1e-12:
                    raise AssertionError("lj(12,6) well identities violated")
        elif self.kind in ("homogeneous", "screened_coulomb"):
            if self.a is None or self.a <= 0:
                raise ValueError(f"{self.kind} potential needs positive exponent a")
        elif self.kind == "morse":
            if self.a is None or self.a <= 0 or self.r0 is None or self.r0 <= 0:
                raise ValueError("morse potential needs positive a and r0")

    # -- constructors -------------------------------------------------

    @classmethod
    def lj(cls, b: float = 12.0, a: float = 6.0) -> "PotentialSpec":
        return cls(kind="lj", a=a, b=b)

    @classmethod
    def homogeneous(cls, a: float) -> "PotentialSpec":
        return cls(kind="homogeneous", a=a, b=None)

    @classmethod
    def morse(cls, a: float, r0: float) -> "PotentialSpec":
        return cls(kind="morse", a=a, b=None, r0=r0)

    @classmethod
    def buckingham(cls) -> "PotentialSpec":
        return cls(kind="buckingham", a=None, b=None)

    @classmethod
    def screened_coulomb(cls, a: float) -> "PotentialSpec":
        return cls(kind="screened_coulomb", a=a, b=None)

    # -- the potential and its radial derivative ----------------------

    def u(self, r: float) -> float:
        if self.kind == "lj":
            return r ** -self.b - r ** -self.a
        if self.kind == "homogeneous":
            return -(r ** -self.a)
        if self.kind == "morse":
            return (1.0 - math.exp(-self.a * (r - self.r0))) ** 2
        if self.kind == "buckingham":
            return math.exp(-r) - r ** -6.0
        return -math.exp(-self.a * r) / r

    def du(self, r):
        """Radial derivative u'(r), for a float or a numpy array r."""
        if self.kind == "lj":
            return -self.b * r ** (-self.b - 1.0) + self.a * r ** (-self.a - 1.0)
        if self.kind == "homogeneous":
            return self.a * r ** (-self.a - 1.0)
        if self.kind == "morse":
            e = np.exp(-self.a * (r - self.r0))
            return 2.0 * self.a * e * (1.0 - e)
        if self.kind == "buckingham":
            return -np.exp(-r) + 6.0 * r ** -7.0
        e = np.exp(-self.a * r)
        return e * (self.a * r + 1.0) / (r * r)

    # -- derived constants ---------------------------------------------

    @property
    def r_min(self) -> float | None:
        """Location of the potential minimum, None when u is unbounded below."""
        if self.kind == "lj":
            return (self.b / self.a) ** (1.0 / (self.b - self.a))
        if self.kind == "morse":
            return self.r0
        return None

    @property
    def r_zero(self) -> float | None:
        """Smallest positive zero of u, None when u never vanishes."""
        if self.kind == "lj":
            return 1.0
        if self.kind == "morse":
            return self.r0
        if self.kind == "buckingham":
            from scipy.optimize import brentq

            return float(brentq(self.u, 1.0, 2.0, xtol=1e-14))
        return None

    # -- JSON wire format ----------------------------------------------

    def to_json_dict(self) -> dict:
        if self.kind == "lj":
            return {"kind": "lj", "b": self.b, "a": self.a}
        if self.kind == "homogeneous":
            return {"kind": "homogeneous", "a": self.a}
        if self.kind == "morse":
            return {"kind": "morse", "a": self.a, "r0": self.r0}
        if self.kind == "buckingham":
            return {"kind": "buckingham"}
        return {"kind": "screened_coulomb", "a": self.a}

    @classmethod
    def from_json_dict(cls, d: dict) -> "PotentialSpec":
        kind = d.get("kind")
        if kind == "lj":
            return cls.lj(b=float(d["b"]), a=float(d["a"]))
        if kind == "homogeneous":
            return cls.homogeneous(float(d["a"]))
        if kind == "morse":
            return cls.morse(float(d["a"]), float(d["r0"]))
        if kind == "buckingham":
            return cls.buckingham()
        if kind == "screened_coulomb":
            return cls.screened_coulomb(float(d["a"]))
        raise ValueError(f"unknown potential kind {kind!r}")


@dataclass(frozen=True)
class ThreeBodyState:
    """Instantaneous state: time, positions q[i], velocities p[i] (unit masses)."""

    t: float
    q: tuple[Vec2, Vec2, Vec2]
    p: tuple[Vec2, Vec2, Vec2]

    def __post_init__(self):
        for i in range(3):
            for j in range(i + 1, 3):
                if (self.q[i] - self.q[j]).norm() == 0.0:
                    raise ValueError(f"bodies {i} and {j} coincide")

    def to_array(self):
        q, p = self.q, self.p
        return np.array(
            [q[0].x, q[0].y, q[1].x, q[1].y, q[2].x, q[2].y,
             p[0].x, p[0].y, p[1].x, p[1].y, p[2].x, p[2].y]
        )

    @classmethod
    def from_array(cls, t: float, y) -> "ThreeBodyState":
        return cls(
            t=float(t),
            q=(Vec2(float(y[0]), float(y[1])),
               Vec2(float(y[2]), float(y[3])),
               Vec2(float(y[4]), float(y[5]))),
            p=(Vec2(float(y[6]), float(y[7])),
               Vec2(float(y[8]), float(y[9])),
               Vec2(float(y[10]), float(y[11]))),
        )


@dataclass(frozen=True)
class ShootingParams:
    """The (x0, y0, v) triple fixing the isosceles launch configuration."""

    x0: float
    y0: float
    v: float

    def __post_init__(self):
        # normalize numpy scalars so records serialize cleanly
        object.__setattr__(self, "x0", float(self.x0))
        object.__setattr__(self, "y0", float(self.y0))
        object.__setattr__(self, "v", float(self.v))
        if not (self.x0 > 0 and self.y0 > 0 and self.v > 0):
            raise ValueError(f"shooting parameters must be positive, got {self}")

    def __iter__(self):
        return iter((self.x0, self.y0, self.v))


def pair_potential(r: float, spec: PotentialSpec) -> float:
    """Pair potential energy u(r) at separation r > 0."""
    if r <= 0:
        raise ValueError(f"separation must be positive, got {r}")
    return spec.u(r)


def _pair_g(spec: PotentialSpec):
    """Force factor g(r^2) with force-on-i = g * (q_i - q_j), g = -u'(r)/r.

    The one force law of the package: `pair_force`, `accelerations` and
    the integrator's right-hand side all evaluate it. Every form takes a
    float or a numpy array of squared distances. Specialized closed forms
    for the quantitative families keep the hot loop in plain float
    arithmetic.
    """
    if spec.kind == "lj" and spec.b == 12.0 and spec.a == 6.0:

        def g(r2):
            s = 1.0 / r2
            s3 = s * s * s
            return s3 * s * (12.0 * s3 - 6.0)

        return g
    if spec.kind == "homogeneous" and spec.a == 6.0:

        def g(r2):
            s = 1.0 / r2
            return -6.0 * (s * s) * (s * s)

        return g
    du = spec.du

    def g(r2):
        r = np.sqrt(r2)
        return -du(r) / r

    return g


def pair_force(r_vec: Vec2, spec: PotentialSpec) -> Vec2:
    """Force on a body displaced by r_vec from its partner: -u'(|r_vec|) r_vec/|r_vec|."""
    r2 = r_vec.dot(r_vec)
    if r2 == 0.0:
        raise ValueError("zero displacement has no defined pair force")
    return r_vec * float(_pair_g(spec)(r2))


def accelerations(state: ThreeBodyState, spec: PotentialSpec) -> tuple[Vec2, Vec2, Vec2]:
    """Per-body accelerations from the pairwise forces. Sums to zero exactly up to rounding."""
    q = state.q
    f01 = pair_force(q[0] - q[1], spec)
    f02 = pair_force(q[0] - q[2], spec)
    f12 = pair_force(q[1] - q[2], spec)
    return (f01 + f02, -f01 + f12, -f02 - f12)


def potential_energy(state: ThreeBodyState, spec: PotentialSpec) -> float:
    q = state.q
    return (spec.u((q[0] - q[1]).norm())
            + spec.u((q[0] - q[2]).norm())
            + spec.u((q[1] - q[2]).norm()))


def kinetic_energy(state: ThreeBodyState) -> float:
    return 0.5 * sum(p.dot(p) for p in state.p)


def total_energy(state: ThreeBodyState, spec: PotentialSpec) -> float:
    """E = sum of kinetic energies plus pairwise potential energies."""
    return kinetic_energy(state) + potential_energy(state, spec)


def angular_momentum(state: ThreeBodyState) -> float:
    return sum(q.cross(p) for q, p in zip(state.q, state.p))


def linear_momentum(state: ThreeBodyState) -> Vec2:
    return state.p[0] + state.p[1] + state.p[2]


def center_of_mass(state: ThreeBodyState) -> Vec2:
    return (state.q[0] + state.q[1] + state.q[2]) * (1.0 / 3.0)


def isosceles_state(params: ShootingParams) -> ThreeBodyState:
    """Initial condition with bodies at (x0, y0), (-2 x0, 0), (x0, -y0).

    The two mirror bodies launch along the triangle edges with speed v,
    the axis body straight up; this choice makes total linear and
    angular momentum vanish identically, and v > 0 drives the left lobe
    clockwise.
    """
    x0, y0, v = params.x0, params.y0, params.v
    q0 = Vec2(x0, y0)
    q1 = Vec2(-2.0 * x0, 0.0)
    q2 = Vec2(x0, -y0)
    edge = math.hypot(3.0 * x0, y0)
    p0 = (q1 - q0) * (v / edge)
    p2 = (q2 - q1) * (v / edge)
    p1 = Vec2(0.0, 2.0 * v / math.sqrt(1.0 + (3.0 * x0 / y0) ** 2))
    return ThreeBodyState(t=0.0, q=(q0, q1, q2), p=(p0, p1, p2))
