"""Planar three-body geometry, pair potentials, forces, and conserved quantities.

Units are nondimensional throughout: unit masses, unit potential
coefficients, so momentum equals velocity. A state is the flat 12-vector
y = (x0, y0, x1, y1, x2, y2, vx0, vy0, vx1, vy1, vx2, vy2) of positions
and velocities, the vector the integrator steps; where a function takes
several states, they are the columns of a (12, n) array. Every function
is pure, so everything here is safe to call concurrently.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PotentialSpec",
    "UnknownPotentialKind",
    "ShootingParams",
    "pair_potential",
    "pair_force",
    "make_rhs",
    "accelerations",
    "total_energy",
    "potential_energy",
    "kinetic_energy",
    "angular_momentum",
    "linear_momentum",
    "center_of_mass",
    "isosceles_state",
]


_KINDS = ("lj", "homogeneous")


class UnknownPotentialKind(ValueError):
    """A potential kind outside _KINDS; `kind` is the rejected name."""

    def __init__(self, kind):
        super().__init__(f"unknown potential kind {kind!r}; "
                         f"the kinds are {', '.join(_KINDS)}")
        self.kind = kind
        self.kinds = _KINDS


@dataclass(frozen=True)
class PotentialSpec:
    """Pair potential u(r), one of the two power-law families the paper
    compares.

    kind "lj":          u(r) = r^-b - r^-a        (default b=12, a=6)
    kind "homogeneous": u(r) = -r^-a

    Any other kind is rejected with UnknownPotentialKind, a ValueError
    naming these two.
    """

    kind: str = "lj"
    a: float | None = 6.0
    b: float | None = 12.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise UnknownPotentialKind(self.kind)
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
        elif self.a is None or self.a <= 0:
            raise ValueError(f"{self.kind} potential needs positive exponent a")

    # -- constructors -------------------------------------------------

    @classmethod
    def lj(cls, b: float = 12.0, a: float = 6.0) -> "PotentialSpec":
        return cls(kind="lj", a=a, b=b)

    @classmethod
    def homogeneous(cls, a: float) -> "PotentialSpec":
        return cls(kind="homogeneous", a=a, b=None)

    # -- the potential and its radial derivative ----------------------

    def u(self, r: float) -> float:
        if self.kind == "lj":
            return r ** -self.b - r ** -self.a
        return -(r ** -self.a)

    def du(self, r):
        """Radial derivative u'(r), for a float or a numpy array r."""
        if self.kind == "lj":
            return -self.b * r ** (-self.b - 1.0) + self.a * r ** (-self.a - 1.0)
        return self.a * r ** (-self.a - 1.0)

    # -- derived constants ---------------------------------------------

    @property
    def r_min(self) -> float | None:
        """Location of the potential minimum, None when u is unbounded below."""
        if self.kind == "lj":
            return (self.b / self.a) ** (1.0 / (self.b - self.a))
        return None

    # -- JSON wire format ----------------------------------------------

    def to_json_dict(self) -> dict:
        if self.kind == "lj":
            return {"kind": "lj", "b": self.b, "a": self.a}
        return {"kind": "homogeneous", "a": self.a}

    @classmethod
    def from_json_dict(cls, d: dict) -> "PotentialSpec":
        kind = d.get("kind")
        if kind == "lj":
            return cls.lj(b=float(d["b"]), a=float(d["a"]))
        if kind == "homogeneous":
            return cls.homogeneous(float(d["a"]))
        return cls(kind=kind)  # rejected by __post_init__, naming the kinds


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

    The one force law of the package: `pair_force` and `make_rhs` (the
    right-hand side behind the integrator and `accelerations`) evaluate
    it. Every form takes a float or a numpy array of squared distances.
    Specialized closed forms for the quantitative families keep the hot
    loop in plain float arithmetic.
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


def pair_force(d, spec: PotentialSpec) -> np.ndarray:
    """Force on a body displaced by d = q_i - q_j (length 2) from its partner:
    -u'(|d|) d/|d|."""
    dx, dy = (float(c) for c in d)
    r2 = dx * dx + dy * dy
    if r2 == 0.0:
        raise ValueError("zero displacement has no defined pair force")
    g = float(_pair_g(spec)(r2))
    return np.array([dx * g, dy * g])


def make_rhs(spec: PotentialSpec):
    """Right-hand side of the first-order system y' = f(y), y a flat state.

    The components of y may be floats or equal-length numpy arrays, one
    state per array column.
    """
    g = _pair_g(spec)

    def rhs(t, y):
        x0 = y[0]; y0 = y[1]; x1 = y[2]; y1 = y[3]; x2 = y[4]; y2 = y[5]
        dx = x0 - x1; dy = y0 - y1
        g01 = g(dx * dx + dy * dy)
        f01x = g01 * dx; f01y = g01 * dy
        dx = x0 - x2; dy = y0 - y2
        g02 = g(dx * dx + dy * dy)
        f02x = g02 * dx; f02y = g02 * dy
        dx = x1 - x2; dy = y1 - y2
        g12 = g(dx * dx + dy * dy)
        f12x = g12 * dx; f12y = g12 * dy
        return [y[6], y[7], y[8], y[9], y[10], y[11],
                f01x + f02x, f01y + f02y,
                -f01x + f12x, -f01y + f12y,
                -f02x - f12x, -f02y - f12y]

    return rhs


def accelerations(y, spec: PotentialSpec) -> np.ndarray:
    """(ax0, ay0, ax1, ay1, ax2, ay2): the last six rows of make_rhs(spec) at
    a flat state y, or at each column of a (12, n) array. Sums to zero
    exactly up to rounding."""
    return np.array(make_rhs(spec)(0.0, y)[6:])


def _floats(y) -> list[float]:
    """The 12 components of a flat state as Python floats."""
    return np.asarray(y, dtype=float).tolist()


def potential_energy(y, spec: PotentialSpec) -> float:
    x0, y0, x1, y1, x2, y2 = _floats(y)[:6]
    return (spec.u(math.hypot(x0 - x1, y0 - y1))
            + spec.u(math.hypot(x0 - x2, y0 - y2))
            + spec.u(math.hypot(x1 - x2, y1 - y2)))


def kinetic_energy(y) -> float:
    vx0, vy0, vx1, vy1, vx2, vy2 = _floats(y)[6:]
    return 0.5 * ((vx0 * vx0 + vy0 * vy0) + (vx1 * vx1 + vy1 * vy1)
                  + (vx2 * vx2 + vy2 * vy2))


def total_energy(y, spec: PotentialSpec) -> float:
    """E = sum of kinetic energies plus pairwise potential energies."""
    return kinetic_energy(y) + potential_energy(y, spec)


def angular_momentum(y) -> float:
    x0, y0, x1, y1, x2, y2, vx0, vy0, vx1, vy1, vx2, vy2 = _floats(y)
    return (x0 * vy0 - y0 * vx0) + (x1 * vy1 - y1 * vx1) + (x2 * vy2 - y2 * vx2)


def linear_momentum(y) -> np.ndarray:
    vx0, vy0, vx1, vy1, vx2, vy2 = _floats(y)[6:]
    return np.array([vx0 + vx1 + vx2, vy0 + vy1 + vy2])


def center_of_mass(y) -> np.ndarray:
    x0, y0, x1, y1, x2, y2 = _floats(y)[:6]
    return np.array([x0 + x1 + x2, y0 + y1 + y2]) * (1.0 / 3.0)


def isosceles_state(params: ShootingParams) -> np.ndarray:
    """Flat launch state with bodies at (x0, y0), (-2 x0, 0), (x0, -y0).

    The two mirror bodies launch along the triangle edges with speed v,
    the axis body straight up; this choice makes total linear and
    angular momentum vanish identically, and v > 0 drives the left lobe
    clockwise.
    """
    x0, y0, v = params.x0, params.y0, params.v
    x1 = -2.0 * x0
    s = v / math.hypot(3.0 * x0, y0)
    return np.array([x0, y0, x1, 0.0, x0, -y0,
                     (x1 - x0) * s, -y0 * s,
                     0.0, 2.0 * v / math.sqrt(1.0 + (3.0 * x0 / y0) ** 2),
                     (x0 - x1) * s, -y0 * s])
