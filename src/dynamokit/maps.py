"""Linear maps on the unit torus and their field-growth diagnostics.

Constructors cover the classical chaotic stretching (cat) map, its sheared
generalisations, and the twist / thin-tube shear family.  Classification uses
the exact 2x2 characteristic quadratic, never an iterative eigensolver.

Points on the torus and tangent field vectors are deliberately distinct
types: points wrap mod 1, transported field vectors never do, so the
exponential stretching of a frozen-in field stays observable.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import accumulate

# |trace| within this distance of 2 classifies as parabolic, so the twist map
# lands on the boundary despite float noise.
PARABOLIC_TOL = 1e-12

__all__ = [
    "PARABOLIC_TOL",
    "LinearTorusMap",
    "MapClassification",
    "TorusPoint",
    "FieldVector",
    "make_cat_map",
    "make_cat_shear_map",
    "make_twist_map",
    "make_tube_twist_map",
    "make_thin_tube_map",
    "classify",
    "apply_map",
    "iterate_orbit",
    "transport_field",
    "growth_rate",
    "growth_rate_per_step",
    "arnold_line_element",
]


def _reduce_mod1(x: float) -> float:
    """Floor-based reduction of x into [0, 1).

    Tiny negatives whose reduction rounds up to 1.0 wrap to 0.0 so the
    half-open interval contract holds bit-stably.
    """
    r = x - math.floor(x)
    return r - 1.0 if r >= 1.0 else r


@dataclass(frozen=True)
class LinearTorusMap:
    """Real 2x2 matrix [[a, b], [c, d]] acting on the torus and its tangent space."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"matrix entry {name} must be finite, got {value!r}")

    @property
    def matrix(self):  # a float ndarray; numpy loads with the first call
        import numpy as np
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=float)

    @property
    def determinant(self) -> float:
        return self.a * self.d - self.b * self.c

    @property
    def trace(self) -> float:
        return self.a + self.d


@dataclass(frozen=True)
class MapClassification:
    """Spectral summary of a 2x2 torus map.

    Eigenvalues are ordered by descending magnitude (|lambda1| >= |lambda2|),
    complex-conjugate pairs with the positive imaginary part first.
    """

    kind: str  # "hyperbolic" | "parabolic" | "elliptic"
    eigenvalues: tuple[complex, complex]
    determinant: float
    trace: float


@dataclass(frozen=True)
class TorusPoint:
    """Point on the unit torus; coordinates are reduced mod 1 into [0, 1)."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("torus point coordinates must be finite")
        object.__setattr__(self, "x", _reduce_mod1(self.x))
        object.__setattr__(self, "y", _reduce_mod1(self.y))


@dataclass(frozen=True)
class FieldVector:
    """Tangent-space field vector; components are never reduced mod 1."""

    u: float
    v: float

    def __post_init__(self):
        if not (math.isfinite(self.u) and math.isfinite(self.v)):
            raise ValueError("field vector components must be finite")

    @property
    def norm(self) -> float:
        return math.hypot(self.u, self.v)


def make_cat_map() -> LinearTorusMap:
    """The hyperbolic stretching (cat) map [[2, 1], [1, 1]]."""
    return LinearTorusMap(2.0, 1.0, 1.0, 1.0)


def make_cat_shear_map(k: int) -> LinearTorusMap:
    """Sheared stretching map [[1 + k^2, k], [k, 1]]; k = 1 recovers the cat map."""
    return LinearTorusMap(1.0 + float(k) * float(k), float(k), float(k), 1.0)


def make_twist_map() -> LinearTorusMap:
    """The parabolic torus shear [[1, 1], [0, 1]]."""
    return LinearTorusMap(1.0, 1.0, 0.0, 1.0)


def make_tube_twist_map(tau0: float, k0: float) -> LinearTorusMap:
    """Tube shear-stretch map [[1, -tau0], [0, k0]] for torsion tau0 and stretch k0.

    k0 <= 0 is a degenerate stretch and is rejected.
    """
    if k0 <= 0.0:
        raise ValueError(f"stretch factor k0 must be positive, got {k0!r}")
    return LinearTorusMap(1.0, -tau0, 0.0, k0)


def make_thin_tube_map(tau0: float) -> LinearTorusMap:
    """Thin-tube limit [[1, -tau0], [0, 1]]; tau0 = -1 recovers the twist map."""
    return make_tube_twist_map(tau0, 1.0)


def _quadratic_roots(c2: float, c1: float, c0: float, key) -> tuple[complex, complex]:
    """Both roots of c2 x^2 + c1 x + c0 = 0 (c2 != 0) in closed form, sorted by key."""
    sq = cmath.sqrt(complex(c1 * c1 - 4.0 * c2 * c0, 0.0))
    pair = sorted(((-c1 + sq) / (2.0 * c2), (-c1 - sq) / (2.0 * c2)), key=key)
    return (pair[0], pair[1])


def classify(m: LinearTorusMap) -> MapClassification:
    """Exact spectral classification from the characteristic quadratic.

    The kind follows the trace rule for unit-determinant maps: |trace| > 2
    hyperbolic, |trace| = 2 (within PARABOLIC_TOL) parabolic, |trace| < 2
    elliptic.  The rule is applied as stated even when det != 1.
    """
    tr = m.trace
    det = m.determinant
    lams = _quadratic_roots(1.0, -tr, det, key=lambda lam: (-abs(lam), -lam.imag, -lam.real))
    if abs(abs(tr) - 2.0) <= PARABOLIC_TOL:
        kind = "parabolic"
    elif abs(tr) > 2.0:
        kind = "hyperbolic"
    else:
        kind = "elliptic"
    return MapClassification(kind, lams, det, tr)


def apply_map(m: LinearTorusMap, p: TorusPoint) -> TorusPoint:
    """One application of the map to a torus point, reduced mod 1 componentwise."""
    return TorusPoint(m.a * p.x + m.b * p.y, m.c * p.x + m.d * p.y)


def iterate_orbit(m: LinearTorusMap, p: TorusPoint, n: int) -> list[TorusPoint]:
    """Orbit [p, Mp, ..., M^n p] on the torus, each point reduced mod 1."""
    if n < 0:
        raise ValueError("orbit length n must be nonnegative")
    orbit = [p]
    for _ in range(n):
        orbit.append(apply_map(m, orbit[-1]))
    return orbit


def transport_field(m: LinearTorusMap, f: FieldVector, n: int) -> FieldVector:
    """Frozen-field transport M^n f in the tangent space (no mod reduction)."""
    if n < 0:
        raise ValueError("iteration count n must be nonnegative")
    u, v = f.u, f.v
    for _ in range(n):
        u, v = m.a * u + m.b * v, m.c * u + m.d * v
    return FieldVector(u, v)


def _iterate_normalized(m: LinearTorusMap, f: FieldVector, n: int) -> list[float]:
    """Per-step stretching ratios |M f_k| / |f_k| with f_k renormalised each step."""
    if n < 1:
        raise ValueError("need at least one iteration")
    norm = f.norm
    if norm == 0.0:
        raise ValueError("seed field vector must be nonzero")
    u, v = f.u / norm, f.v / norm
    ratios = []
    for _ in range(n):
        u, v = m.a * u + m.b * v, m.c * u + m.d * v
        r = math.hypot(u, v)
        if r == 0.0:
            raise ValueError("field vector collapsed to zero (singular map)")
        ratios.append(r)
        u, v = u / r, v / r
    return ratios


def _growth_table(m: LinearTorusMap, f: FieldVector, n: int) -> list[tuple[float, float]]:
    """(growth_rate, growth_rate_per_step) for k = 1..n from one renormalised orbit.

    The running log-sum adds left to right, as sum() did before Python 3.12
    made float sums compensated, so every interpreter gives the same bits.
    """
    logs = [math.log(r) for r in _iterate_normalized(m, f, n)]
    return [(total / k, log_r)
            for k, (total, log_r) in enumerate(zip(accumulate(logs), logs), start=1)]


def growth_rate(m: LinearTorusMap, f: FieldVector, n: int) -> float:
    """Time-averaged log stretching (1/n) ln(|M^n f| / |f|).

    For a hyperbolic map and f not parallel to the contracting eigenvector
    this converges to ln|lambda1| with an O(1/n) bias from the seed's
    projection; see growth_rate_per_step for the geometrically convergent
    power-iteration estimate.
    """
    return _growth_table(m, f, n)[-1][0]


def growth_rate_per_step(m: LinearTorusMap, f: FieldVector, n: int) -> float:
    """Log stretching of the final step, ln(|M^n f| / |M^(n-1) f|).

    This is the power-iteration estimate: for hyperbolic maps it converges
    to ln|lambda1| geometrically in n, without the 1/n seed bias of the
    time average.
    """
    return _growth_table(m, f, n)[-1][1]


def arnold_line_element(lam: float, z: float, dp: float, dq: float, dz: float) -> float:
    """Squared stretching line element exp(-lam z) dp^2 + exp(lam z) dq^2 + dz^2."""
    return math.exp(-lam * z) * dp * dp + math.exp(lam * z) * dq * dq + dz * dz
