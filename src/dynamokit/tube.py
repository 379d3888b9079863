"""Twisted-flux-tube flow diagnostics on a radial grid.

Covers the tube line element and gradient, the compact radial operator
L f = f'' + f'/r + 2 f/r^2, the poloidal/toroidal momentum residuals, the
poloidal-to-toroidal ratio elimination, and the pressure, vorticity,
alpha-effect and incompressibility diagnostics.

Two ratio quadratics are carried as first-class values because they disagree:
the direct symbolic elimination gives m^2 - m - 2 (roots 2 and -1) while the
stated form is the golden-ratio quadratic m^2 - m - 1.  Both are exposed with
provenance tags and every downstream diagnostic takes m as an input, so
neither root set is silently preferred.

Each sampled profile is differentiated once, in the grid's natural coordinate:
one pass of the uniform stencils gives both radial derivatives, and log grids
map them from ln r back to r by the chain rule, keeping the stencils uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .finitediff import derivative_uniform, second_derivative_uniform
from .maps import _quadratic_roots

PROVENANCE_DERIVED = "derived-elimination"
PROVENANCE_STATED = "paper-stated"

_SPACINGS = ("linear", "log")
_SPACING_ALIASES = {"uniform-in-r": "linear", "uniform-in-ln-r": "log"}

__all__ = [
    "PROVENANCE_DERIVED",
    "PROVENANCE_STATED",
    "RadialGrid",
    "TubeFlowField",
    "QuadraticEigenproblem",
    "radial_derivative",
    "radial_second_derivative",
    "tube_line_element",
    "tube_gradient",
    "compact_operator_apply",
    "log_radial_check",
    "poloidal_residual",
    "toroidal_residual",
    "radial_pressure_residual",
    "eliminate_eigenvalue",
    "paper_eigenproblem",
    "eigenvalue_discrepancy_report",
    "velocity_profile",
    "pressure_profile",
    "pressure_blowup_check",
    "vorticity",
    "beltrami_alignment",
    "alpha_effect",
    "alpha_effect_discrepancy",
    "incompressibility_defect",
]


@dataclass(frozen=True)
class RadialGrid:
    """Strictly positive radial grid, uniform in r ("linear") or in ln r ("log").

    The long spellings "uniform-in-r" / "uniform-in-ln-r" are accepted as
    aliases.  r = 0 is excluded: the compact operator, the -ln r profile and
    the alpha effect are all singular on the axis, which is probed by limit
    sequences instead.  nodes holds the read-only nodes and natural_step their
    spacing in r or ln r; a grid whose step is not positive or whose nodes
    fail to increase is rejected.
    """

    r_min: float
    r_max: float
    count: int
    spacing: str = "log"

    def __post_init__(self):
        if self.r_min <= 0.0:
            raise ValueError("r_min must be positive (the operator is singular at r = 0)")
        if self.r_max <= self.r_min:
            raise ValueError("r_max must exceed r_min")
        if self.count < 16:
            raise ValueError("grid needs at least 16 nodes")
        object.__setattr__(self, "spacing", _SPACING_ALIASES.get(self.spacing, self.spacing))
        if self.spacing not in _SPACINGS:
            raise ValueError(f"spacing must be one of {_SPACINGS}, got {self.spacing!r}")
        if self.spacing == "log":
            nodes = np.geomspace(self.r_min, self.r_max, self.count)
            step = (math.log(self.r_max) - math.log(self.r_min)) / (self.count - 1)
        else:
            nodes = np.linspace(self.r_min, self.r_max, self.count)
            step = (self.r_max - self.r_min) / (self.count - 1)
        if not (step > 0.0 and (np.diff(nodes) > 0.0).all()):
            raise ValueError(f"r_min {self.r_min!r} and r_max {self.r_max!r} lie too close "
                             f"together for {self.count} strictly increasing nodes")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "natural_step", step)

    def __reduce__(self):  # copies go through the constructor, so their nodes are read-only too
        return type(self), (self.r_min, self.r_max, self.count, self.spacing)

    @classmethod
    def default_log(cls, r_max: float = 1.0, count: int = 256) -> "RadialGrid":
        """Log grid spanning [1e-6 r_max, r_max]."""
        return cls(1e-6 * r_max, r_max, count, "log")


def _samples_on(f, grid: RadialGrid) -> np.ndarray:
    """Samples on the grid nodes: an array as given, a callable evaluated on the node array."""
    values = np.asarray(f(grid.nodes) if callable(f) else f, dtype=float)
    if values.shape != grid.nodes.shape:
        raise ValueError(f"expected {grid.count} samples, got shape {values.shape}")
    return values


def _radial_derivatives(samples, grid: RadialGrid) -> tuple[np.ndarray, np.ndarray]:
    """(d/dr, d^2/dr^2) of samples from one pass of the stencils in r or, on log grids, ln r."""
    f = _samples_on(samples, grid)
    g1 = derivative_uniform(f, grid.natural_step)
    g2 = second_derivative_uniform(f, grid.natural_step)
    if grid.spacing == "log":  # chain rule from ln r back to r
        return g1 / grid.nodes, (g2 - g1) / (grid.nodes * grid.nodes)
    return g1, g2


def radial_derivative(samples, grid: RadialGrid) -> np.ndarray:
    """d/dr of samples, second order, in the grid's natural coordinate."""
    return _radial_derivatives(samples, grid)[0]


def radial_second_derivative(samples, grid: RadialGrid) -> np.ndarray:
    """d^2/dr^2 of samples, second order, in the grid's natural coordinate."""
    return _radial_derivatives(samples, grid)[1]


def tube_line_element(r: float, dr: float, dtheta: float, ds: float, k: float) -> float:
    """Squared twisted-tube line element dr^2 + r^2 dtheta^2 + K^2 ds^2."""
    if r < 0.0:
        raise ValueError("tube radius must be nonnegative")
    return dr * dr + r * r * dtheta * dtheta + k * k * ds * ds


def tube_gradient(f, r, theta, s, k=1.0):
    """Gradient components (K^-1 d_s f, r^-1 d_theta f, d_r f) in the frame (t, e_theta, e_r).

    f is sampled on the (r, theta, s) product grid; derivatives are central
    differences with second-order one-sided stencils at the boundaries.
    """
    f = np.asarray(f, dtype=float)
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    s = np.asarray(s, dtype=float)
    if f.ndim != 3 or f.shape != (r.size, theta.size, s.size):
        raise ValueError("f must be sampled on the (r, theta, s) grid")
    if min(r.size, theta.size, s.size) < 3:
        raise ValueError("need at least 3 nodes per axis")
    if np.any(r <= 0.0):
        raise ValueError("radial nodes must be positive")
    k_arr = np.asarray(k, dtype=float)
    if np.any(k_arr <= 0.0):
        raise ValueError("stretch factor K must be positive everywhere")
    df_r = np.gradient(f, r, axis=0, edge_order=2)
    df_theta = np.gradient(f, theta, axis=1, edge_order=2)
    df_s = np.gradient(f, s, axis=2, edge_order=2)
    return df_s / k_arr, df_theta / r[:, None, None], df_r


def compact_operator_apply(f, grid: RadialGrid) -> np.ndarray:
    """Apply the compact radial operator L f = f'' + f'/r + 2 f/r^2 nodewise.

    f may be an array of samples or a callable sampled on the grid.  On log
    grids the operator is evaluated through the exact transform
    L f = (d^2 f/d(ln r)^2 + 2 f) / r^2, keeping the stencils uniform.
    """
    samples = _samples_on(f, grid)
    r = grid.nodes
    if grid.spacing == "log":
        return (second_derivative_uniform(samples, grid.natural_step) + 2.0 * samples) / (r * r)
    f1, f2 = _radial_derivatives(samples, grid)
    return f2 + f1 / r + 2.0 * samples / (r * r)


def _symbolic_expr(f, symbol):
    import sympy as sp

    if isinstance(f, sp.Expr):
        free = sorted(f.free_symbols, key=str)
        if len(free) > 1:
            raise ValueError("expression must have a single free symbol")
        return f.subs(free[0], symbol) if free else f
    return sp.sympify(f(symbol))


def log_radial_check(f, grid: RadialGrid) -> float:
    """Max-norm defect of the operator transform r^2 L f = f_(r'r') + 2 f, r' = ln r.

    Both sides are built symbolically and evaluated independently on the grid
    nodes, so the analytically exact identity leaves only rounding in the
    returned defect.  Pass f as a sympy expression or as a callable built
    from sympy functions (plain polynomials and rationals in r work as-is).
    sympy is imported here, on first use, so the rest of the package runs
    on numpy alone; install it with the ``symbolic`` extra.
    """
    import sympy as sp

    r = sp.Symbol("r", positive=True)
    rp = sp.Symbol("rp", real=True)
    expr = _symbolic_expr(f, r)
    operator = sp.diff(expr, r, 2) + sp.diff(expr, r) / r + 2 * expr / r**2
    lhs_expr = r**2 * operator
    g = expr.subs(r, sp.exp(rp))
    rhs_expr = sp.diff(g, rp, 2) + 2 * g

    def on_nodes(symbol, side, points):
        values = np.asarray(sp.lambdify(symbol, side, "numpy")(points), dtype=float)
        return np.broadcast_to(values, grid.nodes.shape)

    defect = on_nodes(r, lhs_expr, grid.nodes) - on_nodes(rp, rhs_expr, np.log(grid.nodes))
    return float(np.max(np.abs(defect)))


@dataclass(frozen=True, eq=False)
class TubeFlowField:
    """Tube flow sampled on a radial grid: toroidal v_s(r), poloidal v_theta(r).

    m is the poloidal/toroidal ratio for eigen-ansatz fields (v_theta = m v_s
    nodewise); rigid-rotation fields (v_theta = omega0 r) carry m = 0.  gamma
    is a single rate with a dual reading: it is the eigenvalue of the flow
    residual equations and also the growth rate of the induction operator.
    """

    m: float
    omega0: float
    rho0: float
    kappa0: float
    gamma: float
    v_s: np.ndarray
    v_theta: np.ndarray

    def __post_init__(self):
        if self.rho0 <= 0.0:
            raise ValueError("density rho0 must be positive")
        if self.kappa0 < 0.0:
            raise ValueError("curvature kappa0 must be nonnegative")
        for name in ("v_s", "v_theta"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.v_s.shape != self.v_theta.shape:
            raise ValueError("v_s and v_theta must be sampled on the same grid")

    def __reduce__(self):  # as RadialGrid's: a copy's v_s and v_theta are read-only too
        return type(self), tuple(getattr(self, field.name) for field in fields(self))

    @classmethod
    def eigen_ansatz(
        cls,
        grid: RadialGrid,
        m: float,
        *,
        omega0: float = 0.0,
        rho0: float = 1.0,
        kappa0: float = 1.0,
        gamma: float = 0.0,
    ) -> "TubeFlowField":
        """Field with v_s = -ln r and v_theta = m v_s at every node."""
        v_s = velocity_profile(grid)
        return cls(m, omega0, rho0, kappa0, gamma, v_s, m * v_s)

    @classmethod
    def rigid_rotation(
        cls,
        grid: RadialGrid,
        omega0: float,
        *,
        v_s=0.0,
        rho0: float = 1.0,
        kappa0: float = 1.0,
        gamma: float = 0.0,
    ) -> "TubeFlowField":
        """Field with solid-body poloidal rotation v_theta = omega0 r."""
        v_s_arr = np.broadcast_to(np.asarray(v_s, dtype=float), grid.nodes.shape).copy()
        return cls(0.0, omega0, rho0, kappa0, gamma, v_s_arr, omega0 * grid.nodes)


def poloidal_residual(field: TubeFlowField, grid: RadialGrid) -> np.ndarray:
    """Poloidal momentum residual (2/r^2) v_s + v_theta'/r + v_theta'' - gamma v_theta."""
    r = grid.nodes
    vt1, vt2 = _radial_derivatives(field.v_theta, grid)
    return 2.0 * field.v_s / (r * r) + vt1 / r + vt2 - field.gamma * field.v_theta


def toroidal_residual(
    field: TubeFlowField, grid: RadialGrid, *, eigen_convention: bool = False
) -> np.ndarray:
    """Toroidal momentum residual (v_theta - v_s)/r + v_s'/r + v_s'' - gamma v_s.

    With eigen_convention the coupling term (v_theta - v_s) is weighted by
    1/r^2 instead of 1/r, matching the poloidal coupling weight.  That is the
    simplification convention under which the ratio elimination is exact:
    poloidal - m * toroidal collapses to [2 - m(m-1)] v_s / r^2 nodewise.
    """
    r = grid.nodes
    vs1, vs2 = _radial_derivatives(field.v_s, grid)
    weight = r * r if eigen_convention else r
    return (field.v_theta - field.v_s) / weight + vs1 / r + vs2 - field.gamma * field.v_s


def radial_pressure_residual(
    field: TubeFlowField, p_gradient, grid: RadialGrid, *, linearized: bool = False
) -> np.ndarray:
    """Radial momentum-balance residual d_r p / rho0 - RHS, nodewise.

    Literal RHS: v_s kappa0^2 - v_theta omega0 + (2/r)(v_s - v_theta) kappa0 v_s.
    With linearized=True the curvature-squared term and the velocity-quadratic
    remainder are dropped and the curvature coupling is kept at first order:
    RHS = omega0^2 + (2/r) kappa0 v_theta, the balance that the closed-form
    pressure profile solves exactly for eigen-ansatz fields.
    """
    r = grid.nodes
    pg = np.broadcast_to(np.asarray(p_gradient, dtype=float), r.shape)
    if linearized:
        rhs = field.omega0**2 + 2.0 * field.kappa0 * field.v_theta / r
    else:
        rhs = (
            field.v_s * field.kappa0**2
            - field.v_theta * field.omega0
            + (2.0 / r) * (field.v_s - field.v_theta) * field.kappa0 * field.v_s
        )
    return pg - rhs


@dataclass(frozen=True)
class QuadraticEigenproblem:
    """Quadratic condition c2 m^2 + c1 m + c0 = 0 for the poloidal/toroidal ratio."""

    c2: float
    c1: float
    c0: float
    provenance: str

    def __post_init__(self):
        if self.c2 == 0.0:
            raise ValueError("leading coefficient c2 must be nonzero")

    @property
    def coefficients(self) -> tuple[float, float, float]:
        return (self.c2, self.c1, self.c0)

    def roots(self) -> tuple[complex, complex]:
        """Both roots, descending real part (ties broken by descending imaginary part)."""
        return _quadratic_roots(self.c2, self.c1, self.c0, key=lambda z: (-z.real, -z.imag))

    def evaluate(self, m) -> complex:
        return self.c2 * m * m + self.c1 * m + self.c0


def eliminate_eigenvalue() -> QuadraticEigenproblem:
    """The ratio quadratic m^2 - m - 2 obtained by eliminating the profile terms.

    Multiplying the reduced toroidal equation by m and subtracting it from
    the poloidal one cancels every derivative and growth term, leaving
    [2 - m(m-1)] v_s = 0 (roots 2 and -1).  The result is a fixed algebraic
    fact, so it is returned as a constant with provenance
    "derived-elimination"; the test suite re-derives it symbolically and
    checks it against this constant.
    """
    return QuadraticEigenproblem(1.0, -1.0, -2.0, PROVENANCE_DERIVED)


def paper_eigenproblem() -> QuadraticEigenproblem:
    """The golden-ratio quadratic m^2 - m - 1 = 0 as originally stated."""
    return QuadraticEigenproblem(1.0, -1.0, -1.0, PROVENANCE_STATED)


def eigenvalue_discrepancy_report() -> dict:
    """Both ratio quadratics side by side, with the mismatch made explicit.

    The quadratics share the linear term but differ in the constant term, so
    their root sets ({2, -1} versus the golden-ratio pair) are incompatible;
    downstream diagnostics therefore take m as an input parameter.
    """
    problems = (eliminate_eigenvalue(), paper_eigenproblem())
    report: dict = {}
    for problem in problems:
        roots = problem.roots()
        report[problem.provenance] = {
            "coefficients": list(problem.coefficients),
            "roots_real": [z.real for z in roots],
            "roots_imag": [z.imag for z in roots],
        }
    report["consistent"] = problems[0].coefficients == problems[1].coefficients
    report["constant_term_difference"] = problems[1].c0 - problems[0].c0
    return report


def velocity_profile(grid: RadialGrid) -> np.ndarray:
    """Toroidal speed profile v_s(r) = -ln r (the solenoidal-vorticity solution)."""
    return -np.log(grid.nodes)


def pressure_profile(r, field: TubeFlowField):
    """Pressure rho0 [omega0^2 r - m kappa0 (ln r)^2].

    Diverges to -inf toward the axis whenever m kappa0 > 0; use
    pressure_blowup_check to probe that limit on a radius sequence.
    """
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("pressure profile is defined for r > 0")
    log_r = np.log(arr)
    p = field.rho0 * (field.omega0**2 * arr - field.m * field.kappa0 * log_r * log_r)
    return float(p) if np.ndim(r) == 0 else p


def pressure_blowup_check(field: TubeFlowField, r_sequence) -> str:
    """Classify the axis limit of |p| over a strictly decreasing radius sequence.

    "divergent" when |p| grows monotonically with non-shrinking increments
    and the final value exceeds 10x the first; otherwise "bounded".
    """
    rs = np.asarray(r_sequence, dtype=float)
    if rs.size < 3:
        raise ValueError("need at least 3 radii")
    if np.any(rs <= 0.0):
        raise ValueError("radii must be positive")
    if np.any(np.diff(rs) >= 0.0):
        raise ValueError("radius sequence must be strictly decreasing")
    magnitudes = np.abs(pressure_profile(rs, field))
    increments = np.diff(magnitudes)
    if (
        np.all(increments > 0.0)
        and np.all(np.diff(increments) >= 0.0)
        and magnitudes[-1] > 10.0 * magnitudes[0]
    ):
        return "divergent"
    return "bounded"


_SEC_GUARD = 1e-9
# beltrami_alignment: largest |omega x v| / (|omega| |v|) still counted as aligned
_ALIGNMENT_TOL = 1e-10


def vorticity(r: float, theta: float, kappa0: float, v_s: float) -> np.ndarray:
    """Vorticity components in the frame (t, n, b): -(kappa0 v_s / r)(cos theta, 0, -sec theta).

    theta within 1e-9 of an odd multiple of pi/2 is rejected (secant
    singularity); the small-angle regime is the intended domain.
    """
    if r <= 0.0:
        raise ValueError("radius must be positive")
    if abs(math.remainder(theta - math.pi / 2.0, math.pi)) < _SEC_GUARD:
        raise ValueError("theta too close to an odd multiple of pi/2 (secant singularity)")
    cos_t = math.cos(theta)
    prefactor = -kappa0 * v_s / r
    return np.array([prefactor * cos_t, 0.0, -prefactor / cos_t])


def beltrami_alignment(v, omega):
    """Proportionality factor lam with omega = lam v, or None when not aligned.

    Alignment requires |omega x v| <= 1e-10 |omega| |v|; the returned factor
    is the least-squares projection (omega . v) / |v|^2.
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(omega, dtype=float)
    norm_v = float(np.linalg.norm(v))
    if norm_v == 0.0:
        raise ValueError("reference flow vector must be nonzero")
    norm_w = float(np.linalg.norm(w))
    if norm_w == 0.0:
        return 0.0
    if float(np.linalg.norm(np.cross(w, v))) > _ALIGNMENT_TOL * norm_w * norm_v:
        return None
    return float(w @ v) / (norm_v * norm_v)


def alpha_effect(r, m: float, kappa0: float, v_s):
    """Mean-field alpha = (m - 1) kappa0^2 v_s^2 / r.

    Second order in both the curvature and the speed, and singular like 1/r
    toward the axis.  Scalar and array (r, v_s) inputs are supported.
    """
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("alpha effect is defined for r > 0")
    speed = np.asarray(v_s, dtype=float)
    alpha = (m - 1.0) * kappa0 * kappa0 * speed * speed / arr
    return float(alpha) if np.ndim(alpha) == 0 else alpha


def alpha_effect_discrepancy() -> dict:
    """The alpha prefactor (m - 1) against the separately printed golden-ratio factor.

    For the golden-ratio roots m+- the formula's factor m+- - 1 equals
    (-1 +- sqrt(5))/2, while the substituted closed form was printed with
    (1 +- sqrt(5))/2.  Both factors are reported; the literal (m - 1) form is
    what alpha_effect implements.
    """
    roots = paper_eigenproblem().roots()
    factor_from_formula = [z.real - 1.0 for z in roots]
    factor_as_printed = [(1.0 + math.sqrt(5.0)) / 2.0, (1.0 - math.sqrt(5.0)) / 2.0]
    consistent = all(
        math.isclose(a, b, rel_tol=0.0, abs_tol=1e-12)
        for a, b in zip(factor_from_formula, factor_as_printed)
    )
    return {
        "factor_from_formula": factor_from_formula,
        "factor_as_printed": factor_as_printed,
        "consistent": consistent,
        "implemented": "alpha = (m - 1) kappa0^2 v_s^2 / r",
    }


def incompressibility_defect(field: TubeFlowField, grid: RadialGrid, v_r=None) -> float:
    """Max-norm of div v for v = v_s(r) t + v_theta(r) e_theta (+ optional v_r e_r), K = 1.

    The axial and angular contributions vanish identically for radius-only
    profiles; a nonzero radial component contributes (1/r) d(r v_r)/dr and
    exposes solenoidality violations.
    """
    if v_r is None:
        return 0.0
    r = grid.nodes
    radial = np.broadcast_to(np.asarray(v_r, dtype=float), r.shape)
    return float(np.max(np.abs(radial_derivative(r * radial, grid) / r)))
