"""Filament-limit induction operator: growth rates and dynamo regime labels.

In the thin-filament line element K0^2 ds^2 the induction problem reduces to
a diagonal 2x2 matrix whose determinant condition is a quadratic in
x = eta/gamma.  The x roots do not depend on eta, so each growth-rate branch
gamma = eta/x scales linearly with the diffusivity (slow-dynamo scaling), and
vanishing torsion makes the flow planar, which forces the non-dynamo verdict
for incompressible flow regardless of the sampled rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .maps import _quadratic_roots

REGIME_SLOW = "slow"
REGIME_FAST_CANDIDATE = "fast-candidate"
REGIME_NON_DYNAMO_PLANAR = "non-dynamo-planar"
REGIME_DEGENERATE = "degenerate"

__all__ = [
    "REGIME_SLOW",
    "REGIME_FAST_CANDIDATE",
    "REGIME_NON_DYNAMO_PLANAR",
    "REGIME_DEGENERATE",
    "FilamentParams",
    "FilamentMatrix",
    "GrowthRateResult",
    "filament_line_element",
    "filament_gradient",
    "build_filament_matrix",
    "determinant_condition_residual",
    "solve_growth_rate",
    "classify_dynamo",
]


@dataclass(frozen=True)
class FilamentParams:
    """Filament flow/diffusion parameters and the derived induction coefficients.

    C couples back to the growth rate itself; it is evaluated at the supplied
    reference rate gamma_ref and then treated as a constant, which is how the
    determinant condition is solved.  All quantities are dimensionless
    (lengths normalised by the filament scale).
    """

    eta: float
    kappa: float
    kappa_prime: float
    k0: float
    v0: float
    tau: float
    gamma_ref: float

    def __post_init__(self):
        for name in ("eta", "kappa", "kappa_prime", "k0", "v0", "tau", "gamma_ref"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"parameter {name} must be finite")
        if self.eta < 0.0:
            raise ValueError("diffusivity eta must be nonnegative")
        if self.kappa < 0.0:
            raise ValueError("curvature kappa must be nonnegative")
        if self.k0 <= 0.0:
            raise ValueError("stretch factor k0 must be positive")
        if self.gamma_ref == 0.0:
            raise ValueError("reference growth rate gamma_ref must be nonzero")

    @property
    def A(self) -> float:
        """Stretch-curvature coefficient A = K0 kappa' kappa."""
        return self.k0 * self.kappa_prime * self.kappa

    @property
    def B(self) -> float:
        """Diffusive coefficient B = kappa / K0^2."""
        return self.kappa / (self.k0 * self.k0)

    @property
    def C(self) -> float:
        """Advective coefficient C = (kappa / gamma_ref) v0."""
        return self.kappa / self.gamma_ref * self.v0


@dataclass(frozen=True)
class FilamentMatrix:
    """Induction matrix at the reference rate, with the torsion entry kept separate."""

    matrix: np.ndarray
    m33: float


def filament_line_element(k0: float, ds: float) -> float:
    """Squared filament line element K0^2 ds^2 (the r -> 0 limit of the tube metric)."""
    if k0 <= 0.0:
        raise ValueError("stretch factor k0 must be positive")
    return k0 * k0 * ds * ds


def filament_gradient(f, k0: float, s) -> np.ndarray:
    """Tangential gradient component K0^-1 df/ds on samples along the filament.

    s is the node array (or the uniform spacing); derivatives are central
    differences with second-order one-sided stencils at the ends.
    """
    if k0 <= 0.0:
        raise ValueError("stretch factor k0 must be positive")
    f = np.asarray(f, dtype=float)
    if f.size < 3:
        raise ValueError("need at least 3 samples")
    return np.gradient(f, s, edge_order=2) / k0


def build_filament_matrix(params: FilamentParams) -> FilamentMatrix:
    """Diagonal induction matrix -K0^-2 gamma_ref diag(1 + x A, x B + C), x = eta/gamma_ref.

    The out-of-plane entry m33 = x tau K0 vanishes with the torsion and is
    reported separately instead of being folded into the 2x2 block.
    """
    x = params.eta / params.gamma_ref
    prefactor = -params.gamma_ref / (params.k0 * params.k0)
    matrix = np.array(
        [
            [prefactor * (1.0 + x * params.A), 0.0],
            [0.0, prefactor * (x * params.B + params.C)],
        ]
    )
    matrix.setflags(write=False)
    return FilamentMatrix(matrix, x * params.tau * params.k0)


def determinant_condition_residual(x, a, b, c):
    """Residual of the determinant condition (BA) x^2 + (BAC) x + C at x = eta/gamma.

    a, b, c are the induction coefficients A, B, C; x may be real or complex.
    """
    ba = b * a
    return ba * x * x + ba * c * x + c


@dataclass(frozen=True)
class GrowthRateResult:
    """Growth rates solving the determinant condition, with regime and residual checks.

    residuals hold the relative determinant-condition defect evaluated at
    eta/gamma for each returned root; x_roots are the underlying quadratic
    roots (eta-independent); notes record degeneracies such as an x = 0 root,
    whose growth rate diverges and is flagged rather than returned.
    """

    roots: tuple[complex, ...]
    regime: str
    residuals: tuple[float, ...]
    x_roots: tuple[complex, ...] = ()
    notes: tuple[str, ...] = ()


def _relative_residual(x, a, b, c) -> float:
    ba = b * a
    scale = max(abs(ba * x * x), abs(ba * c * x), abs(c), 1e-300)
    return abs(determinant_condition_residual(x, a, b, c)) / scale


def solve_growth_rate(eta: float, a: float, b: float, c: float) -> GrowthRateResult:
    """Solve (BA) x^2 + (BAC) x + C = 0 for x = eta/gamma, returning gamma = eta/x per root.

    Regular root branches scale linearly in eta (gamma -> 0 with the
    diffusivity), so single solves are labelled slow; sweep-level verdicts
    are classify_dynamo's job.  eta = 0 short-circuits to gamma = 0.  An
    x = 0 root with eta > 0 is a diverging-rate candidate, flagged in notes
    and omitted from the roots.  BA = 0 leaves no quadratic: the condition
    degenerates to C = 0, labelled degenerate either way.
    """
    if eta < 0.0:
        raise ValueError("diffusivity eta must be nonnegative")
    ba = b * a
    if ba == 0.0:
        note = (
            "BA = 0: determinant condition reduces to C = 0, "
            + ("identically satisfied" if c == 0.0 else "unsatisfiable")
        )
        return GrowthRateResult((), REGIME_DEGENERATE, (), (), (note,))
    x_roots = _quadratic_roots(ba, ba * c, c, key=lambda z: (-z.real, -z.imag))
    if eta == 0.0:
        residuals = tuple(_relative_residual(x, a, b, c) for x in x_roots)
        return GrowthRateResult((0j, 0j), REGIME_SLOW, residuals, x_roots)
    roots: list[complex] = []
    residuals: list[float] = []
    notes: list[str] = []
    for x in x_roots:
        if x == 0:
            notes.append(
                "x = eta/gamma root at 0 with eta > 0: growth rate diverges, omitted"
            )
            continue
        gamma = eta / x
        roots.append(gamma)
        residuals.append(_relative_residual(eta / gamma, a, b, c))
    regime = REGIME_DEGENERATE if notes else REGIME_SLOW
    return GrowthRateResult(tuple(roots), regime, tuple(residuals), x_roots, tuple(notes))


def classify_dynamo(
    samples,
    tau: float,
    *,
    intercept_tol: float = 1e-10,
    residual_tol: float = 1e-8,
) -> str:
    """Label a gamma(eta) sweep: planar rule first, then the eta -> 0 intercept.

    Zero torsion means a planar incompressible flow, hence non-dynamo-planar
    regardless of the samples.  Otherwise a linear fit gamma = s eta + g0
    decides: |g0| < intercept_tol with max fit residual < residual_tol is
    slow; a positive extrapolated intercept is fast-candidate; anything else
    is degenerate (the samples do not support a verdict).  Complex rates are
    fitted through their real parts.
    """
    if tau == 0.0:
        return REGIME_NON_DYNAMO_PLANAR
    pairs = [(float(eta), complex(gamma).real) for eta, gamma in samples]
    etas = np.array([eta for eta, _ in pairs])
    gammas = np.array([gamma for _, gamma in pairs])
    if np.unique(etas).size < 3:
        raise ValueError("need at least 3 samples with distinct eta")
    slope, intercept = np.polyfit(etas, gammas, 1)
    fit_residual = float(np.max(np.abs(slope * etas + intercept - gammas)))
    if abs(intercept) < intercept_tol and fit_residual < residual_tol:
        return REGIME_SLOW
    if intercept > intercept_tol:
        return REGIME_FAST_CANDIDATE
    return REGIME_DEGENERATE
