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

from .maps import _quadratic_roots

REGIME_SLOW = "slow"
REGIME_FAST_CANDIDATE = "fast-candidate"
REGIME_NON_DYNAMO_PLANAR = "non-dynamo-planar"
REGIME_DEGENERATE = "degenerate"

# classify_dynamo's slow verdict: |intercept| and max fit residual at most these times max|Re gamma|
_INTERCEPT_TOL = 1e-10
_RESIDUAL_TOL = 1e-8

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
        if self.k0 * self.k0 == 0.0:  # B = kappa / K0^2 would divide by zero
            raise ValueError(f"stretch factor k0 = {self.k0!r} is too small: k0^2 underflows to 0")
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
    """Induction matrix diag(m11, m22) at the reference rate; the torsion entry m33 kept apart."""

    m11: float
    m22: float
    m33: float

    @property
    def matrix(self):
        """The 2x2 block as a read-only ndarray; numpy loads with the first call."""
        import numpy as np
        matrix = np.array([[self.m11, 0.0], [0.0, self.m22]])
        matrix.setflags(write=False)
        return matrix


def filament_line_element(k0: float, ds: float) -> float:
    """Squared filament line element K0^2 ds^2 (the r -> 0 limit of the tube metric)."""
    if k0 <= 0.0:
        raise ValueError("stretch factor k0 must be positive")
    return k0 * k0 * ds * ds


def filament_gradient(f, k0: float, s):
    """Tangential gradient component K0^-1 df/ds, an ndarray, on samples along the filament.

    s is the node array (or the uniform spacing); derivatives are central
    differences with second-order one-sided stencils at the ends.
    """
    if k0 <= 0.0:
        raise ValueError("stretch factor k0 must be positive")
    import numpy as np
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
    return FilamentMatrix(prefactor * (1.0 + x * params.A), prefactor * (x * params.B + params.C),
                          x * params.tau * params.k0)


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


def _rates(etas, x_roots) -> tuple[list[list], tuple[str, ...], list[str]]:
    """Re and im columns of the rates eta/x per x root, nonzero roots first: +0.0 where eta = 0,
    None where x = 0 < eta (the rate diverges: omitted, with a note), then each row's regime.
    The first bad eta in row order raises: not finite, negative, or eta/x underflowing to 0."""
    columns = [[(eta / x if x else None) if eta else 0j for eta in etas]
               for x in sorted(x_roots, key=lambda x: not x)]
    for eta, *rates in zip(etas, *columns):
        if not 0.0 <= eta < math.inf or eta and 0 in rates:  # eta / gamma would divide by 0
            raise ValueError("parameter eta must be finite" if not math.isfinite(eta) else
                             "diffusivity eta must be nonnegative" if eta < 0.0 else
                             f"eta = {eta!r}: the growth rate eta / x underflows to 0")
    parts = []
    for gs in columns:  # free each complex column once split: it holds 40 B per eta
        parts += [g if g is None else g.real for g in gs], [g if g is None else g.imag for g in gs]
        gs.clear()
    notes = ("x = eta/gamma root at 0 with eta > 0: growth rate diverges, omitted",) * (
        x_roots.count(0) * any(etas))
    return parts, notes, [REGIME_DEGENERATE if eta and notes or not x_roots else REGIME_SLOW
                          for eta in etas]


def solve_growth_rate(eta: float, a: float, b: float, c: float) -> GrowthRateResult:
    """Solve (BA) x^2 + (BAC) x + C = 0 for x = eta/gamma, returning gamma = eta/x per root.

    Regular root branches scale linearly in eta (gamma -> 0 with the
    diffusivity), so single solves are labelled slow; sweep-level verdicts
    are classify_dynamo's job.  eta = 0 short-circuits to gamma = 0.  An
    x = 0 root with eta > 0 is a diverging-rate candidate, flagged in notes
    and omitted from the roots.  BA = 0 leaves no quadratic: the condition
    degenerates to C = 0, labelled degenerate either way.
    """
    ba = b * a
    x_roots = () if ba == 0.0 else _quadratic_roots(ba, ba * c, c, key=lambda z: (-z.real, -z.imag))
    parts, notes, (regime,) = _rates((eta,), x_roots)
    roots = tuple(complex(r, i) for (r,), (i,) in zip(parts[::2], parts[1::2]) if r is not None)
    if ba == 0.0:
        notes = ("BA = 0: determinant condition reduces to C = 0, "
                 + ("identically satisfied" if c == 0.0 else "unsatisfiable"),)
    # each residual at eta/gamma as returned; with eta = 0 every gamma is 0, so at x itself
    xs = (eta / gamma for gamma in roots) if eta else x_roots
    residuals = tuple(_relative_residual(x, a, b, c) for x in xs)
    return GrowthRateResult(roots, regime, residuals, x_roots, notes)


def classify_dynamo(samples, tau: float) -> str:
    """Label a gamma(eta) sweep: planar rule first, then the eta -> 0 intercept.

    Zero torsion means a planar incompressible flow, hence non-dynamo-planar
    regardless of the samples.  Otherwise a linear fit gamma = s eta + g0 from
    centred sums decides against S = max |Re gamma|, so that eta's units do not
    matter: |g0| <= 1e-10 S with max fit residual <= 1e-8 S is slow; an intercept
    above 1e-10 S is fast-candidate; anything else is degenerate (the samples do
    not support a verdict), as is a sweep too narrow to identify an intercept:
    sqrt(Sxx / sum eta^2) / (1 + |c|) <= n eps, Sxx the centred sum of squares and
    c = sum eta / sqrt(n sum eta^2), i.e. sigma_min / sigma_max of [eta, 1] with unit
    columns at np.polyfit's rank cutoff.  Complex rates are fitted through their real parts.
    """
    if tau == 0.0:
        return REGIME_NON_DYNAMO_PLANAR
    etas, gammas, sum_sq, sum_eta, sum_gamma = [], [], 0.0, 0.0, 0.0
    for eta, gamma in samples:  # each fit sum adds left to right: sum() compensates from 3.12 on
        eta, gamma = float(eta), complex(gamma).real
        etas.append(eta)
        gammas.append(gamma)
        sum_sq, sum_eta, sum_gamma = sum_sq + eta * eta, sum_eta + eta, sum_gamma + gamma
    if len(set(etas)) < 3:  # a set, as cli.run_filament_sweep counts them
        raise ValueError("need at least 3 samples with distinct eta")
    n = len(etas)
    # the spread below is relative to the sum of eta^2, so it must be positive and finite
    if not (0.0 < sum_sq < math.inf and all(map(math.isfinite, gammas))):
        raise ValueError(f"eta sweep {etas}: sum of eta^2 = {sum_sq!r} and growth rates "
                         f"{gammas}; the fit needs a positive finite sum and finite rates")
    mean_eta, mean_gamma, sxx, sxy = sum_eta / n, sum_gamma / n, 0.0, 0.0
    for eta, gamma in zip(etas, gammas):
        d = eta - mean_eta
        sxx, sxy = sxx + d * d, sxy + d * (gamma - mean_gamma)
    if math.sqrt(sxx / sum_sq) / (1.0 + abs(sum_eta) / math.sqrt(n * sum_sq)) <= n * math.ulp(1.0):
        return REGIME_DEGENERATE
    slope = sxy / sxx
    intercept = mean_gamma - slope * mean_eta
    fit_residual = max(abs(slope * eta + intercept - gamma) for eta, gamma in zip(etas, gammas))
    scale = max(map(abs, gammas))
    if abs(intercept) <= _INTERCEPT_TOL * scale and fit_residual <= _RESIDUAL_TOL * scale:
        return REGIME_SLOW
    if intercept > _INTERCEPT_TOL * scale:
        return REGIME_FAST_CANDIDATE
    return REGIME_DEGENERATE
