"""Frenet-Serret frame transport along curves and flux-tube twist geometry.

The orthonormal triad (t, n, b) evolves in arclength with curvature kappa and
torsion tau, and in time with the unsteady-filament equations.  Integration
is classical fixed-step 4th-order Runge-Kutta so frame drift is measurable
and reproducible; frames are re-orthonormalised only when drift crosses a
threshold, and every such event is recorded rather than silently projected
away.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import pairwise
from typing import Callable

import numpy as np

ORTHONORMALITY_TOL = 1e-8

__all__ = [
    "ORTHONORMALITY_TOL",
    "MetricDegeneracyWarning",
    "CurveProfile",
    "FrenetFrame",
    "FrameTrajectory",
    "frenet_rhs",
    "time_evolution_rhs",
    "integrate_frame",
    "accumulated_rotation_angle",
    "twist_angle",
    "stretch_factor",
]


class MetricDegeneracyWarning(UserWarning):
    """Tube radius exceeds the local curvature radius: metric stretch factor <= 0."""


def _as_profile_function(value) -> tuple[Callable[[float], float], float | None]:
    """Normalise a constant-or-callable profile entry to (callable, constant)."""
    if callable(value):
        return value, None
    const = float(value)
    return (lambda s: const), const


@dataclass(frozen=True)
class CurveProfile:
    """Curvature/torsion profile kappa(s), tau(s) with optional analytic dkappa/ds.

    kappa and tau accept a constant or a callable of arclength.  When no
    analytic derivative is supplied, dkappa/ds falls back to the central
    difference (kappa(s+h) - kappa(s-h)) / 2h with h = fd_step, which is
    consistent with kappa to order h^2.
    """

    kappa: object
    tau: object
    kappa_prime: object = None
    fd_step: float = 1e-5

    def __post_init__(self):
        if self.fd_step <= 0.0:
            raise ValueError("fd_step must be positive")
        kappa_fn, kappa_const = _as_profile_function(self.kappa)
        tau_fn, tau_const = _as_profile_function(self.tau)
        if self.kappa_prime is not None:
            kp_fn, _ = _as_profile_function(self.kappa_prime)
        elif kappa_const is not None:
            kp_fn = lambda s: 0.0  # noqa: E731 - constant curvature
        else:
            h = self.fd_step
            kp_fn = lambda s: (kappa_fn(s + h) - kappa_fn(s - h)) / (2.0 * h)  # noqa: E731
        object.__setattr__(self, "_kappa_fn", kappa_fn)
        object.__setattr__(self, "_tau_fn", tau_fn)
        object.__setattr__(self, "_kappa_prime_fn", kp_fn)
        object.__setattr__(self, "_kappa_const", kappa_const)
        object.__setattr__(self, "_tau_const", tau_const)

    @classmethod
    def constant(cls, kappa0: float, tau0: float) -> "CurveProfile":
        """Profile with constant curvature and torsion (helix family)."""
        return cls(kappa=float(kappa0), tau=float(tau0))

    @property
    def tau_constant(self) -> float | None:
        """The constant torsion value when tau was supplied as a constant, else None."""
        return self._tau_const

    def kappa_at(self, s: float) -> float:
        k = self._kappa_fn(s)
        if k < 0.0:
            raise ValueError(f"curvature must be nonnegative, got kappa({s!r}) = {k!r}")
        return k

    def tau_at(self, s: float) -> float:
        return self._tau_fn(s)

    def kappa_prime_at(self, s: float) -> float:
        return self._kappa_prime_fn(s)


def _frame_defect(t: np.ndarray, n: np.ndarray, b: np.ndarray) -> float:
    return max(
        abs(float(t @ n)),
        abs(float(t @ b)),
        abs(float(n @ b)),
        abs(math.sqrt(float(t @ t)) - 1.0),
        abs(math.sqrt(float(n @ n)) - 1.0),
        abs(math.sqrt(float(b @ b)) - 1.0),
    )


@dataclass(frozen=True)
class FrenetFrame:
    """Right-handed orthonormal triad (t, n, b), validated on construction.

    Unit norms, pairwise orthogonality and b = t x n must hold within
    ORTHONORMALITY_TOL.
    """

    t: np.ndarray
    n: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for name in ("t", "n", "b"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (3,):
                raise ValueError(f"frame vector {name} must have shape (3,)")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"frame vector {name} must be finite")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_defect", _frame_defect(self.t, self.n, self.b))
        if self._defect > ORTHONORMALITY_TOL:
            raise ValueError("frame is not orthonormal within tolerance")
        if float(np.max(np.abs(self.b - np.cross(self.t, self.n)))) > ORTHONORMALITY_TOL:
            raise ValueError("frame is not right-handed (b != t x n)")

    @classmethod
    def canonical(cls) -> "FrenetFrame":
        """The axis-aligned frame t = e_x, n = e_y, b = e_z."""
        return cls(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]))

    def orthonormality_defect(self) -> float:
        """Max deviation over the six unit-norm and orthogonality conditions."""
        return self._defect


def _generator(kappa: float, tau: float) -> np.ndarray:
    """Skew matrix A with (t, n, b)' = A (t, n, b), the triad stacked as rows."""
    return np.array([[0.0, kappa, 0.0], [-kappa, 0.0, tau], [0.0, -tau, 0.0]])


def frenet_rhs(frame: FrenetFrame, kappa: float, tau: float):
    """Arclength derivatives (t' = kappa n, n' = -kappa t + tau b, b' = -tau n)."""
    return tuple(_generator(kappa, tau) @ np.array([frame.t, frame.n, frame.b]))


def time_evolution_rhs(frame: FrenetFrame, kappa: float, kappa_prime: float, tau: float):
    """Time derivatives (dt = kappa' b - kappa tau n, dn = kappa tau t, db = -kappa' t)."""
    return (
        kappa_prime * frame.b - kappa * tau * frame.n,
        kappa * tau * frame.t,
        -kappa_prime * frame.t,
    )


@dataclass
class FrameTrajectory:
    """Frame samples along arclength plus the re-orthonormalisation event log."""

    samples: list[tuple[float, FrenetFrame]]
    reorthonormalizations: list[tuple[float, float]] = field(default_factory=list)
    max_defect: float = 0.0

    @property
    def arclengths(self) -> np.ndarray:
        return np.array([s for s, _ in self.samples])

    @property
    def final_frame(self) -> FrenetFrame:
        return self.samples[-1][1]


def _gram_schmidt(y: np.ndarray) -> np.ndarray:
    t = y[0] / np.linalg.norm(y[0])
    n = y[1] - (y[1] @ t) * t
    n = n / np.linalg.norm(n)
    b = np.cross(t, n)
    return np.array([t, n, b])


def integrate_frame(
    profile: CurveProfile,
    s_start: float,
    s_end: float,
    step: float,
    initial: FrenetFrame,
) -> FrameTrajectory:
    """Fixed-step RK4 transport of a Frenet frame over [s_start, s_end].

    The frame is sampled after every step; a shortened final step lands
    exactly on s_end when the span is not an integer number of steps.
    Orthonormality drift beyond ORTHONORMALITY_TOL triggers a Gram-Schmidt
    re-orthonormalisation, recorded in the trajectory.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    if s_end < s_start:
        raise ValueError("s_end must not precede s_start")

    def coeff(s: float) -> np.ndarray:
        return _generator(profile.kappa_at(s), profile.tau_at(s))

    span = s_end - s_start
    n_full = int(math.floor(span / step + 1e-12))
    remainder = span - n_full * step
    n_steps = n_full + (remainder > 1e-12 * max(1.0, abs(span)))

    y = np.array([initial.t, initial.n, initial.b])
    trajectory = FrameTrajectory(samples=[(s_start, initial)])
    s = s_start
    for i in range(n_steps):
        h = step if i < n_full else remainder
        a0 = coeff(s)
        a_mid = coeff(s + 0.5 * h)
        a1 = coeff(s + h)
        k1 = a0 @ y
        k2 = a_mid @ (y + 0.5 * h * k1)
        k3 = a_mid @ (y + 0.5 * h * k2)
        k4 = a1 @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        s = s_end if i == n_steps - 1 else s_start + (i + 1) * step
        defect = _frame_defect(y[0], y[1], y[2])
        trajectory.max_defect = max(trajectory.max_defect, defect)
        if defect > ORTHONORMALITY_TOL:
            trajectory.reorthonormalizations.append((s, defect))
            y = _gram_schmidt(y)
        trajectory.samples.append((s, FrenetFrame(y[0], y[1], y[2])))
    return trajectory


def accumulated_rotation_angle(trajectory: FrameTrajectory) -> float:
    """Total frame rotation angle summed from per-step relative rotations.

    Each step contributes the axis-angle magnitude of R = F1^T F0 where F
    stacks (t, n, b) as rows; summing avoids the mod-2pi folding a single
    endpoint comparison would suffer.
    """
    total = 0.0
    for (_, f0), (_, f1) in pairwise(trajectory.samples):
        m0 = np.array([f0.t, f0.n, f0.b])
        m1 = np.array([f1.t, f1.n, f1.b])
        rot = m1.T @ m0
        cos_term = (np.trace(rot) - 1.0) / 2.0
        skew = 0.5 * np.array(
            [rot[2, 1] - rot[1, 2], rot[0, 2] - rot[2, 0], rot[1, 0] - rot[0, 1]]
        )
        total += math.atan2(float(np.linalg.norm(skew)), float(cos_term))
    return total


def twist_angle(theta_r: float, profile: CurveProfile, s: float, *, min_nodes: int = 101) -> float:
    """Twist angle theta_R - integral of tau from 0 to s.

    Constant torsion integrates exactly; otherwise composite Simpson with at
    least min_nodes nodes, the panel count growing so the panel width stays
    at or below 1e-3.
    """
    if profile.tau_constant is not None:
        return theta_r - profile.tau_constant * s
    if s == 0.0:
        return theta_r
    intervals = max(min_nodes - 1, 2 * math.ceil(abs(s) / 2e-3))
    if intervals % 2:
        intervals += 1
    nodes = np.linspace(0.0, s, intervals + 1)
    values = np.array([profile.tau_at(u) for u in nodes])
    h = s / intervals
    integral = (h / 3.0) * (
        values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-1:2].sum()
    )
    return theta_r - integral


def stretch_factor(r: float, kappa: float, theta: float) -> float:
    """Axial metric stretch K = 1 - r kappa cos(theta).

    A nonpositive result means the tube is thicker than the curvature radius;
    that degeneracy is warned about (MetricDegeneracyWarning), not rejected.
    """
    if r < 0.0:
        raise ValueError("tube radius must be nonnegative")
    k = 1.0 - r * kappa * math.cos(theta)
    if k <= 0.0:
        warnings.warn(
            f"stretch factor {k:.6g} <= 0: tube thicker than curvature radius",
            MetricDegeneracyWarning,
            stacklevel=2,
        )
    return k
