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
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

ORTHONORMALITY_TOL = 1e-8
# Largest step count integrate_frame accepts (a trajectory stores 88 B per sample)
MAX_STEPS = 10**7
# Central-difference step for dkappa/ds when no analytic derivative is given
_FD_STEP = 1e-5
# Fewest Simpson nodes twist_angle uses for a variable torsion
_SIMPSON_MIN_NODES = 101
# Longest run of constant-profile steps advanced and checked in one batch
_MAX_CHUNK = 256
# Frame pairs accumulated_rotation_angle handles per batch
_ANGLE_BLOCK = 4096
# Left then right rows of the pairs t.n, t.b, n.b, t.t, n.n, b.b that make up the defect
_DEFECT_ROWS = np.array([0, 0, 1, 0, 1, 2, 1, 2, 2, 0, 1, 2])

__all__ = [
    "ORTHONORMALITY_TOL",
    "MAX_STEPS",
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
    difference (kappa(s+h) - kappa(s-h)) / 2h with h = 1e-5, which is
    consistent with kappa to order h^2.
    """

    kappa: object
    tau: object
    kappa_prime: object = None

    def __post_init__(self):
        kappa_fn, kappa_const = _as_profile_function(self.kappa)
        tau_fn, tau_const = _as_profile_function(self.tau)
        if self.kappa_prime is not None:
            kp_fn, _ = _as_profile_function(self.kappa_prime)
        elif kappa_const is not None:
            kp_fn = lambda s: 0.0  # noqa: E731 - constant curvature
        else:
            h = _FD_STEP
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


def _frame_defects(frames: np.ndarray) -> np.ndarray:
    """Orthonormality defect of each triad in an (m, 3, 3) stack with rows t, n, b.

    The max over |t.n|, |t.b|, |n.b| and |norm - 1| of each row.  Each value is
    formed elementwise, so a frame's defect does not depend on the stack it is in.
    """
    rows = frames[:, _DEFECT_ROWS]
    products = rows[:, :6] * rows[:, 6:]
    dots = products[..., 0] + products[..., 1] + products[..., 2]
    norms = dots[:, 3:]
    np.sqrt(norms, out=norms)
    norms -= 1.0
    return np.maximum.reduce(np.abs(dots, out=dots), axis=1)


@dataclass(frozen=True)
class FrenetFrame:
    """Right-handed orthonormal triad (t, n, b), validated on construction.

    Unit norms and pairwise orthogonality must hold within ORTHONORMALITY_TOL,
    the defect integrate_frame keeps every stored frame within, and b . (t x n)
    must be positive; b then lies within about 3 * ORTHONORMALITY_TOL of t x n.
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
        y = [*self.t.tolist(), *self.n.tolist(), *self.b.tolist()]
        object.__setattr__(self, "_defect", _triad_defect(y))
        if self._defect > ORTHONORMALITY_TOL:
            raise ValueError("frame is not orthonormal within tolerance")
        t0, t1, t2, n0, n1, n2, b0, b1, b2 = y
        if not b0 * (t1 * n2 - t2 * n1) + b1 * (t2 * n0 - t0 * n2) + b2 * (t0 * n1 - t1 * n0) > 0.0:
            raise ValueError("frame is not right-handed (b . (t x n) <= 0)")

    @classmethod
    def canonical(cls) -> "FrenetFrame":
        """The axis-aligned frame t = e_x, n = e_y, b = e_z."""
        return cls(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]))

    def orthonormality_defect(self) -> float:
        """Max deviation over the six unit-norm and orthogonality conditions."""
        return self._defect


def _frenet_derivative(kappa: float, tau: float, y) -> tuple:
    """(t', n', b') = (kappa n, -kappa t + tau b, -tau n) of a triad given as its nine entries."""
    t0, t1, t2, n0, n1, n2, b0, b1, b2 = y
    return (kappa * n0, kappa * n1, kappa * n2, -kappa * t0 + tau * b0, -kappa * t1 + tau * b1,
            -kappa * t2 + tau * b2, -tau * n0, -tau * n1, -tau * n2)


def frenet_rhs(frame: FrenetFrame, kappa: float, tau: float):
    """Arclength derivatives (t' = kappa n, n' = -kappa t + tau b, b' = -tau n)."""
    y = np.concatenate((frame.t, frame.n, frame.b)).tolist()
    return tuple(np.array(_frenet_derivative(kappa, tau, y)).reshape(3, 3))


def time_evolution_rhs(frame: FrenetFrame, kappa: float, kappa_prime: float, tau: float):
    """Time derivatives (dt = kappa' b - kappa tau n, dn = kappa tau t, db = -kappa' t)."""
    return (
        kappa_prime * frame.b - kappa * tau * frame.n,
        kappa * tau * frame.t,
        -kappa_prime * frame.t,
    )


class _FrameSamples(Sequence):
    """Read-only (s, FrenetFrame) view of a trajectory; a frame is built and validated when read."""

    def __init__(self, trajectory: "FrameTrajectory"):
        self._trajectory = trajectory

    def __len__(self) -> int:
        return len(self._trajectory.arclengths)

    def __getitem__(self, index: int | slice):
        if isinstance(index, slice):
            return [self[k] for k in range(len(self))[index]]
        trajectory = self._trajectory
        return float(trajectory.arclengths[index]), FrenetFrame(*trajectory.frames[index])


@dataclass
class FrameTrajectory:
    """Frame samples along arclength plus the re-orthonormalisation event log.

    Sample i is the triad ``frames[i]`` (rows t, n, b) at ``arclengths[i]``
    with orthonormality defect ``defects[i]``; the arrays are read-only.
    Frames are validated only where handed out: ``final_frame`` and the
    items of ``samples``.
    """

    arclengths: np.ndarray
    frames: np.ndarray
    defects: np.ndarray
    reorthonormalizations: list[tuple[float, float]] = field(default_factory=list)
    max_defect: float = 0.0

    @property
    def samples(self) -> Sequence[tuple[float, FrenetFrame]]:
        return _FrameSamples(self)

    @property
    def final_frame(self) -> FrenetFrame:
        return FrenetFrame(*self.frames[-1])


def _triad_defect(y) -> float:
    """_frame_defects of one triad given as its nine entries, in the same operation order."""
    t0, t1, t2, n0, n1, n2, b0, b1, b2 = y
    return max(abs(t0 * n0 + t1 * n1 + t2 * n2), abs(t0 * b0 + t1 * b1 + t2 * b2),
               abs(n0 * b0 + n1 * b1 + n2 * b2), abs(math.sqrt(t0 * t0 + t1 * t1 + t2 * t2) - 1.0),
               abs(math.sqrt(n0 * n0 + n1 * n1 + n2 * n2) - 1.0),
               abs(math.sqrt(b0 * b0 + b1 * b1 + b2 * b2) - 1.0))


def _gram_schmidt(y, s: float, defect: float, events: list) -> tuple[tuple, float]:
    """Gram-Schmidt of a frame flagged at s with this defect, an event per pass (t and n nearly
    parallel need two): unit t, n normal to t, b = t x n and their defect.  Raises if not finite."""
    while True:
        events.append((s, defect))
        t0, t1, t2, n0, n1, n2 = y[:6]
        norm = math.sqrt(t0 * t0 + t1 * t1 + t2 * t2) or math.nan  # a zero row has no direction
        t0, t1, t2 = t0 / norm, t1 / norm, t2 / norm
        d = n0 * t0 + n1 * t1 + n2 * t2
        n0, n1, n2 = n0 - d * t0, n1 - d * t1, n2 - d * t2
        norm = math.sqrt(n0 * n0 + n1 * n1 + n2 * n2) or math.nan
        n0, n1, n2 = n0 / norm, n1 / norm, n2 / norm
        # unit t and n bound every entry, so the sum is finite exactly when all of them are
        if not math.isfinite(t0 + t1 + t2 + n0 + n1 + n2):
            raise ValueError(f"frame is not finite at s = {s!r}")
        y = t0, t1, t2, n0, n1, n2, t1 * n2 - t2 * n1, t2 * n0 - t0 * n2, t0 * n1 - t1 * n0
        defect = _triad_defect(y)
        if defect <= ORTHONORMALITY_TOL:
            return y, defect


def _dense_steps(e, profile: CurveProfile, flat, defects, arclengths, i: int, n_full: int,
                 step: float, remainder: float, events: list) -> int:
    """Steps y <- E y + y on the frame's nine Python floats from sample i, each with its defect
    and event; a full step takes the given 3x3 E (E_1 after a chunk's event), any other its own
    _step_matrix.  Given E, stops after the first clean full step, else at the end of the run."""
    full = None if e is None else e.ravel().tolist()
    n_steps, y, clean = len(arclengths) - 1, flat[i].tolist(), False
    while i < n_steps and not (clean and full is not None):
        coeffs = full
        if full is None or i >= n_full:
            h = step if i < n_full else remainder
            coeffs = _step_matrix(profile, arclengths.item(i), h)
        e00, e01, e02, e10, e11, e12, e20, e21, e22 = coeffs
        t0, t1, t2, n0, n1, n2, b0, b1, b2 = y
        y = (e00 * t0 + e01 * n0 + e02 * b0 + t0, e00 * t1 + e01 * n1 + e02 * b1 + t1,
             e00 * t2 + e01 * n2 + e02 * b2 + t2, e10 * t0 + e11 * n0 + e12 * b0 + n0,
             e10 * t1 + e11 * n1 + e12 * b1 + n1, e10 * t2 + e11 * n2 + e12 * b2 + n2,
             e20 * t0 + e21 * n0 + e22 * b0 + b0, e20 * t1 + e21 * n1 + e22 * b1 + b1,
             e20 * t2 + e21 * n2 + e22 * b2 + b2)
        i, defect = i + 1, _triad_defect(y)
        if defect <= ORTHONORMALITY_TOL and not math.isfinite(sum(y)):
            defect = math.nan  # max() passes over a NaN; the sum of entries near 1 does not
        clean = defect <= ORTHONORMALITY_TOL
        if not clean:
            y, defect = _gram_schmidt(y, arclengths.item(i), defect, events)
        flat[i], defects[i] = y, defect
    return i


def _step_matrix(profile: CurveProfile, s: float, h: float) -> list:
    """E = P - I of the RK4 step of length h from s as nine floats, rows t, n, b: the classical
    stages on I, kept apart from I so each entry is rounded relative to the increment, not to 1."""
    eye, half, sixth = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0), 0.5 * h, h / 6.0
    (k0, t0), (k_mid, t_mid), (k1, t1) = [(profile.kappa_at(u), profile.tau_at(u))
                                          for u in (s, s + half, s + h)]
    d1 = _frenet_derivative(k0, t0, eye)
    d2 = _frenet_derivative(k_mid, t_mid, [u + half * d for u, d in zip(eye, d1)])
    d3 = _frenet_derivative(k_mid, t_mid, [u + half * d for u, d in zip(eye, d2)])
    d4 = _frenet_derivative(k1, t1, [u + h * d for u, d in zip(eye, d3)])
    return [sixth * (a + 2.0 * b + 2.0 * c + d) for a, b, c, d in zip(d1, d2, d3, d4)]


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
    Non-finite bounds or step, and spans needing more than MAX_STEPS steps,
    are rejected before anything is allocated.
    Orthonormality drift beyond ORTHONORMALITY_TOL triggers a Gram-Schmidt
    re-orthonormalisation, recorded in the trajectory with the drift it removed.

    The RK4 step of y' = A y is linear: y -> E y + y, every E from _step_matrix.
    A constant profile's full steps advance in chunks P^1..P^m y, P = I + E_1,
    scanned for the first frame above the tolerance; m starts at 1, doubles after
    a clean chunk up to 256 and never shrinks.  All other steps run in one scalar
    loop on the frame's nine Python floats, each with its defect and event: a
    variable profile's steps and the shortened final step with their own E, and
    after a chunk's event, E_1 steps up to a clean one, where the scan resumes.
    """
    if not all(map(math.isfinite, (s_start, s_end, step))):
        raise ValueError(f"s_start, s_end and step must be finite, got {s_start}, {s_end}, {step}")
    if step <= 0.0:
        raise ValueError("step must be positive")
    if s_end < s_start:
        raise ValueError("s_end must not precede s_start")
    span = s_end - s_start
    requested = span / step
    if not requested <= MAX_STEPS:
        raise ValueError(f"{requested:.6g} steps requested; at most {MAX_STEPS} are allowed")

    n_full = int(math.floor(requested + 1e-12))
    remainder = span - n_full * step
    n_steps = n_full + (remainder > 1e-12 * max(1.0, abs(span)))

    arclengths = np.append(s_start, s_start + np.arange(1, n_steps + 1) * step)
    if n_steps:
        arclengths[-1] = s_end
    frames = np.empty((n_steps + 1, 3, 3))
    flat = frames.reshape(-1, 9)  # a view: one row of nine entries per frame
    defects = np.empty(n_steps + 1)
    frames[0] = initial.t, initial.n, initial.b
    defects[0] = initial.orthonormality_defect()
    events, i, chunk, e1 = [], 0, 1, None
    if n_full and profile._kappa_const is not None and profile._tau_const is not None:
        e1 = np.array(_step_matrix(profile, s_start, step)).reshape(3, 3)
        increments = e1[None]  # E_k = P^k - I for k = 1, 2, ...
    while i < n_steps:
        if e1 is not None and i < n_full:
            m = min(chunk, n_full - i)
            while len(increments) < m:  # doubles with the chunk: E_(j+k) = E_j + E_k + E_j E_k
                last = increments[-1]
                increments = np.concatenate((increments, increments + last + increments @ last))
            y = frames[i]
            frames[i + 1:i + m + 1] = (increments[:m].reshape(-1, 3) @ y).reshape(m, 3, 3) + y
            defects[i + 1:i + m + 1] = _frame_defects(frames[i + 1:i + m + 1])
            # the first frame above the tolerance, or with a NaN defect, ends the chunk
            k = int(np.argmin(defects[i + 1:i + m + 1] <= ORTHONORMALITY_TOL))
            if defects.item(i + 1 + k) <= ORTHONORMALITY_TOL:
                i, chunk = i + m, min(2 * chunk, _MAX_CHUNK)
                continue
            i += 1 + k
            # a non-finite frame has a non-finite defect, so only a flagged frame can be one
            flat[i], defects[i] = _gram_schmidt(flat[i].tolist(), arclengths.item(i),
                                                defects.item(i), events)
        i = _dense_steps(e1, profile, flat, defects, arclengths, i, n_full, step, remainder, events)
    # every stored defect is taken after Gram-Schmidt, so each event's defect is above it
    max_defect = max([defects[1:].max(initial=0.0).item(), *(defect for _, defect in events)])
    for array in (arclengths, frames, defects):
        array.setflags(write=False)
    return FrameTrajectory(arclengths, frames, defects, events, max_defect)


def accumulated_rotation_angle(trajectory: FrameTrajectory) -> float:
    """Total frame rotation angle summed from per-step relative rotations.

    Each step contributes the axis-angle magnitude of R = F1^T F0 where F
    stacks (t, n, b) as rows; summing avoids the mod-2pi folding a single
    endpoint comparison would suffer.  The sum runs left to right.
    """
    frames = trajectory.frames
    # angles[0] = 0 starts the running sum; blocks bound the temporaries at any length
    angles = np.zeros(len(frames))
    for start in range(0, len(frames) - 1, _ANGLE_BLOCK):
        block = frames[start:start + _ANGLE_BLOCK + 1]
        rot = np.einsum("kji,kjl->kil", block[1:], block[:-1])
        cos_term = (np.trace(rot, axis1=1, axis2=2) - 1.0) / 2.0
        skew = 0.5 * np.stack(
            (rot[:, 2, 1] - rot[:, 1, 2], rot[:, 0, 2] - rot[:, 2, 0], rot[:, 1, 0] - rot[:, 0, 1]),
            axis=1,
        )
        angles[start + 1:start + len(block)] = np.arctan2(np.linalg.norm(skew, axis=1), cos_term)
    return float(np.add.accumulate(angles, out=angles)[-1])


def twist_angle(theta_r: float, profile: CurveProfile, s: float) -> float:
    """Twist angle theta_R - integral of tau from 0 to s.

    Constant torsion integrates exactly; otherwise composite Simpson with at
    least 101 nodes, the panel count growing so the panel width stays
    at or below 1e-3.
    """
    if profile.tau_constant is not None:
        return theta_r - profile.tau_constant * s
    if s == 0.0:
        return theta_r
    intervals = max(_SIMPSON_MIN_NODES - 1, 2 * math.ceil(abs(s) / 2e-3))
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
    A non-finite argument is rejected, as it would yield no warnable value.
    """
    if not all(map(math.isfinite, (r, kappa, theta))):
        raise ValueError(f"r, kappa and theta must be finite, got {r}, {kappa}, {theta}")
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
