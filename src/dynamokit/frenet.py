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
from dataclasses import dataclass

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
# The identity as nine floats, rows t, n, b
_EYE = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)

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


@dataclass(frozen=True)
class CurveProfile:
    """Curvature/torsion profile kappa(s), tau(s) with optional analytic dkappa/ds.

    kappa, tau and kappa_prime accept a constant or a callable of arclength.
    A constant entry is stored as a float and a callable one as given; the
    profile holds nothing else, so it pickles whenever its callables do.
    When no analytic derivative is supplied, dkappa/ds is 0 for a constant
    kappa and otherwise the central difference (kappa(s+h) - kappa(s-h)) / 2h
    with h = 1e-5, which is consistent with kappa to order h^2.
    """

    kappa: object
    tau: object
    kappa_prime: object = None

    def __post_init__(self):
        for name in ("kappa", "tau", "kappa_prime"):
            value = getattr(self, name)
            if value is not None and not callable(value):
                object.__setattr__(self, name, float(value))

    @classmethod
    def constant(cls, kappa0: float, tau0: float) -> "CurveProfile":
        """Profile with constant curvature and torsion (helix family)."""
        return cls(kappa=float(kappa0), tau=float(tau0))

    @property
    def tau_constant(self) -> float | None:
        """The constant torsion value when tau was supplied as a constant, else None."""
        return None if callable(self.tau) else self.tau

    def kappa_at(self, s: float) -> float:
        k = self.kappa(s) if callable(self.kappa) else self.kappa
        if k < 0.0:
            raise ValueError(f"curvature must be nonnegative, got kappa({s!r}) = {k!r}")
        return k

    def tau_at(self, s: float) -> float:
        return self.tau(s) if callable(self.tau) else self.tau

    def kappa_prime_at(self, s: float) -> float:
        kappa, kappa_prime, h = self.kappa, self.kappa_prime, _FD_STEP
        if kappa_prime is None:
            return (kappa(s + h) - kappa(s - h)) / (2.0 * h) if callable(kappa) else 0.0
        return kappa_prime(s) if callable(kappa_prime) else kappa_prime


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


@dataclass(frozen=True, eq=False)
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

    def __reduce__(self):  # copies go through the constructor, so their vectors are read-only too
        return type(self), (self.t, self.n, self.b)


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


@dataclass(eq=False)
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
    reorthonormalizations: list[tuple[float, float]]
    max_defect: float

    def __setstate__(self, state):  # a pickled or deep-copied trajectory is read-only as well
        vars(self).update(state)
        for array in (self.arclengths, self.frames, self.defects):
            array.setflags(write=False)

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


def _step_matrix(profile: CurveProfile, s: float, h: float) -> list:
    """E = P - I of the RK4 step of length h from s as nine floats, rows t, n, b: the classical
    stages on I, kept apart from I so each entry is rounded relative to the increment, not to 1."""
    eye, half, sixth = _EYE, 0.5 * h, h / 6.0
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
    are rejected before anything is allocated; a step too small to advance
    every sample's s past the one before is rejected before the frames are.
    Orthonormality drift beyond ORTHONORMALITY_TOL triggers a Gram-Schmidt
    re-orthonormalisation, recorded in the trajectory with the drift it removed.

    The RK4 step of y' = A y is linear: y -> E y + y, every E from _step_matrix.  Each
    pass of one loop takes one of two ways and ends in one tail: Gram-Schmidt (GS) on
    a flagged frame, then its store.
    - A constant profile's full steps advance by chunks, P^1..P^m y with P = I + E_1, up
      to the first frame above the tolerance.  If P drifts past the tolerance, so does P y
      for every orthonormal y, and in exact arithmetic GS(P y) = Q y with Q = GS(P), as LQ
      factors are unique.  So the chunk is then Q^1..Q^m y, each frame an event whose drift
      is that of P y, kept up to one whose P y does not drift, whose own defect is above
      the tolerance, or, from a y that GS did not make, the first.  That frame, or else the
      chunk's last, is P y of the one before.
    - A variable profile's steps, and the shortened final step, are scalar steps on the
      frame's nine Python floats, each with its own E.
    m starts at 1, doubles after a chunk kept whole up to 256 and never shrinks.
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
    if not (arclengths[1:] > arclengths[:-1]).all():
        raise ValueError(f"step {step!r} does not strictly advance s from s_start {s_start!r} "
                         f"to s_end {s_end!r}")
    frames = np.empty((n_steps + 1, 3, 3))
    flat = frames.reshape(-1, 9)  # a view: one row of nine entries per frame
    defects = np.empty(n_steps + 1)
    frames[0] = initial.t, initial.n, initial.b
    defects[0] = initial.orthonormality_defect()
    events, i, chunk, e1, dense, clean, y = [], 0, 1, None, False, True, flat[0].tolist()
    if n_full and not (callable(profile.kappa) or callable(profile.tau)):
        e1, passes = _step_matrix(profile, s_start, step), []
        p = [u + e for u, e in zip(_EYE, e1)]
        if _triad_defect(p) > ORTHONORMALITY_TOL:  # so does P y for each orthonormal y
            q = np.subtract(_gram_schmidt(p, arclengths.item(1), math.inf, passes)[0], _EYE)
        dense, e1_matrix = len(passes) == 1, np.reshape(e1, (3, 3))  # GS(P y) takes one pass too
        increments = np.reshape(q if dense else e1, (1, 3, 3))  # P^k - I, or Q^k - I if dense
    while i < n_steps:
        if e1 is not None and i < n_full:
            m = min(chunk, n_full - i)
            while len(increments) < m:  # doubles with the chunk: E_(j+k) = E_j + E_k + E_j E_k
                last = increments[-1]
                increments = np.concatenate((increments, increments + last + increments @ last))
            y = frames[i]
            frames[i + 1:i + m + 1] = (increments[:m].reshape(-1, 3) @ y).reshape(m, 3, 3) + y
            defects[i + 1:i + m + 1] = _frame_defects(frames[i + 1:i + m + 1])
            kept = defects[i + 1:i + m + 1] <= ORTHONORMALITY_TOL
            if dense:  # Q y stands for GS(P y) while P y drifts past the tolerance
                steps = e1_matrix @ frames[i:i + m] + frames[i:i + m]
                drifts = _frame_defects(steps)
                kept &= drifts > ORTHONORMALITY_TOL
                kept[0] &= not clean  # and only from a y that GS made
            # k: the first frame not kept, such as one with a NaN defect (so any non-finite one)
            k = int(np.argmin(kept))
            if kept[k]:  # none: the chunk is kept whole
                k, chunk = m - 1, min(2 * chunk, _MAX_CHUNK)
            i += 1 + k
            y, defect = flat[i].tolist(), defects.item(i)
            if dense:  # the k frames before i are kept with their events; frame i is P y
                events += zip(arclengths[i - k:i].tolist(), drifts[:k].tolist())
                y, defect = steps[k].ravel().tolist(), drifts.item(k)
        else:
            e00, e01, e02, e10, e11, e12, e20, e21, e22 = _step_matrix(
                profile, arclengths.item(i), step if i < n_full else remainder)
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
    # every stored defect is taken after Gram-Schmidt, so each event's defect is above it
    max_defect = max([defects[1:].max(initial=0.0).item(), *(defect for _, defect in events)])
    for array in (arclengths, frames, defects):
        array.setflags(write=False)
    return FrameTrajectory(arclengths, frames, defects, events, max_defect)


def accumulated_rotation_angle(trajectory: FrameTrajectory) -> float:
    """Total frame rotation angle summed from per-step relative rotations.

    Each step contributes the axis-angle magnitude of R = F1^T F0 where F
    stacks (t, n, b) as rows; summing avoids the mod-2pi folding a single
    endpoint comparison would suffer.  Every sum runs left to right: R[i][l] =
    F1[0,i] F0[0,l] + F1[1,i] F0[1,l] + F1[2,i] F0[2,l], the trace R00 + R11 + R22,
    the skew part's norm sqrt(sx sx + sy sy + sz sz), and the angles over the steps.
    """
    frames = trajectory.frames
    # angles[0] = 0 starts the running sum; blocks bound the temporaries at any length
    angles = np.zeros(len(frames))
    for start in range(0, len(frames) - 1, _ANGLE_BLOCK):
        block = frames[start:start + _ANGLE_BLOCK + 1]
        f1, f0 = block[1:], block[:-1]
        r = [[f1[:, 0, i] * f0[:, 0, l] + f1[:, 1, i] * f0[:, 1, l] + f1[:, 2, i] * f0[:, 2, l]
              for l in range(3)] for i in range(3)]
        cos_term = (r[0][0] + r[1][1] + r[2][2] - 1.0) / 2.0
        sx, sy, sz = 0.5 * (r[2][1] - r[1][2]), 0.5 * (r[0][2] - r[2][0]), 0.5 * (r[1][0] - r[0][1])
        angles[start + 1:start + len(block)] = np.arctan2(np.sqrt(sx * sx + sy * sy + sz * sz),
                                                           cos_term)
    return float(np.add.accumulate(angles, out=angles)[-1])


def twist_angle(theta_r: float, profile: CurveProfile, s: float) -> float:
    """Twist angle theta_R - integral of tau from 0 to s.

    Constant torsion integrates exactly; otherwise composite Simpson with at
    least 101 nodes and panels at most 1e-3 wide.  A non-finite s, or one
    needing over MAX_STEPS intervals, is rejected before anything is allocated.
    """
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    if profile.tau_constant is not None:
        return theta_r - profile.tau_constant * s
    if s == 0.0:
        return theta_r
    intervals = max(_SIMPSON_MIN_NODES - 1, 2 * math.ceil(abs(s) / 2e-3))
    if intervals > MAX_STEPS:
        raise ValueError(f"s = {s!r} needs {intervals} intervals; at most {MAX_STEPS} are allowed")
    nodes = np.linspace(0.0, s, intervals + 1)
    values = np.fromiter(map(profile.tau_at, map(float, nodes)), float, len(nodes))
    h = s / intervals
    integral = (h / 3.0) * (values[0] + values[-1] + 4.0 * values[1:-1:2].sum()
                            + 2.0 * values[2:-1:2].sum())
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
