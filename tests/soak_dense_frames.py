"""Soak of integrate_frame's constant-profile chunks against its callable-profile stage loop.

Seeded random constant profiles with h * w from 0.02 to 2.8, w = hypot(kappa, tau), are
integrated twice.  With P the one-step RK4 matrix, events come every K steps, K the first k
whose P^k drifts past the tolerance: K = 1 above h * w near 0.106, where every frame is
re-orthonormalised, and K grows below it.  h * w is drawn log-uniformly, so that about a third
of the profiles lie below that switch.  As constants the full steps advance in chunks, whole
periods P^1..P^(K-1) Q^j y, Q^(j+1) y with Q = GS(P^K) while K <= 256, else P^1..P^256 y; as
callables each takes one scalar RK4 step and a Gram-Schmidt when flagged.  Both runs of a
profile must give the same event arclengths, frames within 1e-12 + 4 eps * span * w, stored and
event defects within 1e-12, and rotation angles within 1e-12 relative: the bounds of
tests/test_frenet.py's TestPropagatorMatchesStageLoop.  A run with a defect within 1e-10 of the
tolerance, which rounding alone decides, is skipped and counted.  The summary line also counts
the profiles drawn, and those skipped, in each regime: K = 1, 2 <= K <= 256, and no K up to
256.  Run from the root of a checkout:

    PYTHONPATH=src python tests/soak_dense_frames.py [count [seed]]

count, the number of profiles, defaults to 300 and seed to 1; each run takes up to 5000 full
steps and may end in a shortened one.  Exit status 0 when every run agrees, 1 at the first one
that does not, which it names.
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np

from dynamokit.frenet import (
    ORTHONORMALITY_TOL,
    CurveProfile,
    FrenetFrame,
    _frame_defects,
    _step_matrix,
    accumulated_rotation_angle,
    integrate_frame,
)


def regime(kappa: float, tau: float, step: float) -> str:
    """K = 1, 2 <= K <= 256 or no K, K from the powers of the one-step matrix P alone."""
    p = np.eye(3) + np.reshape(_step_matrix(CurveProfile.constant(kappa, tau), 0.0, step), (3, 3))
    power = p
    for k in range(1, 257):
        if _frame_defects(power[None])[0] > ORTHONORMALITY_TOL:
            return "K = 1" if k == 1 else "2 <= K <= 256"
        power = power @ p
    return "no K"


def disagreement(kappa: float, tau: float, step: float, span: float) -> str | None:
    """What the two runs of one profile disagree on, None if nothing, "near" if skipped."""
    start = FrenetFrame.canonical()
    dense = integrate_frame(CurveProfile.constant(kappa, tau), 0.0, span, step, start)
    stage = integrate_frame(CurveProfile(kappa=lambda s: kappa, tau=lambda s: tau),
                            0.0, span, step, start)
    near = np.append(stage.defects, [d for _, d in stage.reorthonormalizations])
    if np.abs(near - ORTHONORMALITY_TOL).min() <= 1e-10:
        return "near"
    events = np.reshape(dense.reorthonormalizations, (-1, 2))  # rows (s, defect)
    stage_events = np.reshape(stage.reorthonormalizations, (-1, 2))
    if not np.array_equal(events[:, 0], stage_events[:, 0]):
        return "event arclengths"
    frame_bound = 1e-12 + 4.0 * sys.float_info.epsilon * span * math.hypot(kappa, tau)
    if not np.abs(dense.frames - stage.frames).max() <= frame_bound:
        return f"frames (bound {frame_bound:.3g})"
    if not np.abs(dense.defects - stage.defects).max() <= 1e-12:
        return "stored defects"
    if not np.abs(events[:, 1] - stage_events[:, 1]).max(initial=0.0) <= 1e-12:
        return "event defects"
    expected = accumulated_rotation_angle(stage)
    if not abs(accumulated_rotation_angle(dense) - expected) <= 1e-12 * expected:
        return "rotation angle"
    return None


def main(count: int = 300, seed: int = 1) -> int:
    rng = np.random.default_rng(seed)
    start, near = time.perf_counter(), 0
    regimes = {name: [0, 0] for name in ("K = 1", "2 <= K <= 256", "no K")}  # drawn, skipped
    for _ in range(count):
        kappa, tau = rng.uniform(0.5, 5.0), rng.uniform(-3.0, 3.0)
        rate = math.exp(rng.uniform(math.log(0.02), math.log(2.8)))
        n_full, fraction = int(rng.integers(1, 5001)), rng.choice([0.0, rng.uniform(0.1, 0.9)])
        step = rate / math.hypot(kappa, tau)
        span = (n_full + fraction) * step
        counts = regimes[regime(kappa, tau, step)]
        found = disagreement(kappa, tau, step, span)
        near += found == "near"
        counts[0], counts[1] = counts[0] + 1, counts[1] + (found == "near")
        if found not in (None, "near"):
            print(f"seed {seed}: kappa {kappa!r}, tau {tau!r}, step {step!r}, span {span!r}: "
                  f"{found} differ")
            return 1
    drawn = ", ".join(f"{n} with {name} ({skipped} skipped)"
                      for name, (n, skipped) in regimes.items())
    print(f"{count - near} constant profiles agree with the stage loop ({near} skipped "
          f"near the tolerance; {drawn}) in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(*map(int, sys.argv[1:])))
