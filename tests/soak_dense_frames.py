"""Soak of integrate_frame's constant-profile chunks against its callable-profile stage loop.

Seeded random constant profiles with h * w from 0.02 to 2.8, w = hypot(kappa, tau), are
integrated twice.  Below the switch near h * w = 0.106 a frame is re-orthonormalised every few
steps or less often; above it, every frame.  As constants the full steps advance in chunks, by
powers of P or, above the switch, of Q = GS(P); as callables each takes one scalar RK4 step and
a Gram-Schmidt when flagged.  Both must give the same event arclengths, frames within
1e-12 + 4 eps * span * w, stored and event defects within 1e-12, and rotation angles within
1e-12 relative: the bounds of tests/test_frenet.py's TestPropagatorMatchesStageLoop.  A run
with a defect within 1e-10 of the tolerance, which rounding alone decides, is skipped and
counted.  Run from the root of a checkout:

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
    accumulated_rotation_angle,
    integrate_frame,
)


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
    for _ in range(count):
        kappa, tau, rate = rng.uniform(0.5, 5.0), rng.uniform(-3.0, 3.0), rng.uniform(0.02, 2.8)
        n_full, fraction = int(rng.integers(1, 5001)), rng.choice([0.0, rng.uniform(0.1, 0.9)])
        step = rate / math.hypot(kappa, tau)
        span = (n_full + fraction) * step
        found = disagreement(kappa, tau, step, span)
        near += found == "near"
        if found not in (None, "near"):
            print(f"seed {seed}: kappa {kappa!r}, tau {tau!r}, step {step!r}, span {span!r}: "
                  f"{found} differ")
            return 1
    print(f"{count - near} constant profiles agree with the stage loop ({near} skipped "
          f"near the tolerance) in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(*map(int, sys.argv[1:])))
