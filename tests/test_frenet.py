import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dynamokit import frenet
from dynamokit.frenet import (
    ORTHONORMALITY_TOL,
    CurveProfile,
    FrenetFrame,
    MetricDegeneracyWarning,
    accumulated_rotation_angle,
    frenet_rhs,
    integrate_frame,
    stretch_factor,
    time_evolution_rhs,
    twist_angle,
)


def helix_frame(kappa: float, tau: float, s: float) -> FrenetFrame:
    """Closed-form helix frame: radius a = kappa/w^2, pitch b = tau/w^2, w^2 = kappa^2 + tau^2."""
    w2 = kappa * kappa + tau * tau
    a, b = kappa / w2, tau / w2
    c = 1.0 / math.sqrt(w2)
    theta = s / c
    t = np.array([-(a / c) * math.sin(theta), (a / c) * math.cos(theta), b / c])
    n = np.array([-math.cos(theta), -math.sin(theta), 0.0])
    bb = np.array([(b / c) * math.sin(theta), -(b / c) * math.cos(theta), a / c])
    return FrenetFrame(t, n, bb)


def frame_defect(frame: np.ndarray) -> float:
    """Orthonormality defect of a (3, 3) triad, summed in Python floats in _frame_defects' order."""
    t, n, b = frame.tolist()

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

    return max(abs(dot(t, n)), abs(dot(t, b)), abs(dot(n, b)),
               *(abs(math.sqrt(dot(u, u)) - 1.0) for u in (t, n, b)))


def frame_distance(f1: FrenetFrame, f2: FrenetFrame) -> float:
    return max(
        float(np.max(np.abs(f1.t - f2.t))),
        float(np.max(np.abs(f1.n - f2.n))),
        float(np.max(np.abs(f1.b - f2.b))),
    )


class TestFrenetFrame:
    def test_canonical_is_valid(self):
        frame = FrenetFrame.canonical()
        assert frame.orthonormality_defect() == 0.0

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            FrenetFrame(np.array([1.0, 0, 0]), np.array([1.0, 0, 0]), np.array([0, 0, 1.0]))

    def test_rejects_left_handed(self):
        with pytest.raises(ValueError):
            FrenetFrame(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, -1.0]))

    @pytest.mark.parametrize("mirror", ["reflected t", "b = -t x n"])
    def test_rejects_mirrored_helix_frame(self, mirror):
        frame = helix_frame(1.3, 0.7, 0.4)
        t, n, b = frame.t, frame.n, frame.b
        triad = (-t, n, b) if mirror == "reflected t" else (t, n, -np.cross(t, n))
        with pytest.raises(ValueError, match="right-handed"):
            FrenetFrame(*triad)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            FrenetFrame(np.array([2.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0]))

    @pytest.mark.parametrize("t,message", [
        ([1.0, 0.0], "frame vector t must have shape"),
        ([[1.0, 0.0, 0.0]], "frame vector t must have shape"),
        ([math.nan, 0.0, 0.0], "frame vector t must be finite"),
        ([math.inf, 0.0, 0.0], "frame vector t must be finite"),
    ])
    def test_rejects_a_malformed_vector(self, t, message):
        with pytest.raises(ValueError, match=message):
            FrenetFrame(np.array(t), np.array([0, 1.0, 0]), np.array([0, 0, 1.0]))


class TestArclengthRhs:
    def test_straight_line_is_stationary(self):
        dt, dn, db = frenet_rhs(FrenetFrame.canonical(), 0.0, 0.0)
        assert not np.any(dt) and not np.any(dn) and not np.any(db)

    def test_unit_circle_rhs(self):
        frame = FrenetFrame.canonical()
        dt, dn, db = frenet_rhs(frame, 1.0, 0.0)
        np.testing.assert_array_equal(dt, frame.n)
        np.testing.assert_array_equal(dn, -frame.t)
        assert not np.any(db)

    def test_normal_derivative_mixes_curvature_and_torsion(self):
        frame = FrenetFrame.canonical()
        _, dn, _ = frenet_rhs(frame, 2.0, 3.0)
        np.testing.assert_array_equal(dn, -2.0 * frame.t + 3.0 * frame.b)

    @pytest.mark.parametrize("kappa,tau", [(0.5, 0.0), (1.0, 1.0), (2.0, 3.0)])
    def test_skew_symmetry_is_exact(self, kappa, tau):
        frame = FrenetFrame.canonical()
        dt, dn, _ = frenet_rhs(frame, kappa, tau)
        # d/ds (t . n) expanded with the returned derivatives
        assert float(dt @ frame.n + frame.t @ dn) == 0.0

    @given(
        angles=st.tuples(*[st.floats(-math.pi, math.pi)] * 3),
        kappa=st.floats(0.0, 5.0),
        tau=st.floats(-5.0, 5.0),
    )
    def test_random_frames_follow_the_frenet_serret_equations(self, angles, kappa, tau):
        # rows of the rotation Rz(a) Rx(b) Rz(c): a right-handed orthonormal triad
        (ca, cb, cc), (sa, sb, sc) = np.cos(angles), np.sin(angles)
        rz_a = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
        rx_b = np.array([[1.0, 0.0, 0.0], [0.0, cb, -sb], [0.0, sb, cb]])
        rz_c = np.array([[cc, -sc, 0.0], [sc, cc, 0.0], [0.0, 0.0, 1.0]])
        frame = FrenetFrame(*(rz_a @ rx_b @ rz_c))
        dt, dn, db = frenet_rhs(frame, kappa, tau)
        np.testing.assert_array_equal(dt, kappa * frame.n)
        np.testing.assert_array_equal(dn, -kappa * frame.t + tau * frame.b)
        np.testing.assert_array_equal(db, -tau * frame.n)


class TestTimeEvolutionRhs:
    def test_static_when_kappa_prime_and_tau_vanish(self):
        dt, dn, db = time_evolution_rhs(FrenetFrame.canonical(), 1.0, 0.0, 0.0)
        assert not np.any(dt) and not np.any(dn) and not np.any(db)

    def test_torsion_coupling(self):
        frame = FrenetFrame.canonical()
        dt, dn, db = time_evolution_rhs(frame, 1.0, 0.0, 2.0)
        np.testing.assert_array_equal(dt, -2.0 * frame.n)
        np.testing.assert_array_equal(dn, 2.0 * frame.t)
        assert not np.any(db)

    def test_curvature_gradient_coupling(self):
        frame = FrenetFrame.canonical()
        dt, dn, db = time_evolution_rhs(frame, 1.0, 1.0, 0.0)
        np.testing.assert_array_equal(dt, frame.b)
        assert not np.any(dn)
        np.testing.assert_array_equal(db, -frame.t)


class TestIntegrateFrame:
    def test_straight_line_frame_is_constant(self):
        traj = integrate_frame(
            CurveProfile.constant(0.0, 0.0), 0.0, 3.0, 0.01, FrenetFrame.canonical()
        )
        assert frame_distance(traj.final_frame, FrenetFrame.canonical()) == 0.0
        assert traj.max_defect == 0.0
        assert traj.reorthonormalizations == []

    def test_unit_circle_closes_after_full_turn(self):
        start = FrenetFrame.canonical()
        traj = integrate_frame(CurveProfile.constant(1.0, 0.0), 0.0, 2.0 * math.pi, 1e-3, start)
        assert frame_distance(traj.final_frame, start) < 1e-8
        assert traj.samples[-1][0] == 2.0 * math.pi

    def test_helix_matches_closed_form(self):
        kappa, tau, span = 1.0, 1.0, 5.0
        start = helix_frame(kappa, tau, 0.0)
        traj = integrate_frame(CurveProfile.constant(kappa, tau), 0.0, span, 1e-3, start)
        assert frame_distance(traj.final_frame, helix_frame(kappa, tau, span)) < 1e-8

    def test_helix_rotation_angle(self):
        kappa, tau, span = 1.0, 1.0, 5.0
        traj = integrate_frame(
            CurveProfile.constant(kappa, tau), 0.0, span, 1e-3, helix_frame(kappa, tau, 0.0)
        )
        expected = span * math.sqrt(kappa * kappa + tau * tau)
        assert accumulated_rotation_angle(traj) == pytest.approx(expected, abs=1e-7)

    def test_orthonormality_stays_tight_without_events(self):
        traj = integrate_frame(
            CurveProfile.constant(1.0, 1.0), 0.0, 5.0, 1e-3, helix_frame(1.0, 1.0, 0.0)
        )
        assert traj.max_defect < 1e-8
        assert traj.reorthonormalizations == []

    def test_coarse_step_triggers_reorthonormalization_events(self):
        traj = integrate_frame(
            CurveProfile.constant(3.0, 0.0), 0.0, 40.0, 0.5, FrenetFrame.canonical()
        )
        assert len(traj.reorthonormalizations) > 0
        # frames stay valid because drift is projected out once flagged
        assert traj.final_frame.orthonormality_defect() <= 1e-8

    def test_sampled_at_every_step(self):
        traj = integrate_frame(
            CurveProfile.constant(1.0, 0.0), 0.0, 1.0, 0.25, FrenetFrame.canonical()
        )
        assert [s for s, _ in traj.samples] == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            integrate_frame(CurveProfile.constant(1.0, 0.0), 0.0, 1.0, 0.0, FrenetFrame.canonical())
        with pytest.raises(ValueError):
            integrate_frame(
                CurveProfile.constant(1.0, 0.0), 0.0, 1.0, -0.1, FrenetFrame.canonical()
            )

    def test_samples_view_over_arrays(self):
        traj = integrate_frame(
            CurveProfile.constant(1.0, 1.0), 0.0, 1.0, 0.1, helix_frame(1.0, 1.0, 0.0)
        )
        assert traj.frames.shape == (11, 3, 3)
        assert len(traj.samples) == len(traj.arclengths) == len(traj.defects) == 11
        s, last = traj.samples[-1]
        assert isinstance(last, FrenetFrame)
        assert s == 1.0
        np.testing.assert_array_equal(np.array([last.t, last.n, last.b]), traj.frames[-1])
        frames = [frame for _, frame in traj.samples]
        assert len(frames) == 11 and all(isinstance(f, FrenetFrame) for f in frames)
        assert [f.orthonormality_defect() for f in frames] == traj.defects.tolist()
        assert not traj.frames.flags.writeable

    def test_samples_items_are_validated_when_read(self):
        traj = integrate_frame(
            CurveProfile.constant(1.0, 0.0), 0.0, 1.0, 0.5, FrenetFrame.canonical()
        )
        broken = traj.frames.copy()
        broken[-1, 2] *= -1.0
        traj.frames = broken
        assert len(traj.samples) == 3
        assert isinstance(traj.samples[0][1], FrenetFrame)
        with pytest.raises(ValueError):
            traj.samples[-1]
        with pytest.raises(ValueError):
            traj.final_frame

    def test_samples_slice_to_validated_pairs(self):
        traj = integrate_frame(
            CurveProfile.constant(1.0, 0.0), 0.0, 1.0, 0.25, FrenetFrame.canonical()
        )
        pairs = traj.samples[1:3]
        assert isinstance(pairs, list) and [s for s, _ in pairs] == [0.25, 0.5]
        assert all(isinstance(frame, FrenetFrame) for _, frame in pairs)
        np.testing.assert_array_equal(np.array([pairs[1][1].t, pairs[1][1].n, pairs[1][1].b]),
                                      traj.frames[2])
        assert [s for s, _ in traj.samples[::-2]] == [1.0, 0.5, 0.0]
        assert traj.samples[3:1] == [] and traj.samples[10:] == []
        broken = traj.frames.copy()
        broken[2, 2] *= -1.0
        traj.frames = broken
        assert len(traj.samples[:2]) == 2
        with pytest.raises(ValueError, match="right-handed"):
            traj.samples[1:3]

    def test_coarse_run_defects_follow_reorthonormalization(self):
        traj = integrate_frame(
            CurveProfile.constant(3.0, 0.0), 0.0, 40.0, 0.5, FrenetFrame.canonical()
        )
        assert len(traj.samples) == 81
        assert traj.reorthonormalizations
        assert traj.max_defect == max(defect for _, defect in traj.reorthonormalizations)
        assert float(traj.defects.max()) <= 1e-8

    @pytest.mark.parametrize("kappa,span,step,n_events", [
        (3.0, 100.0, 0.05, 2000),  # the coarse CLI run: an event on every step
        (3.0, 40.0, 0.5, 80),
        (3.0, 40.25, 0.5, 81),     # the shortened last step triggers an event
        (3.0, 0.62, 0.02, 1),      # 31 steps, the only event on the last one
        (3.0, 0.6, 0.02, 0),       # the same run one step short: no event
    ])
    @pytest.mark.parametrize("as_callable", [False, True], ids=["propagator", "stage-loop"])
    def test_stored_defects_after_events(self, kappa, span, step, n_events, as_callable):
        # the scan after an event records the re-orthonormalised frame's defect
        profile = (CurveProfile(kappa=lambda s: kappa, tau=lambda s: 0.0) if as_callable
                   else CurveProfile.constant(kappa, 0.0))
        traj = integrate_frame(profile, 0.0, span, step, FrenetFrame.canonical())
        assert traj.arclengths[-1] == span
        assert [frame_defect(frame) for frame in traj.frames] == traj.defects.tolist()
        events = traj.reorthonormalizations
        # a re-orthonormalised frame is tight enough to pass FrenetFrame's checks
        for k in np.searchsorted(traj.arclengths, [s for s, _ in events]):
            assert FrenetFrame(*traj.frames[k]).orthonormality_defect() == traj.defects[k]
        assert len(events) == n_events
        assert [s for s, _ in events][-1:] == ([span] if n_events else [])
        assert traj.max_defect == (max(defect for _, defect in events) if events
                                   else float(traj.defects[1:].max()))

    @settings(max_examples=25, deadline=None)
    @example(kappa=3.0, tau=0.0, step=0.02, n_steps=30, variable=False)  # no event
    @example(kappa=1.3, tau=0.7, step=0.03, n_steps=10000, variable=False)  # sparse events
    @example(kappa=3.0, tau=0.0, step=0.05, n_steps=2000, variable=False)  # an event per step
    @example(kappa=3.0, tau=0.5, step=0.05, n_steps=400, variable=True)
    @given(
        kappa=st.floats(0.0, 3.0),
        tau=st.floats(-1.0, 1.0),
        step=st.floats(1e-3, 0.05),
        n_steps=st.integers(0, 2000),
        variable=st.booleans(),
    )
    def test_every_stored_frame_is_a_frenet_frame(self, kappa, tau, step, n_steps, variable):
        profile = (CurveProfile(kappa=lambda s: kappa * (1.0 + 0.5 * math.sin(s)),
                                tau=lambda s: tau * math.cos(s)) if variable
                   else CurveProfile.constant(kappa, tau))
        traj = integrate_frame(profile, 0.0, n_steps * step, step, FrenetFrame.canonical())
        frames = [frame for _, frame in traj.samples]
        assert [frame.orthonormality_defect() for frame in frames] == traj.defects.tolist()
        assert traj.final_frame.orthonormality_defect() == traj.defects[-1]

    def test_non_finite_frame_is_rejected(self):
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite"):
            integrate_frame(CurveProfile.constant(1e200, 0.0), 0, 1, 0.5, FrenetFrame.canonical())

    @pytest.mark.parametrize("s_start,s_end,step", [
        (0.0, 10.0, 1e-320), (0.0, math.inf, 1e-3), (math.nan, 1.0, 0.1),
        (0.0, 10.0, math.nan), (0.0, 10.0, 1e-9), (-1e308, 1e308, 1.0),
    ])
    def test_rejects_non_finite_or_oversized_spans(self, s_start, s_end, step):
        with pytest.raises(ValueError):
            integrate_frame(CurveProfile.constant(1.0, 0.0), s_start, s_end, step,
                            FrenetFrame.canonical())

    def test_rejects_negative_curvature(self):
        with pytest.raises(ValueError):
            integrate_frame(
                CurveProfile.constant(-1.0, 0.0), 0.0, 1.0, 0.1, FrenetFrame.canonical()
            )

    def test_rejects_an_end_before_the_start(self):
        with pytest.raises(ValueError, match="s_end must not precede s_start"):
            integrate_frame(CurveProfile.constant(1.0, 0.0), 1.0, 0.0, 0.1, FrenetFrame.canonical())


def propagator_and_stage_runs(kappa: float, tau: float, span: float, step: float):
    """One constant profile integrated as constants (propagator) and as callables (stage loop)."""
    start = FrenetFrame.canonical()
    stage = integrate_frame(
        CurveProfile(kappa=lambda s: kappa, tau=lambda s: tau), 0.0, span, step, start
    )
    propagated = integrate_frame(CurveProfile.constant(kappa, tau), 0.0, span, step, start)
    return propagated, stage


class TestPropagatorMatchesStageLoop:
    @settings(max_examples=8, deadline=None)
    @example(kappa=4.46, tau=2.98, step=0.465, n_full=20000, fraction=0.5)
    @example(kappa=1.0, tau=1.0, step=1e-3, n_full=10000, fraction=0.0)
    @example(kappa=1.0, tau=0.0, step=0.08, n_full=12500, fraction=0.0)  # events every few steps
    @example(kappa=1.0, tau=0.0, step=0.1, n_full=4000, fraction=0.0)  # events every other step
    @given(
        kappa=st.floats(0.0, 5.0),
        tau=st.floats(-3.0, 3.0),
        step=st.floats(1e-3, 0.5),
        n_full=st.integers(0, 20000),
        fraction=st.floats(0.0, 0.9),
    )
    def test_same_frames_defects_events_and_angle(self, kappa, tau, step, n_full, fraction):
        span = (n_full + fraction) * step
        propagated, stage = propagator_and_stage_runs(kappa, tau, span, step)
        # a defect this close to the tolerance decides its event on rounding alone
        near = np.append(stage.defects, [d for _, d in stage.reorthonormalizations])
        assume(np.abs(near - ORTHONORMALITY_TOL).min() > 1e-10)

        assert np.array_equal(propagated.arclengths, stage.arclengths)
        assert ([s for s, _ in propagated.reorthonormalizations]
                == [s for s, _ in stage.reorthonormalizations])
        # every step applies one fixed rounded matrix in place of the stage arithmetic,
        # so the two also part by a few ulps of the accumulated rotation angle
        frame_bound = 1e-12 + 4.0 * sys.float_info.epsilon * span * math.hypot(kappa, tau)
        assert np.abs(propagated.frames - stage.frames).max() <= frame_bound
        assert np.abs(propagated.defects - stage.defects).max() <= 1e-12
        assert abs(propagated.max_defect - stage.max_defect) <= 1e-12
        expected = accumulated_rotation_angle(stage)
        assert abs(accumulated_rotation_angle(propagated) - expected) <= 1e-12 * expected

    def test_shortened_final_step(self):
        propagated, stage = propagator_and_stage_runs(2.0, -1.0, 7.3333, 0.01)
        assert len(propagated.samples) == 735
        assert propagated.arclengths[-1] == stage.arclengths[-1] == 7.3333
        assert np.abs(propagated.frames - stage.frames).max() <= 1e-12

    def test_zero_span_is_one_sample_without_rotation(self):
        for traj in propagator_and_stage_runs(2.0, 0.5, 0.0, 0.1):
            assert traj.arclengths.tolist() == [0.0]
            assert len(traj.samples) == 1
            assert accumulated_rotation_angle(traj) == 0.0

    def test_sample_defects_equal_stored_defects_on_long_helix(self):
        traj = integrate_frame(
            CurveProfile.constant(1.0, 1.0), 0.0, 10.0, 1e-3, helix_frame(1.0, 1.0, 0.0)
        )
        assert len(traj.samples) == 10001
        assert traj.reorthonormalizations == []
        assert [frame.orthonormality_defect() for _, frame in traj.samples] == traj.defects.tolist()


class TestStepMatrix:
    @settings(max_examples=200)
    @example(kappa=1.0, tau=1.0, rate=1e-3)
    @example(kappa=5.0, tau=-5.0, rate=2.8)
    @example(kappa=0.0, tau=0.0, rate=1.0)
    # a relative bound holds only while the entries are normal floats: rate is 0 or >= 1e-12
    @given(kappa=st.floats(0.0, 10.0), tau=st.floats(-10.0, 10.0),
           rate=st.just(0.0) | st.floats(1e-12, 2.8))
    def test_constant_profile_step_is_rk4_taylor_polynomial(self, kappa, tau, rate):
        # for y' = A y, the four classical stages give P - I = hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24
        w = math.hypot(kappa, tau)
        assume(w == 0.0 or w >= 1e-3)  # h = rate / w stays finite
        h = rate / w if w else rate  # h * w = rate <= 2.8, inside RK4's stability bound
        x = h * np.array([[0.0, kappa, 0.0], [-kappa, 0.0, tau], [0.0, -tau, 0.0]])
        x2 = x @ x
        taylor = x + x2 / 2.0 + x2 @ x / 6.0 + x2 @ x2 / 24.0
        e = np.reshape(frenet._step_matrix(CurveProfile.constant(kappa, tau), 0.0, h), (3, 3))
        hw = h * w
        assert np.abs(e - taylor).max() <= 8.0 * sys.float_info.epsilon * max(hw, hw**4)


class TestDenseEventSteps:
    """Runs where every step re-orthonormalises leave the chunked scan for Python floats."""

    @settings(max_examples=10, deadline=None)
    @example(kappa=3.0, tau=0.0, rate=0.15, n_full=2000, fraction=0.0)  # the coarse CLI run
    @example(kappa=5.0, tau=-1.0, rate=2.8, n_full=3000, fraction=0.5)
    @given(
        kappa=st.floats(2.0, 5.0),
        tau=st.floats(-1.0, 1.0),
        rate=st.floats(0.15, 2.8),  # step times hypot(kappa, tau)
        n_full=st.integers(1, 3000),
        fraction=st.just(0.0) | st.floats(0.1, 0.9),
    )
    def test_matches_stage_loop(self, kappa, tau, rate, n_full, fraction):
        step = rate / math.hypot(kappa, tau)
        span = (n_full + fraction) * step
        propagated, stage = propagator_and_stage_runs(kappa, tau, span, step)
        near = np.append(stage.defects, [d for _, d in stage.reorthonormalizations])
        assume(np.abs(near - ORTHONORMALITY_TOL).min() > 1e-10)

        events = [s for s, _ in propagated.reorthonormalizations]
        assert len(events) >= n_full  # an event on every full step: the dense regime
        assert events == [s for s, _ in stage.reorthonormalizations]
        frame_bound = 1e-12 + 4.0 * sys.float_info.epsilon * span * math.hypot(kappa, tau)
        assert np.abs(propagated.frames - stage.frames).max() <= frame_bound
        assert np.abs(propagated.defects - stage.defects).max() <= 1e-12
        assert abs(propagated.max_defect - stage.max_defect) <= 1e-12
        assert [frame_defect(frame) for frame in propagated.frames] == propagated.defects.tolist()
        for k in np.searchsorted(propagated.arclengths, events):
            assert FrenetFrame(*propagated.frames[k]).orthonormality_defect() <= ORTHONORMALITY_TOL

    def test_chunk_never_shrinks_after_an_event(self, monkeypatch):
        scans, defects = [], frenet._frame_defects
        monkeypatch.setattr(frenet, "_frame_defects", lambda f: scans.append(len(f)) or defects(f))
        traj = integrate_frame(CurveProfile.constant(1.0, 0.0), 0.0, 1000.0, 0.08,
                               FrenetFrame.canonical())
        n_full, events = 12500, len(traj.reorthonormalizations)
        assert len(traj.arclengths) == n_full + 1 and events > 2000
        # a clean scan at most doubles the chunk: at most 8 clean scans run below 256 frames and
        # one is clipped at the end; every other scan covers 256 frames or ends in an event
        assert len(scans) <= events + 9 + math.ceil(n_full / 256)

    @staticmethod
    def _dense_steps_with(monkeypatch, matrix):
        """Let the dense loop step with this matrix in place of E = P - I."""
        dense = frenet._dense_steps
        monkeypatch.setattr(frenet, "_dense_steps", lambda e, *args: dense(np.array(matrix), *args))

    def test_non_finite_frame_in_dense_loop_is_rejected(self, monkeypatch):
        self._dense_steps_with(monkeypatch, np.full((3, 3), math.nan))
        # the first event, at s = 0.05, comes from the chunked scan; the dense loop takes step 2
        with pytest.raises(ValueError, match=r"frame is not finite at s = 0\.1$"):
            integrate_frame(CurveProfile.constant(3.0, 0.0), 0.0, 1.0, 0.05,
                            FrenetFrame.canonical())

    def test_nan_that_max_passes_over_is_an_event(self, monkeypatch):
        # t and n stay put and b turns NaN: the max() in the defect skips the NaN terms of b,
        # the other terms are within the tolerance, and Gram-Schmidt rebuilds b from t and n
        self._dense_steps_with(monkeypatch, [[0.0] * 3, [0.0] * 3, [math.nan] * 3])
        traj = integrate_frame(CurveProfile.constant(3.0, 0.0), 0.0, 1.0, 0.05,
                               FrenetFrame.canonical())
        defects = [d for _, d in traj.reorthonormalizations]
        assert len(defects) == 20 and defects[0] > ORTHONORMALITY_TOL
        assert all(math.isnan(d) for d in defects[1:])
        assert np.isfinite(traj.frames).all() and (traj.frames[2:] == traj.frames[1]).all()


def stage_loop_reference(profile: CurveProfile, span: float, step: float):
    """integrate_frame from the canonical frame at s = 0 as a numpy RK4 stage loop, one step at a
    time: each frame's defect from _frame_defects, and Gram-Schmidt on every flagged frame."""
    n_full = int(math.floor(span / step + 1e-12))
    remainder = span - n_full * step
    n_steps = n_full + (remainder > 1e-12 * max(1.0, span))
    arclengths = np.append(0.0, np.arange(1, n_steps + 1) * step)
    if n_steps:
        arclengths[-1] = span
    frames, defects = np.empty((n_steps + 1, 3, 3)), np.empty(n_steps + 1)
    frames[0], defects[0] = np.eye(3), 0.0
    events, max_defect = [], 0.0

    def coeff(s):
        kappa, tau = profile.kappa_at(s), profile.tau_at(s)
        return np.array([[0.0, kappa, 0.0], [-kappa, 0.0, tau], [0.0, -tau, 0.0]])

    for i in range(n_steps):
        s, h, y = float(arclengths[i]), (step if i < n_full else remainder), frames[i]
        a0, a_mid, a1 = coeff(s), coeff(s + 0.5 * h), coeff(s + h)
        k1 = a0 @ y
        k2 = a_mid @ (y + 0.5 * h * k1)
        k3 = a_mid @ (y + 0.5 * h * k2)
        k4 = a1 @ (y + h * k3)
        frames[i + 1] = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        defect = float(frenet._frame_defects(frames[i + 1:i + 2])[0])
        max_defect = max(max_defect, defect)
        if not defect <= ORTHONORMALITY_TOL:
            y, defect = frenet._gram_schmidt(frames[i + 1].ravel().tolist(),
                                             float(arclengths[i + 1]), defect, events)
            frames[i + 1] = np.reshape(y, (3, 3))
        defects[i + 1] = defect
    max_defect = max([max_defect, *(defect for _, defect in events)])
    return arclengths, frames, defects, events, max_defect


class TestVariableProfileMatchesStageLoop:
    """A variable profile's steps run as y <- E y + y on Python floats, E built for each step."""

    @settings(max_examples=10, deadline=None)
    @example(a=1.0, b=0.5, c=0.3, step=1e-3, n_full=2000, fraction=0.0)  # no event
    @example(a=1.4, b=-0.5, c=-0.9, step=0.04, n_full=100, fraction=0.0)  # 17 events
    @example(a=3.0, b=0.5, c=0.5, step=0.05, n_full=2000, fraction=0.0)  # an event per step
    @example(a=1.6, b=-0.9, c=-0.6, step=0.04, n_full=100, fraction=0.5)  # shortened final step
    @given(
        a=st.floats(1.0, 3.0),
        b=st.floats(-1.0, 1.0),
        c=st.floats(-1.0, 1.0),
        step=st.floats(1e-3, 0.5),
        n_full=st.integers(0, 3000),
        fraction=st.just(0.0) | st.floats(0.1, 0.9),
    )
    def test_same_frames_defects_and_events(self, a, b, c, step, n_full, fraction):
        profile = CurveProfile(kappa=lambda s: a + b * math.sin(s),
                               tau=lambda s: 1.0 + c * math.cos(s))
        span = (n_full + fraction) * step
        arclengths, frames, defects, events, max_defect = stage_loop_reference(profile, span, step)
        near = np.append(defects, [d for _, d in events])
        assume(np.abs(near - ORTHONORMALITY_TOL).min() > 1e-10)

        traj = integrate_frame(profile, 0.0, span, step, FrenetFrame.canonical())
        assert np.array_equal(traj.arclengths, arclengths)
        assert [s for s, _ in traj.reorthonormalizations] == [s for s, _ in events]
        rate = math.hypot(a + abs(b), 1.0 + abs(c))  # bounds hypot(kappa, tau) along the curve
        frame_bound = 1e-12 + 4.0 * sys.float_info.epsilon * span * rate
        assert np.abs(traj.frames - frames).max() <= frame_bound
        assert np.abs(traj.defects - defects).max() <= 1e-12
        assert abs(traj.max_defect - max_defect) <= 1e-12
        assert [frame_defect(frame) for frame in traj.frames] == traj.defects.tolist()


class TestCurveProfile:
    def test_fd_curvature_derivative_default(self):
        profile = CurveProfile(kappa=lambda s: math.sin(s) + 2.0, tau=0.0)
        for s in (0.0, 0.7, 2.0):
            assert profile.kappa_prime_at(s) == pytest.approx(math.cos(s), abs=1e-8)

    def test_constant_profile_has_zero_curvature_derivative(self):
        profile = CurveProfile.constant(2.0, 0.5)
        assert profile.kappa_prime_at(1.3) == 0.0
        assert profile.tau_constant == 0.5

    def test_analytic_derivative_wins_over_fd(self):
        profile = CurveProfile(kappa=lambda s: s * s, tau=0.0, kappa_prime=lambda s: 2.0 * s)
        assert profile.kappa_prime_at(3.0) == 6.0


class TestTwistAngle:
    def test_zero_torsion_returns_reference(self):
        assert twist_angle(0.7, CurveProfile.constant(1.0, 0.0), 5.0) == 0.7

    def test_constant_torsion_is_exact(self):
        assert twist_angle(0.25, CurveProfile.constant(1.0, 1.0), 2.0) == 0.25 - 2.0

    def test_linear_torsion_quadrature(self):
        profile = CurveProfile(kappa=1.0, tau=lambda u: u)
        # integral of u over [0, 1] = 0.5 exactly (Simpson is exact for cubics)
        assert twist_angle(1.0, profile, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_variable_torsion_at_the_origin_returns_reference(self):
        assert twist_angle(0.7, CurveProfile(kappa=1.0, tau=lambda u: 1.0 + u), 0.0) == 0.7

    def test_additivity_on_subintervals(self):
        tau = lambda u: math.sin(u) + 0.5  # noqa: E731
        profile = CurveProfile(kappa=1.0, tau=tau)
        s1, s2 = 0.8, 2.1
        shifted = CurveProfile(kappa=1.0, tau=lambda u: tau(s1 + u))
        total = twist_angle(0.0, profile, s2)
        first = twist_angle(0.0, profile, s1)
        increment = twist_angle(0.0, shifted, s2 - s1)
        assert first + increment == pytest.approx(total, abs=1e-10)


class TestStretchFactor:
    def test_filament_limit(self):
        assert stretch_factor(0.0, 5.0, 0.3) == 1.0

    def test_direct_substitution(self):
        assert stretch_factor(0.1, 1.0, 0.0) == pytest.approx(0.9, abs=1e-15)

    def test_perpendicular_angle(self):
        assert stretch_factor(2.0, 3.0, math.pi / 2.0) == pytest.approx(1.0, abs=1e-14)

    def test_antisymmetry_exact_at_zero(self):
        assert stretch_factor(0.3, 2.0, 0.0) + stretch_factor(0.3, 2.0, math.pi) == 2.0

    def test_antisymmetry_at_random_angles(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            r, kappa = rng.uniform(0.0, 0.99, size=2)
            theta = rng.uniform(-10.0, 10.0)
            total = stretch_factor(r, kappa, theta) + stretch_factor(r, kappa, theta + math.pi)
            assert total == pytest.approx(2.0, abs=1e-13)

    def test_degenerate_metric_warns(self):
        with pytest.warns(MetricDegeneracyWarning):
            value = stretch_factor(2.0, 1.0, 0.0)
        assert value == -1.0

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            stretch_factor(-0.1, 1.0, 0.0)

    @pytest.mark.parametrize("args", [
        (math.nan, 1.0, 0.0), (math.inf, 1.0, 0.0), (0.5, math.nan, 0.0), (0.5, -math.inf, 0.0),
        (0.5, 1.0, math.nan), (0.5, 1.0, math.inf),
    ])
    def test_rejects_non_finite_arguments(self, args):
        with pytest.raises(ValueError, match="must be finite"):
            stretch_factor(*args)
