import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynamokit.filament import (
    REGIME_DEGENERATE,
    REGIME_FAST_CANDIDATE,
    REGIME_NON_DYNAMO_PLANAR,
    REGIME_SLOW,
    FilamentParams,
    build_filament_matrix,
    classify_dynamo,
    determinant_condition_residual,
    filament_gradient,
    filament_line_element,
    solve_growth_rate,
)

GOLDEN = 1.618033988749895


def params(**overrides) -> FilamentParams:
    base = dict(eta=1.0, kappa=1.0, kappa_prime=1.0, k0=1.0, v0=-1.0, tau=1.0, gamma_ref=1.0)
    base.update(overrides)
    return FilamentParams(**base)


class TestFilamentParams:
    def test_derived_coefficients(self):
        p = params(kappa=2.0, kappa_prime=3.0, k0=2.0, v0=5.0, gamma_ref=4.0)
        assert p.A == 2.0 * 3.0 * 2.0  # K0 kappa' kappa
        assert p.B == 2.0 / 4.0  # kappa / K0^2
        assert p.C == (2.0 / 4.0) * 5.0  # (kappa / gamma_ref) v0

    def test_acceptance_defaults_give_unit_coefficients(self):
        p = params()
        assert (p.A, p.B, p.C) == (1.0, 1.0, -1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            params(eta=-0.1)
        with pytest.raises(ValueError):
            params(kappa=-1.0)
        with pytest.raises(ValueError):
            params(k0=0.0)
        with pytest.raises(ValueError, match="k0"):
            params(k0=1e-300)  # k0^2 underflows to 0
        with pytest.raises(ValueError):
            params(gamma_ref=0.0)


class TestLineElementAndGradient:
    def test_unit_stretch(self):
        assert filament_line_element(1.0, 0.5) == 0.25

    def test_stretch_squares(self):
        assert filament_line_element(2.0, 1.0) == 4.0

    def test_rejects_nonpositive_stretch(self):
        with pytest.raises(ValueError):
            filament_line_element(0.0, 1.0)
        with pytest.raises(ValueError):
            filament_gradient([1.0, 2.0, 3.0], -1.0, 1.0)

    def test_constant_profile_has_zero_gradient(self):
        s = np.linspace(0.0, 1.0, 11)
        assert np.max(np.abs(filament_gradient(np.ones_like(s), 1.0, s))) < 1e-13

    def test_linear_profile(self):
        s = np.linspace(0.0, 2.0, 21)
        np.testing.assert_allclose(filament_gradient(s, 2.0, s), 0.5, rtol=1e-12)

    def test_sine_profile_matches_cosine(self):
        s = np.arange(0.0, 1.0, 1e-3)
        grad = filament_gradient(np.sin(s), 1.0, s)
        assert np.max(np.abs(grad - np.cos(s))) < 1e-6


class TestRejections:
    @pytest.mark.parametrize("call,message", [
        (lambda: params(kappa=math.nan), "parameter kappa must be finite"),
        (lambda: params(gamma_ref=-math.inf), "parameter gamma_ref must be finite"),
        (lambda: filament_gradient([1.0, 2.0], 1.0, 1.0), "need at least 3 samples"),
    ], ids=["nan-parameter", "infinite-parameter", "two-samples"])
    def test_rejects_with_a_named_cause(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestFilamentMatrix:
    def test_zero_curvature(self):
        result = build_filament_matrix(params(kappa=0.0, k0=2.0, gamma_ref=3.0))
        np.testing.assert_allclose(
            result.matrix, -3.0 / 4.0 * np.diag([1.0, 0.0]), atol=1e-15
        )

    def test_unit_parameters_with_zero_diffusivity(self):
        p = params(eta=0.0, kappa=1.0, kappa_prime=0.0, k0=1.0, v0=1.0, gamma_ref=1.0)
        result = build_filament_matrix(p)
        np.testing.assert_array_equal(result.matrix, -np.eye(2))

    def test_torsion_entry_vanishes_without_torsion(self):
        assert build_filament_matrix(params(tau=0.0)).m33 == 0.0

    def test_torsion_entry_reported_separately(self):
        result = build_filament_matrix(params(eta=0.5, tau=2.0, k0=3.0, gamma_ref=1.0))
        assert result.m33 == 0.5 * 2.0 * 3.0
        assert result.matrix.shape == (2, 2)

    def test_off_diagonal_entries_identically_zero(self):
        result = build_filament_matrix(params(eta=0.7, kappa=1.9, v0=2.3))
        assert result.matrix[0, 1] == 0.0
        assert result.matrix[1, 0] == 0.0

    def test_leading_entry_linear_in_reference_rate(self):
        entry_1 = build_filament_matrix(params(eta=0.0, gamma_ref=1.0)).matrix[0, 0]
        entry_2 = build_filament_matrix(params(eta=0.0, gamma_ref=2.0)).matrix[0, 0]
        assert entry_2 == 2.0 * entry_1


class TestDeterminantCondition:
    def test_trivial_zero(self):
        assert determinant_condition_residual(0.0, 1.0, 1.0, 0.0) == 0.0

    def test_golden_root(self):
        # x = (1 + sqrt 5)/2 solves x^2 - x - 1 = 0, i.e. BA = 1, C = -1
        assert abs(determinant_condition_residual(GOLDEN, 1.0, 1.0, -1.0)) < 1e-12

    def test_direct_sum(self):
        assert determinant_condition_residual(1.0, 1.0, 1.0, 1.0) == 3.0

    def test_complex_argument(self):
        x = complex(-0.5, math.sqrt(3.0) / 2.0)  # root of x^2 + x + 1
        assert abs(determinant_condition_residual(x, 1.0, 1.0, 1.0)) < 1e-12


class TestSolveGrowthRate:
    def test_zero_diffusivity_is_slow_with_zero_rate(self):
        result = solve_growth_rate(0.0, 1.0, 1.0, -1.0)
        assert result.roots == (0j, 0j)
        assert result.regime == REGIME_SLOW
        assert all(res < 1e-10 for res in result.residuals)

    def test_golden_coefficients(self):
        result = solve_growth_rate(1.0, 1.0, 1.0, -1.0)
        gamma_1, gamma_2 = result.roots
        assert gamma_1.real == pytest.approx(0.6180339887498948, abs=1e-12)
        assert gamma_2.real == pytest.approx(-1.618033988749895, abs=1e-12)
        assert result.regime == REGIME_SLOW

    def test_complex_conjugate_branch(self):
        result = solve_growth_rate(1.0, 1.0, 1.0, 1.0)
        x1, x2 = result.x_roots
        assert x1 == pytest.approx(complex(-0.5, math.sqrt(3.0) / 2.0), abs=1e-12)
        assert x2 == pytest.approx(complex(-0.5, -math.sqrt(3.0) / 2.0), abs=1e-12)
        assert all(abs(g.imag) > 0 for g in result.roots)

    def test_every_returned_rate_satisfies_condition(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a, b = rng.uniform(0.2, 2.0, size=2)
            c = rng.uniform(-2.0, 2.0)
            eta = rng.uniform(0.01, 2.0)
            if abs(c) < 1e-3:
                continue
            result = solve_growth_rate(eta, a, b, c)
            assert result.residuals
            assert all(res < 1e-10 for res in result.residuals)

    @pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_diffusivity(self, eta):
        with pytest.raises(ValueError, match="parameter eta must be finite"):
            solve_growth_rate(eta, 1.0, 1.0, -1.0)

    def test_rates_scale_linearly_in_diffusivity(self):
        base = solve_growth_rate(0.25, 1.3, 0.7, -0.9)
        doubled = solve_growth_rate(0.5, 1.3, 0.7, -0.9)
        for g1, g2 in zip(base.roots, doubled.roots):
            assert g2 == 2.0 * g1

    def test_vieta_on_x_roots(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, b = rng.uniform(0.2, 2.0, size=2)
            c = rng.uniform(-2.0, 2.0)
            x1, x2 = solve_growth_rate(1.0, a, b, c).x_roots
            ba = b * a
            assert abs(x1 * x2 - c / ba) < 1e-12 * max(1.0, abs(c / ba))
            assert abs(x1 + x2 + c) < 1e-12 * max(1.0, abs(c))

    def test_zero_x_root_flagged_degenerate(self):
        result = solve_growth_rate(1.0, 1.0, 1.0, 0.0)
        assert result.roots == ()
        assert result.regime == REGIME_DEGENERATE
        assert result.notes

    def test_vanishing_quadratic_coefficient_degenerate(self):
        result = solve_growth_rate(1.0, 0.0, 1.0, 1.0)
        assert result.regime == REGIME_DEGENERATE
        assert "unsatisfiable" in result.notes[0]
        satisfied = solve_growth_rate(1.0, 0.0, 1.0, 0.0)
        assert "identically satisfied" in satisfied.notes[0]

    def test_rejects_negative_diffusivity(self):
        with pytest.raises(ValueError):
            solve_growth_rate(-0.1, 1.0, 1.0, 1.0)

    def test_rejects_a_rate_that_underflows(self):
        # x = 1 +- sqrt(3) and 5e-324 / 2.73 rounds to 0
        with pytest.raises(ValueError, match="eta = 5e-324"):
            solve_growth_rate(5e-324, 1.0, 1.0, -2.0)


class TestClassifyDynamo:
    def test_linear_through_origin_is_slow(self):
        samples = [(eta, 0.3 * eta) for eta in (0.1, 0.2, 0.5, 1.0)]
        assert classify_dynamo(samples, tau=1.0) == REGIME_SLOW

    def test_zero_torsion_forces_planar_verdict(self):
        samples = [(eta, 0.1 + 0.3 * eta) for eta in (0.1, 0.5, 1.0)]
        assert classify_dynamo(samples, tau=0.0) == REGIME_NON_DYNAMO_PLANAR

    def test_positive_intercept_is_fast_candidate(self):
        samples = [(eta, 0.1 + 0.3 * eta) for eta in (0.1, 0.2, 0.5, 1.0)]
        assert classify_dynamo(samples, tau=1.0) == REGIME_FAST_CANDIDATE

    def test_negative_intercept_is_degenerate(self):
        samples = [(eta, -0.1 + 0.3 * eta) for eta in (0.1, 0.2, 0.5, 1.0)]
        assert classify_dynamo(samples, tau=1.0) == REGIME_DEGENERATE

    def test_requires_three_distinct_diffusivities(self):
        with pytest.raises(ValueError):
            classify_dynamo([(0.1, 0.0), (0.1, 0.0), (0.1, 0.0)], tau=1.0)

    def test_subnormal_sweep_error_names_the_eta_sweep(self):
        samples = [(eta, 0.5 * eta) for eta in (1e-320, 1e-310, 1e-300)]
        with pytest.raises(ValueError, match=r"^eta sweep \[1e-320, 1e-310, 1e-300\]: "):
            classify_dynamo(samples, tau=1.0)

    def test_rank_deficient_fit_is_degenerate_without_a_warning(self):
        # three etas one ulp apart: [eta, 1] has rank 1 at polyfit's rcond
        etas = (1.0, 1.0000000000000002, 1.0000000000000004)
        assert len(set(etas)) == 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert classify_dynamo([(eta, 0.5 * eta) for eta in etas], tau=1.0) \
                == REGIME_DEGENERATE

    def test_complex_rates_classified_through_real_part(self):
        samples = [(eta, complex(0.3 * eta, 0.1)) for eta in (0.1, 0.2, 0.5, 1.0)]
        assert classify_dynamo(samples, tau=1.0) == REGIME_SLOW

    def test_intercept_tiny_in_absolute_terms_is_fast_at_the_sweep_scale(self):
        # g0 = 1e-101 is 2% of the largest rate, 5.1e-101: a fast candidate in any units
        samples = [(e * 1e-100, 1e-101 + 0.5 * e * 1e-100) for e in (0.1, 0.2, 0.5, 1.0)]
        assert classify_dynamo(samples, tau=1.0) == REGIME_FAST_CANDIDATE

    def test_all_zero_sweep_is_slow(self):
        assert classify_dynamo([(eta, 0.0) for eta in (0.1, 0.2, 0.5)], tau=1.0) == REGIME_SLOW


class TestSweepRangeCheck:
    """classify_dynamo fits only a sweep whose sum of eta^2 is positive and finite
    and whose growth rates are finite, and names the values it saw otherwise."""

    @pytest.mark.parametrize("samples,seen", [
        ([(0.1, 0.5), (math.nan, 0.5), (0.3, 0.5), (0.4, 0.5)], "sum of eta^2 = nan"),
        ([(0.1, math.nan), (0.2, 1.0), (0.3, 2.0)], "growth rates [nan, 1.0, 2.0]"),
        ([(0.1, math.inf), (0.2, 1.0), (0.3, 2.0)], "growth rates [inf, 1.0, 2.0]"),
        ([(0.1, 1.0), (math.inf, 1.0), (0.3, 2.0)], "sum of eta^2 = inf"),
        ([(eta, 0.5 * eta) for eta in (1e200, 2e200, 3e200)], "sum of eta^2 = inf"),
    ])
    def test_out_of_range_sweep_is_rejected(self, samples, seen, capfd):
        etas = ", ".join(repr(float(eta)) for eta, _ in samples)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"eta sweep [{etas}]: ")) as info:
                classify_dynamo(samples, tau=1.0)
        assert seen in str(info.value)
        assert "underflow" not in str(info.value)
        # capfd, not capsys: a failing LAPACK fit prints to the stdout descriptor
        assert capfd.readouterr().out == ""


class TestDistinctEtaCount:
    """classify_dynamo counts distinct etas with a set, the rule run_filament_sweep uses.

    On finite etas the set agrees with np.unique(etas).size, the count it replaces.
    """

    @pytest.mark.parametrize("etas", [
        (0.1, 0.1, 0.2),
        (0.1, 0.2, 0.1, 0.2),
        (0.1, 0.2, 0.2, 0.3, 0.3, 0.3),
        (0.0, -0.0, 0.5),
        (-0.0, 0.0, 0.5, 1.0),
        (5e-324, 5e-324, 1e-323),
        (5e-324, 1e-323, 1.5e-323),
        (1e-310, 1e-310, 1e-310, 2e-310),
        (-5e-324, 5e-324, 0.0),
    ])
    def test_set_count_agrees_with_np_unique(self, etas):
        distinct = np.unique(np.array(etas)).size
        assert len({float(eta) for eta in etas}) == distinct
        samples = [(eta, 0.1 + 0.3 * eta) for eta in etas]
        if distinct < 3:
            with pytest.raises(ValueError, match="distinct eta"):
                classify_dynamo(samples, tau=1.0)
            return
        # past the count: a normal sweep gets a verdict, a subnormal one the eta^2 check
        try:
            assert classify_dynamo(samples, tau=1.0) == REGIME_FAST_CANDIDATE
        except ValueError as exc:
            assert str(exc).startswith("eta sweep")

    def test_nan_eta_is_rejected_by_either_count(self):
        # np.unique merges every NaN into one value; the set keeps NaN objects apart
        # (nan != nan) and merges only repeats of one object.  So two separate NaNs beside
        # 0.1 counted 2 distinct etas before and count 3 now.  Either way a NaN eta raises
        # ValueError: before from the distinct-eta count, now from the eta^2 check, which
        # no NaN passes.  With three distinct etas besides, both counts pass it on.
        two_nans = (0.1, float("nan"), float("nan"))
        assert np.unique(np.array(two_nans)).size == 2
        assert len(set(two_nans)) == 3
        with pytest.raises(ValueError, match=r"^eta sweep \[0.1, nan, nan\]"):
            classify_dynamo([(eta, 0.5) for eta in two_nans], tau=1.0)
        nan = math.nan
        with pytest.raises(ValueError, match="distinct eta"):
            classify_dynamo([(eta, 0.5) for eta in (0.1, nan, nan)], tau=1.0)
        with pytest.raises(ValueError, match=r"^eta sweep \[0.1, 0.2, 0.3, nan\]"):
            classify_dynamo([(eta, 0.5) for eta in (0.1, 0.2, 0.3, nan)], tau=1.0)


def _polyfit_verdict(samples) -> str:
    """classify_dynamo's rule at tau != 0 on a np.polyfit(..., full=True) fit: the reference."""
    etas = np.array([float(eta) for eta, _ in samples])
    gammas = np.array([complex(gamma).real for _, gamma in samples])
    (slope, intercept), _, rank, *_ = np.polyfit(etas, gammas, 1, full=True)
    if rank < 2:
        return REGIME_DEGENERATE
    residual = float(np.max(np.abs(slope * etas + intercept - gammas)))
    scale = float(np.max(np.abs(gammas)))
    if abs(intercept) <= 1e-10 * scale and residual <= 1e-8 * scale:
        return REGIME_SLOW
    return REGIME_FAST_CANDIDATE if intercept > 1e-10 * scale else REGIME_DEGENERATE


@st.composite
def _line_sweeps(draw):
    """3-12 distinct etas from 1e-100 to 1e100, on gamma = s eta + g0 far from every threshold.

    The etas are either integer multiples k <= 1000 of one power of ten, a relative spread of
    at least 1e-3, or distinct powers of ten.  g0 is 0 (an exact line through 0), or at least
    1e-6 of max |s eta|, against the intercept threshold 1e-10.
    """
    count = draw(st.integers(3, 12))
    if draw(st.booleans()):
        scale = 10.0 ** draw(st.integers(-100, 97))
        etas = [k * scale for k in draw(st.lists(st.integers(1, 1000), min_size=count,
                                                 max_size=count, unique=True))]
    else:
        etas = [10.0 ** p for p in draw(st.lists(st.integers(-100, 100), min_size=count,
                                                 max_size=count, unique=True))]
    slope = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-3.0, 3.0))
    size = max(abs(slope * eta) for eta in etas)
    intercept = draw(st.sampled_from([0.0, -1.0, 1.0])) * 10.0 ** draw(st.floats(-6.0, 3.0)) * size
    return [(eta, slope * eta + intercept) for eta in etas]


# the CLI's default sweep and its growth rates at the default coefficients A, B, C = 1, 1, -1
_DEFAULT_ETAS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]


class TestClosedFormFitMatchesPolyfit:
    """classify_dynamo's closed-form fit and spread rule give np.polyfit's verdicts."""

    @settings(max_examples=300, deadline=None)
    @given(samples=_line_sweeps())
    def test_same_verdict(self, samples):
        assert classify_dynamo(samples, tau=1.0) == _polyfit_verdict(samples)

    @pytest.mark.parametrize("etas, verdict", [
        ([1.0, 1.0000000000000002, 1.0000000000000004], REGIME_DEGENERATE),
        ([eta * 1e-100 for eta in _DEFAULT_ETAS], REGIME_SLOW),
        ([eta * 1e7 for eta in _DEFAULT_ETAS], REGIME_SLOW),
        ([eta * 1e100 for eta in _DEFAULT_ETAS], REGIME_SLOW),
    ], ids=["ulp-spaced", "default-1e-100", "default-1e7", "default-1e100"])
    def test_explicit_sweeps(self, etas, verdict):
        samples = [(eta, solve_growth_rate(eta, 1.0, 1.0, -1.0).roots[0]) for eta in etas]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert classify_dynamo(samples, tau=1.0) == _polyfit_verdict(samples) == verdict
