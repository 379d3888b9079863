import dataclasses
import math

import numpy as np
import pytest

from dynamokit.maps import (
    FieldVector,
    LinearTorusMap,
    TorusPoint,
    apply_map,
    arnold_line_element,
    classify,
    growth_rate,
    growth_rate_per_step,
    iterate_orbit,
    make_cat_map,
    make_cat_shear_map,
    make_thin_tube_map,
    make_tube_twist_map,
    make_twist_map,
    transport_field,
)
from dynamokit.maps import _growth_table

# closed-form cat-map eigenvalues (3 +- sqrt 5)/2, frozen by hand
CAT_LAMBDA_1 = 2.618033988749895
CAT_LAMBDA_2 = 0.3819660112501051
LOG_CAT_LAMBDA_1 = 0.9624236501192069


def entries(m: LinearTorusMap):
    return (m.a, m.b, m.c, m.d)


class TestConstructors:
    def test_cat_map_entries(self):
        assert entries(make_cat_map()) == (2.0, 1.0, 1.0, 1.0)

    def test_cat_map_det_and_trace(self):
        m = make_cat_map()
        assert m.determinant == 1.0
        assert m.trace == 3.0

    def test_cat_shear_k1_equals_cat(self):
        assert entries(make_cat_shear_map(1)) == entries(make_cat_map())

    def test_cat_shear_k0_is_identity(self):
        assert entries(make_cat_shear_map(0)) == (1.0, 0.0, 0.0, 1.0)

    def test_cat_shear_k2(self):
        m = make_cat_shear_map(2)
        assert entries(m) == (5.0, 2.0, 2.0, 1.0)
        assert m.determinant == 1.0

    def test_twist_map(self):
        assert entries(make_twist_map()) == (1.0, 1.0, 0.0, 1.0)

    def test_tube_twist_recovers_twist_at_tau_minus_one(self):
        assert entries(make_tube_twist_map(-1.0, 1.0)) == entries(make_twist_map())

    def test_tube_twist_identity(self):
        assert entries(make_tube_twist_map(0.0, 1.0)) == (1.0, 0.0, 0.0, 1.0)

    def test_tube_twist_triangular_eigenvalues(self):
        m = make_tube_twist_map(2.0, 3.0)
        assert entries(m) == (1.0, -2.0, 0.0, 3.0)
        lam1, lam2 = classify(m).eigenvalues
        assert lam1 == pytest.approx(3.0, abs=1e-12)
        assert lam2 == pytest.approx(1.0, abs=1e-12)

    def test_tube_twist_rejects_degenerate_stretch(self):
        with pytest.raises(ValueError):
            make_tube_twist_map(1.0, 0.0)
        with pytest.raises(ValueError):
            make_tube_twist_map(1.0, -2.0)

    def test_thin_tube(self):
        assert entries(make_thin_tube_map(-1.0)) == entries(make_twist_map())
        assert entries(make_thin_tube_map(0.0)) == (1.0, 0.0, 0.0, 1.0)
        for tau0 in (-3.5, -1.0, 0.0, 0.7, 12.0):
            assert make_thin_tube_map(tau0).determinant == 1.0

    def test_cat_map_matrix_is_a_float64_array(self):
        matrix = make_cat_map().matrix
        assert matrix.dtype == np.float64
        assert matrix.tolist() == [[2.0, 1.0], [1.0, 1.0]]

    def test_rejects_nonfinite_entries(self):
        with pytest.raises(ValueError):
            LinearTorusMap(1.0, math.inf, 0.0, 1.0)


class TestClassify:
    def test_cat_map_hyperbolic_with_frozen_eigenvalues(self):
        cls = classify(make_cat_map())
        assert cls.kind == "hyperbolic"
        assert cls.eigenvalues[0] == pytest.approx(CAT_LAMBDA_1, abs=1e-12)
        assert cls.eigenvalues[1] == pytest.approx(CAT_LAMBDA_2, abs=1e-12)

    def test_quarter_rotation_elliptic(self):
        cls = classify(LinearTorusMap(0.0, -1.0, 1.0, 0.0))
        assert cls.kind == "elliptic"
        assert cls.eigenvalues == (1j, -1j)

    def test_twist_map_parabolic_unit_eigenvalues(self):
        cls = classify(make_twist_map())
        assert cls.kind == "parabolic"
        assert cls.eigenvalues == (1 + 0j, 1 + 0j)

    def test_identity_is_parabolic_boundary(self):
        cls = classify(make_cat_shear_map(0))
        assert cls.kind == "parabolic"
        assert cls.eigenvalues == (1 + 0j, 1 + 0j)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_cat_shear_eigenvalue_product_is_one(self, k):
        lam1, lam2 = classify(make_cat_shear_map(k)).eigenvalues
        assert abs(lam1 * lam2 - 1.0) < 1e-12

    def test_named_maps_preserve_area(self):
        named = [make_cat_map(), make_twist_map()]
        named += [make_cat_shear_map(k) for k in range(-5, 6)]
        named += [make_thin_tube_map(tau0) for tau0 in (-2.5, -1.0, 0.0, 1.0, 4.0)]
        for m in named:
            assert abs(m.determinant - 1.0) < 1e-12

    def test_random_matrices_satisfy_trace_and_det_identities(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            a, b, c, d = rng.uniform(-10.0, 10.0, size=4)
            m = LinearTorusMap(a, b, c, d)
            cls = classify(m)
            lam1, lam2 = cls.eigenvalues
            assert abs(lam1 * lam2 - m.determinant) < 1e-12 * max(1.0, abs(m.determinant))
            assert abs(lam1 + lam2 - m.trace) < 1e-12 * max(1.0, abs(m.trace))
            assert abs(lam1) >= abs(lam2)


class TestTorusDynamics:
    def test_origin_is_fixed_point(self):
        assert apply_map(make_cat_map(), TorusPoint(0.0, 0.0)) == TorusPoint(0.0, 0.0)

    def test_cat_half_half(self):
        # (2*0.5 + 0.5, 0.5 + 0.5) = (1.5, 1.0) -> (0.5, 0.0) mod 1, by hand
        assert apply_map(make_cat_map(), TorusPoint(0.5, 0.5)) == TorusPoint(0.5, 0.0)

    def test_twist_shears_x_by_y(self):
        assert apply_map(make_twist_map(), TorusPoint(0.25, 0.5)) == TorusPoint(0.75, 0.5)

    def test_points_reduce_into_unit_square(self):
        rng = np.random.default_rng(1)
        m = LinearTorusMap(*rng.uniform(-4.0, 4.0, size=4))
        for _ in range(200):
            p = TorusPoint(*rng.uniform(-20.0, 20.0, size=2))
            q = apply_map(m, p)
            assert 0.0 <= q.x < 1.0 and 0.0 <= q.y < 1.0

    def test_tiny_negative_wraps_to_zero(self):
        p = TorusPoint(-1e-18, 1.0)
        assert p.x == 0.0 and p.y == 0.0

    def test_points_keep_no_per_point_dict(self):
        p = TorusPoint(1.25, -0.5)
        assert not hasattr(p, "__dict__")
        assert p == TorusPoint(0.25, 0.5) and hash(p) == hash(TorusPoint(0.25, 0.5))
        assert repr(p) == "TorusPoint(x=0.25, y=0.5)"
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.x = 0.0

    def test_orbit_zero_steps(self):
        p = TorusPoint(0.3, 0.4)
        assert iterate_orbit(make_cat_map(), p, 0) == [p]

    def test_orbit_fixed_point(self):
        orbit = iterate_orbit(make_cat_map(), TorusPoint(0.0, 0.0), 5)
        assert len(orbit) == 6
        assert all(pt == TorusPoint(0.0, 0.0) for pt in orbit)

    def test_twist_period_two_orbit(self):
        orbit = iterate_orbit(make_twist_map(), TorusPoint(0.0, 0.5), 2)
        assert orbit == [TorusPoint(0.0, 0.5), TorusPoint(0.5, 0.5), TorusPoint(0.0, 0.5)]

    def test_orbit_rejects_negative_length(self):
        with pytest.raises(ValueError):
            iterate_orbit(make_cat_map(), TorusPoint(0.0, 0.0), -1)


class TestFieldTransport:
    def test_zero_steps_is_identity(self):
        f = FieldVector(0.3, -2.0)
        assert transport_field(make_cat_map(), f, 0) == f

    def test_cat_single_step(self):
        assert transport_field(make_cat_map(), FieldVector(0.0, 1.0), 1) == FieldVector(1.0, 1.0)

    def test_twist_shear_accumulates_linearly(self):
        assert transport_field(make_twist_map(), FieldVector(0.0, 1.0), 3) == FieldVector(3.0, 1.0)

    def test_no_mod_reduction(self):
        f = transport_field(make_cat_map(), FieldVector(0.0, 1.0), 4)
        assert f == FieldVector(21.0, 13.0)  # Fibonacci growth, by hand

    def test_transport_composes(self):
        m = make_cat_map()
        f = FieldVector(0.2, 1.0)
        for n, k in [(0, 7), (13, 17), (25, 35), (59, 1)]:
            direct = transport_field(m, f, n + k)
            chained = transport_field(m, transport_field(m, f, n), k)
            # sequential multiplication makes this identical in floating point
            assert chained == direct


class TestGrowthRates:
    def test_time_average_has_one_over_n_bias(self):
        m = make_cat_map()
        f = FieldVector(0.0, 1.0)
        for n in (10, 20, 50, 100):
            err = abs(growth_rate(m, f, n) - LOG_CAT_LAMBDA_1)
            assert err <= 5.0 / n

    def test_per_step_estimate_hits_eigenvalue(self):
        est = growth_rate_per_step(make_cat_map(), FieldVector(0.0, 1.0), 50)
        assert est == pytest.approx(LOG_CAT_LAMBDA_1, abs=1e-6)

    def test_identity_map_zero_growth(self):
        ident = make_cat_shear_map(0)
        assert growth_rate(ident, FieldVector(0.3, 0.4), 17) == 0.0
        assert growth_rate_per_step(ident, FieldVector(0.3, 0.4), 17) == 0.0

    def test_twist_map_subexponential(self):
        m = make_twist_map()
        f = FieldVector(0.0, 1.0)
        assert growth_rate(m, f, 1000) < 0.01
        assert growth_rate_per_step(m, f, 1000) < 0.01

    def test_rejects_zero_seed(self):
        with pytest.raises(ValueError):
            growth_rate(make_cat_map(), FieldVector(0.0, 0.0), 10)

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError):
            growth_rate(make_cat_map(), FieldVector(0.0, 1.0), 0)

    def test_table_rows_are_left_to_right_running_means(self):
        m, f = make_cat_shear_map(2), FieldVector(0.3, 1.0)
        averages, logs = _growth_table(m, f, 200)
        assert type(averages) is list and type(logs) is list and len(averages) == len(logs) == 200
        total = 0.0
        for k, (average, log_r) in enumerate(zip(averages, logs), start=1):
            total += log_r
            assert average == total / k

    def test_hyperbolic_growth_survives_many_iterations(self):
        # internal renormalisation: no overflow at n = 2000
        est = growth_rate_per_step(make_cat_map(), FieldVector(0.0, 1.0), 2000)
        assert est == pytest.approx(LOG_CAT_LAMBDA_1, abs=1e-12)


class TestRejections:
    @pytest.mark.parametrize("call,message", [
        (lambda: TorusPoint(math.nan, 0.2), "torus point coordinates must be finite"),
        (lambda: FieldVector(0.0, math.inf), "field vector components must be finite"),
        (lambda: transport_field(make_cat_map(), FieldVector(0.0, 1.0), -1),
         "iteration count n must be nonnegative"),
        # (1, -1) is the kernel of [[1, 1], [1, 1]]
        (lambda: growth_rate(LinearTorusMap(1.0, 1.0, 1.0, 1.0), FieldVector(1.0, -1.0), 3),
         "collapsed to zero"),
    ], ids=["torus-point", "field-vector", "negative-transport", "singular-map"])
    def test_rejects_with_a_named_cause(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestArnoldLineElement:
    def test_euclidean_limit(self):
        assert arnold_line_element(0.0, 5.0, 1.0, 1.0, 1.0) == 3.0

    def test_contracting_direction(self):
        assert arnold_line_element(1.0, 1.0, 1.0, 0.0, 0.0) == pytest.approx(
            math.exp(-1.0), abs=1e-12
        )

    def test_stretching_direction(self):
        assert arnold_line_element(1.0, 1.0, 0.0, 1.0, 0.0) == pytest.approx(
            math.exp(1.0), abs=1e-12
        )

    def test_positive_for_nonzero_displacements(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            lam, z = rng.uniform(-3.0, 3.0, size=2)
            d = rng.uniform(-5.0, 5.0, size=3)
            if np.all(d == 0.0):
                continue
            assert arnold_line_element(lam, z, *d) > 0.0
