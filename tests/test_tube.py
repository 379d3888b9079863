import math
import re

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dynamokit import tube
from dynamokit.finitediff import derivative_uniform, second_derivative_uniform
from dynamokit.tube import (
    QuadraticEigenproblem,
    RadialGrid,
    TubeFlowField,
    alpha_effect,
    alpha_effect_discrepancy,
    beltrami_alignment,
    compact_operator_apply,
    eigenvalue_discrepancy_report,
    eliminate_eigenvalue,
    incompressibility_defect,
    log_radial_check,
    paper_eigenproblem,
    poloidal_residual,
    pressure_blowup_check,
    pressure_profile,
    radial_derivative,
    radial_pressure_residual,
    radial_second_derivative,
    toroidal_residual,
    tube_gradient,
    tube_line_element,
    velocity_profile,
    vorticity,
)
from dynamokit.tube import _samples_on

GOLDEN = 1.618033988749895
GOLDEN_MINUS = -0.6180339887498949


@pytest.fixture(scope="module")
def log_grid():
    return RadialGrid(1e-3, 1.0, 256, "log")


class TestRadialGrid:
    def test_endpoints_are_exact(self, log_grid):
        assert log_grid.nodes[0] == 1e-3
        assert log_grid.nodes[-1] == 1.0

    def test_nodes_strictly_increasing(self, log_grid):
        assert np.all(np.diff(log_grid.nodes) > 0.0)

    def test_default_log_excludes_axis(self):
        grid = RadialGrid.default_log(r_max=2.0, count=64)
        assert grid.r_min == pytest.approx(2e-6, rel=1e-15)
        assert grid.spacing == "log"

    def test_spacing_aliases(self):
        assert RadialGrid(0.1, 1.0, 16, "uniform-in-ln-r").spacing == "log"
        assert RadialGrid(0.1, 1.0, 16, "uniform-in-r").spacing == "linear"

    def test_linear_grid_derivative(self):
        grid = RadialGrid(0.5, 3.0, 201, "linear")
        derivative = radial_derivative(np.sin(grid.nodes), grid)
        assert np.max(np.abs(derivative - np.cos(grid.nodes))) < 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            RadialGrid(0.0, 1.0, 64)
        with pytest.raises(ValueError):
            RadialGrid(-1e-3, 1.0, 64)
        with pytest.raises(ValueError):
            RadialGrid(0.5, 0.4, 64)
        with pytest.raises(ValueError):
            RadialGrid(0.1, 1.0, 8)
        with pytest.raises(ValueError):
            RadialGrid(0.1, 1.0, 64, "cubic")


class TestTubeLineElement:
    def test_radial_displacement(self):
        assert tube_line_element(0.7, 1.0, 0.0, 0.0, 1.0) == 1.0

    def test_angular_term_scales_with_radius_squared(self):
        assert tube_line_element(2.0, 0.0, 1.0, 0.0, 1.0) == 4.0

    def test_thin_tube_limit_matches_filament_metric(self):
        from dynamokit.filament import filament_line_element

        assert tube_line_element(0.0, 0.0, 0.0, 1.0, 1.0) == filament_line_element(1.0, 1.0)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            tube_line_element(-0.1, 1.0, 0.0, 0.0, 1.0)


class TestTubeGradient:
    def setup_method(self):
        self.r = np.linspace(0.5, 1.5, 6)
        self.theta = np.linspace(0.0, 2.0, 5)
        self.s = np.linspace(0.0, 3.0, 7)

    def _mesh(self, fn):
        rr, tt, ss = np.meshgrid(self.r, self.theta, self.s, indexing="ij")
        return fn(rr, tt, ss)

    def test_constant_field_has_zero_gradient(self):
        f = self._mesh(lambda rr, tt, ss: np.ones_like(rr))
        for component in tube_gradient(f, self.r, self.theta, self.s):
            assert np.max(np.abs(component)) < 1e-12

    def test_radial_coordinate_gradient(self):
        f = self._mesh(lambda rr, tt, ss: rr)
        g_s, g_theta, g_r = tube_gradient(f, self.r, self.theta, self.s, k=1.0)
        assert np.max(np.abs(g_s)) < 1e-12
        assert np.max(np.abs(g_theta)) < 1e-12
        np.testing.assert_allclose(g_r, 1.0, atol=1e-12)

    def test_angular_coordinate_gradient(self):
        f = self._mesh(lambda rr, tt, ss: tt)
        g_s, g_theta, g_r = tube_gradient(f, self.r, self.theta, self.s)
        expected = 1.0 / self.r[:, None, None]
        np.testing.assert_allclose(g_theta, np.broadcast_to(expected, f.shape), atol=1e-12)
        assert np.max(np.abs(g_s)) < 1e-12
        assert np.max(np.abs(g_r)) < 1e-12

    def test_axial_component_divides_by_stretch(self):
        f = self._mesh(lambda rr, tt, ss: ss)
        g_s, _, _ = tube_gradient(f, self.r, self.theta, self.s, k=2.0)
        np.testing.assert_allclose(g_s, 0.5, atol=1e-12)

    def test_rejects_nonpositive_stretch(self):
        f = self._mesh(lambda rr, tt, ss: rr)
        with pytest.raises(ValueError):
            tube_gradient(f, self.r, self.theta, self.s, k=0.0)


# (r, theta, s) axes of a valid tube_gradient grid
AXES = (np.linspace(0.5, 1.5, 6), np.linspace(0.0, 2.0, 5), np.linspace(0.0, 3.0, 7))


class TestRejections:
    @pytest.mark.parametrize("call,message", [
        (lambda: tube_gradient(np.zeros((6, 5)), *AXES), "f must be sampled on the"),
        (lambda: tube_gradient(np.zeros((6, 5, 2)), *AXES[:2], AXES[2][:2]),
         "need at least 3 nodes per axis"),
        (lambda: tube_gradient(np.zeros((6, 5, 7)), AXES[0] - 1.0, *AXES[1:]),
         "radial nodes must be positive"),
        (lambda: log_radial_check(sp.Symbol("x") * sp.Symbol("y"), RadialGrid.default_log()),
         "expression must have a single free symbol"),
        (lambda: TubeFlowField(0.0, 0.0, 1.0, 1.0, 0.0, np.zeros(16), np.zeros(15)),
         "v_s and v_theta must be sampled on the same grid"),
        (lambda: pressure_blowup_check(TubeFlowField.rigid_rotation(RadialGrid.default_log(), 1.0),
                                       [0.1, 0.01]), "need at least 3 radii"),
        (lambda: pressure_blowup_check(TubeFlowField.rigid_rotation(RadialGrid.default_log(), 1.0),
                                       [0.1, 0.0, -0.1]), "radii must be positive"),
    ], ids=["gradient-shape", "gradient-axis", "gradient-radius", "two-symbols",
            "unequal-profiles", "two-radii", "zero-radius"])
    def test_rejects_with_a_named_cause(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestCompactOperator:
    def test_zero_function(self, log_grid):
        assert np.max(np.abs(compact_operator_apply(np.zeros(log_grid.count), log_grid))) == 0.0

    @pytest.mark.parametrize("fn,shape", [(lambda r: r[:-1], "(255,)"), (lambda r: 1.0, "()")])
    def test_callable_of_the_wrong_shape_is_rejected(self, log_grid, fn, shape):
        with pytest.raises(ValueError, match=f"expected 256 samples, got shape {re.escape(shape)}"):
            _samples_on(fn, log_grid)

    def test_quadratic_on_linear_grid_is_exact(self):
        grid = RadialGrid(0.5, 2.0, 64, "linear")
        result = compact_operator_apply(lambda r: r**2, grid)
        np.testing.assert_allclose(result, 6.0, rtol=1e-9)

    def test_quadratic_on_log_grid(self, log_grid):
        result = compact_operator_apply(lambda r: r**2, log_grid)
        np.testing.assert_allclose(result, 6.0, rtol=2e-3)

    def test_inverse_radius(self, log_grid):
        result = compact_operator_apply(lambda r: 1.0 / r, log_grid)
        np.testing.assert_allclose(result, 3.0 / log_grid.nodes**3, rtol=1e-3)

    @pytest.mark.parametrize(
        "fn,exact",
        [
            (lambda r: r**2, lambda r: np.full_like(r, 6.0)),
            (lambda r: 1.0 / r, lambda r: 3.0 / r**3),
            (np.sin, lambda r: -np.sin(r) + np.cos(r) / r + 2.0 * np.sin(r) / r**2),
        ],
    )
    def test_second_order_convergence(self, fn, exact):
        defects = []
        for count in (65, 129):
            grid = RadialGrid(0.5, 2.0, count, "log")
            defect = np.max(np.abs(compact_operator_apply(fn(grid.nodes), grid) - exact(grid.nodes)))
            defects.append(defect)
        ratio = defects[0] / defects[1]
        assert 3.0 < ratio < 5.0


class TestLogRadialCheck:
    def test_quadratic(self, log_grid):
        assert log_radial_check(lambda r: r**2, log_grid) < 1e-8

    def test_constant_is_exact(self, log_grid):
        assert log_radial_check(lambda r: 1 + 0 * r, log_grid) == 0.0

    def test_oscillatory_in_log_radius(self, log_grid):
        assert log_radial_check(lambda r: sp.sin(sp.log(r)), log_grid) < 1e-6

    def test_accepts_sympy_expression(self, log_grid):
        r = sp.Symbol("x", positive=True)
        assert log_radial_check(r**3 + 1 / r, log_grid) < 1e-6

    def test_family_of_smooth_functions(self, log_grid):
        family = [
            lambda r: 1 + 0 * r,
            lambda r: r,
            lambda r: r**2,
            lambda r: r**3,
            lambda r: 1 / r,
            lambda r: 1 / r**2,
            lambda r: sp.sqrt(r),
            lambda r: sp.log(r),
            lambda r: sp.sin(sp.log(r)),
            lambda r: r * sp.exp(r),
        ]
        for fn in family:
            assert log_radial_check(fn, log_grid) < 1e-6


class TestFlowFieldConstruction:
    def test_eigen_ansatz_ratio_holds_nodewise(self, log_grid):
        field = TubeFlowField.eigen_ansatz(log_grid, GOLDEN)
        np.testing.assert_array_equal(field.v_theta, field.m * field.v_s)
        np.testing.assert_array_equal(field.v_s, -np.log(log_grid.nodes))

    def test_rigid_rotation_profile(self, log_grid):
        field = TubeFlowField.rigid_rotation(log_grid, 2.5)
        np.testing.assert_array_equal(field.v_theta, 2.5 * log_grid.nodes)
        assert field.m == 0.0

    def test_rejects_nonpositive_density(self, log_grid):
        with pytest.raises(ValueError):
            TubeFlowField.eigen_ansatz(log_grid, 1.0, rho0=0.0)

    def test_rejects_negative_curvature(self, log_grid):
        with pytest.raises(ValueError):
            TubeFlowField.eigen_ansatz(log_grid, 1.0, kappa0=-1.0)


class TestResiduals:
    def test_zero_field_zero_residuals(self, log_grid):
        zeros = np.zeros(log_grid.count)
        field = TubeFlowField(0.0, 0.0, 1.0, 1.0, 0.0, zeros, zeros)
        assert np.max(np.abs(poloidal_residual(field, log_grid))) == 0.0

    def test_poloidal_constant_toroidal_speed(self, log_grid):
        ones = np.ones(log_grid.count)
        zeros = np.zeros(log_grid.count)
        field = TubeFlowField(0.0, 0.0, 1.0, 1.0, 0.0, ones, zeros)
        np.testing.assert_allclose(
            poloidal_residual(field, log_grid), 2.0 / log_grid.nodes**2, rtol=1e-12
        )

    def test_toroidal_constant_fields(self, log_grid):
        # v_s = 1, v_theta = 2, gamma = 0 -> (1/r)(2 - 1) = 1/r, derivatives vanish
        field = TubeFlowField(
            0.0, 0.0, 1.0, 1.0, 0.0, np.ones(log_grid.count), 2.0 * np.ones(log_grid.count)
        )
        np.testing.assert_allclose(
            toroidal_residual(field, log_grid), 1.0 / log_grid.nodes, rtol=1e-12
        )

    def test_constant_equal_fields_have_zero_toroidal_residual(self, log_grid):
        ones = np.ones(log_grid.count)
        field = TubeFlowField(1.0, 0.0, 1.0, 1.0, 0.0, ones, ones.copy())
        assert np.max(np.abs(toroidal_residual(field, log_grid))) == 0.0

    def test_toroidal_residual_matches_symbolic_oracle(self, log_grid):
        m_value, gamma = GOLDEN, 0.3
        field = TubeFlowField.eigen_ansatz(log_grid, m_value, gamma=gamma)
        r = sp.Symbol("r", positive=True)
        v_s = -sp.log(r)
        expr = (
            (m_value * v_s - v_s) / r
            + sp.diff(v_s, r) / r
            + sp.diff(v_s, r, 2)
            - gamma * v_s
        )
        oracle = sp.lambdify(r, expr, "numpy")(log_grid.nodes)
        fd = toroidal_residual(field, log_grid)
        assert np.max(np.abs(fd - oracle) / (1.0 + np.abs(oracle))) < 1e-9

    def test_poloidal_residual_matches_symbolic_oracle(self, log_grid):
        m_value, gamma = GOLDEN, 0.3
        field = TubeFlowField.eigen_ansatz(log_grid, m_value, gamma=gamma)
        r = sp.Symbol("r", positive=True)
        v_s = -sp.log(r)
        v_theta = m_value * v_s
        expr = (
            2 * v_s / r**2
            + sp.diff(v_theta, r) / r
            + sp.diff(v_theta, r, 2)
            - gamma * v_theta
        )
        oracle = sp.lambdify(r, expr, "numpy")(log_grid.nodes)
        fd = poloidal_residual(field, log_grid)
        assert np.max(np.abs(fd - oracle) / (1.0 + np.abs(oracle))) < 1e-9

    @pytest.mark.parametrize("m_value", [2.0, -1.0])
    def test_elimination_roots_cancel_residual_difference(self, log_grid, m_value):
        field = TubeFlowField.eigen_ansatz(log_grid, m_value, gamma=0.3)
        diff = poloidal_residual(field, log_grid) - m_value * toroidal_residual(
            field, log_grid, eigen_convention=True
        )
        scale = np.max(np.abs(field.v_s / log_grid.nodes**2))
        assert np.max(np.abs(diff)) <= 1e-9 * scale

    def test_golden_ratio_leaves_residual_difference(self, log_grid):
        # [2 - m(m-1)] = 1 exactly when m^2 = m + 1
        field = TubeFlowField.eigen_ansatz(log_grid, GOLDEN, gamma=0.3)
        diff = poloidal_residual(field, log_grid) - GOLDEN * toroidal_residual(
            field, log_grid, eigen_convention=True
        )
        expected = field.v_s / log_grid.nodes**2
        np.testing.assert_allclose(diff, expected, rtol=1e-9, atol=1e-9)


class TestRadialPressureResidual:
    def test_equal_flows_drop_quadratic_term(self, log_grid):
        ones = np.ones(log_grid.count)
        field = TubeFlowField(1.0, 0.5, 1.0, 2.0, 0.0, ones, ones.copy())
        residual = radial_pressure_residual(field, 0.0, log_grid)
        # only v_s kappa0^2 - v_theta omega0 = 4 - 0.5 survives
        np.testing.assert_allclose(residual, -3.5, rtol=1e-14)

    def test_direct_substitution(self, log_grid):
        field = TubeFlowField(
            0.0, 0.0, 1.0, 1.0, 0.0, np.ones(log_grid.count), np.zeros(log_grid.count)
        )
        residual = radial_pressure_residual(field, 1.0, log_grid)
        np.testing.assert_allclose(residual, 1.0 - (1.0 + 2.0 / log_grid.nodes), rtol=1e-12)

    def test_closed_form_pressure_solves_linearized_balance(self, log_grid):
        field = TubeFlowField.eigen_ansatz(log_grid, GOLDEN, omega0=1.0, kappa0=1.0)
        r = log_grid.nodes
        # d/dr of rho0 [omega0^2 r - m kappa0 (ln r)^2], differentiated by hand
        p_gradient = field.omega0**2 - 2.0 * field.m * field.kappa0 * np.log(r) / r
        residual = radial_pressure_residual(field, p_gradient, log_grid, linearized=True)
        scale = 1.0 + np.max(np.abs(p_gradient))
        assert np.max(np.abs(residual)) / scale < 1e-12


class TestEigenproblems:
    def test_elimination_gives_monic_quadratic(self):
        problem = eliminate_eigenvalue()
        assert problem.coefficients == (1.0, -1.0, -2.0)
        assert problem.provenance == "derived-elimination"

    @pytest.mark.parametrize("problem", [eliminate_eigenvalue(), paper_eigenproblem()],
                             ids=["derived", "stated"])
    def test_each_root_zeroes_its_quadratic(self, problem):
        for root in problem.roots():
            assert abs(problem.evaluate(root)) <= 1e-12

    def test_symbolic_elimination_reproduces_the_constant(self):
        # the two log-variable equations with independent symbols for the
        # profile and its derivatives; poloidal - m * toroidal must cancel
        # every derivative and growth term
        m, g, v, v1, v2 = sp.symbols("m g v v1 v2")
        poloidal = 2 * v + m * v1 + m * v2 - g * m * v
        toroidal = (m - 1) * v + v1 + v2 - g * v
        combo = sp.expand(poloidal - m * toroidal)
        coefficient = combo.coeff(v)
        assert sp.expand(combo - coefficient * v) == 0
        poly = sp.Poly(sp.expand(-coefficient), m)
        c2, c1, c0 = (float(c) for c in poly.all_coeffs())
        derived = QuadraticEigenproblem(c2, c1, c0, "derived-elimination")
        assert derived == eliminate_eigenvalue()

    def test_elimination_roots(self):
        roots = eliminate_eigenvalue().roots()
        assert roots[0] == 2.0 + 0j
        assert roots[1] == -1.0 + 0j

    def test_elimination_roots_satisfy_combination(self):
        for m in (2.0, -1.0):
            assert abs(2.0 - m * (m - 1.0)) < 1e-14

    def test_stated_quadratic(self):
        problem = paper_eigenproblem()
        assert problem.coefficients == (1.0, -1.0, -1.0)
        assert problem.provenance == "paper-stated"

    def test_stated_roots_are_golden(self):
        roots = paper_eigenproblem().roots()
        assert roots[0].real == pytest.approx(GOLDEN, abs=1e-12)
        assert roots[1].real == pytest.approx(GOLDEN_MINUS, abs=1e-12)
        assert roots[0].imag == 0.0 and roots[1].imag == 0.0

    def test_golden_identity(self):
        for m in paper_eigenproblem().roots():
            assert abs(m * m - (m + 1.0)) < 1e-14

    def test_vieta_on_stated_quadratic(self):
        m_plus, m_minus = paper_eigenproblem().roots()
        assert m_plus * m_minus == pytest.approx(-1.0, abs=1e-12)
        assert m_plus + m_minus == pytest.approx(1.0, abs=1e-12)

    def test_rejects_degenerate_leading_coefficient(self):
        with pytest.raises(ValueError):
            QuadraticEigenproblem(0.0, 1.0, 1.0, "derived-elimination")

    def test_discrepancy_report(self):
        report = eigenvalue_discrepancy_report()
        assert report["consistent"] is False
        assert report["constant_term_difference"] == 1.0
        derived = report["derived-elimination"]
        stated = report["paper-stated"]
        assert derived["coefficients"] == [1.0, -1.0, -2.0]
        assert stated["coefficients"] == [1.0, -1.0, -1.0]
        assert derived["roots_real"] == [2.0, -1.0]
        assert stated["roots_real"][0] == pytest.approx(GOLDEN, abs=1e-12)


class TestVelocityProfile:
    def test_zero_at_unit_radius(self, log_grid):
        assert velocity_profile(log_grid)[-1] == 0.0

    def test_value_at_inverse_e(self):
        grid = RadialGrid(math.exp(-1.0), 1.0, 16, "log")
        assert velocity_profile(grid)[0] == pytest.approx(1.0, abs=1e-14)

    def test_derivative_matches_minus_inverse_radius(self, log_grid):
        v_s = velocity_profile(log_grid)
        defect = np.max(np.abs(radial_derivative(v_s, log_grid) + 1.0 / log_grid.nodes))
        assert defect < 1e-6


class TestPressure:
    def test_unit_radius_leaves_rotation_term(self, log_grid):
        field = TubeFlowField.eigen_ansatz(log_grid, GOLDEN, omega0=3.0, rho0=2.0)
        assert pressure_profile(1.0, field) == 2.0 * 9.0

    def test_direct_substitution_at_inverse_e(self, log_grid):
        field = TubeFlowField.eigen_ansatz(log_grid, GOLDEN, omega0=0.0, rho0=1.0, kappa0=1.0)
        assert pressure_profile(math.exp(-1.0), field) == pytest.approx(-GOLDEN, abs=1e-12)

    def test_rejects_nonpositive_radius(self, log_grid):
        field = TubeFlowField.eigen_ansatz(log_grid, 1.0)
        with pytest.raises(ValueError):
            pressure_profile(0.0, field)
        with pytest.raises(ValueError):
            pressure_profile(-1.0, field)

    def test_blowup_divergent_when_m_kappa_positive(self, log_grid):
        field = TubeFlowField.eigen_ansatz(log_grid, GOLDEN, omega0=0.0, kappa0=1.0)
        radii = np.logspace(-1, -6, 6)
        assert pressure_blowup_check(field, radii) == "divergent"

    def test_blowup_bounded_for_pure_rotation(self, log_grid):
        field = TubeFlowField.rigid_rotation(log_grid, 2.0)
        radii = np.logspace(-1, -6, 6)
        assert pressure_blowup_check(field, radii) == "bounded"

    def test_blowup_bounded_for_straight_tube(self, log_grid):
        field = TubeFlowField.eigen_ansatz(log_grid, GOLDEN, omega0=1.0, kappa0=0.0)
        radii = np.logspace(-1, -6, 6)
        assert pressure_blowup_check(field, radii) == "bounded"

    def test_blowup_rejects_nonmonotone_sequence(self, log_grid):
        field = TubeFlowField.eigen_ansatz(log_grid, 1.0)
        with pytest.raises(ValueError):
            pressure_blowup_check(field, [0.1, 0.2, 0.05])

    def test_pressure_with_m_zero_is_linear_in_radius(self, log_grid):
        field = TubeFlowField.rigid_rotation(log_grid, 1.5, rho0=2.0)
        radii = np.array([0.1, 0.2, 0.4])
        values = pressure_profile(radii, field)
        np.testing.assert_allclose(values, 2.0 * 1.5**2 * radii, rtol=1e-14)


class TestVorticity:
    def test_zero_speed_gives_zero_vorticity(self):
        assert np.max(np.abs(vorticity(1.0, 0.3, 1.0, 0.0))) == 0.0

    def test_direct_substitution(self):
        np.testing.assert_allclose(
            vorticity(1.0, 0.0, 1.0, 1.0), np.array([-1.0, 0.0, 1.0]), atol=1e-15
        )

    def test_secant_singularity_rejected(self):
        with pytest.raises(ValueError):
            vorticity(1.0, math.pi / 2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            vorticity(1.0, 3.0 * math.pi / 2.0, 1.0, 1.0)

    def test_antisymmetric_in_speed(self):
        plus = vorticity(0.7, 0.4, 2.0, 1.3)
        minus = vorticity(0.7, 0.4, 2.0, -1.3)
        np.testing.assert_array_equal(minus, -plus)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            vorticity(0.0, 0.0, 1.0, 1.0)


class TestBeltramiAlignment:
    def test_parallel_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        assert beltrami_alignment(v, 2.0 * v) == pytest.approx(2.0, abs=1e-14)

    def test_perpendicular_vectors(self):
        assert beltrami_alignment([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]) is None

    def test_small_perturbation_tolerated(self):
        v = np.array([1.0, 2.0, 3.0])
        omega = -0.5 * v + np.array([1e-12, -1e-12, 0.0])
        assert beltrami_alignment(v, omega) == pytest.approx(-0.5, abs=1e-10)

    def test_zero_vorticity_is_trivially_aligned(self):
        assert beltrami_alignment([1.0, 0.0, 0.0], [0.0, 0.0, 0.0]) == 0.0

    def test_rejects_zero_flow(self):
        with pytest.raises(ValueError):
            beltrami_alignment([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])


class TestAlphaEffect:
    def test_unit_ratio_kills_alpha(self):
        assert alpha_effect(0.5, 1.0, 3.0, 2.0) == 0.0

    def test_golden_ratio_value(self):
        assert alpha_effect(1.0, GOLDEN, 1.0, 1.0) == pytest.approx(
            0.6180339887498949, abs=1e-12
        )

    def test_doubling_curvature_quadruples_alpha(self):
        base = alpha_effect(0.37, GOLDEN, 1.3, 0.9)
        assert alpha_effect(0.37, GOLDEN, 2.6, 0.9) == 4.0 * base

    def test_homogeneity_powers_of_two_exact(self):
        base = alpha_effect(0.37, GOLDEN, 1.3, 0.9)
        assert alpha_effect(0.37, GOLDEN, 2.0 * 1.3, 0.9) == 4.0 * base
        assert alpha_effect(0.37, GOLDEN, 1.3, 2.0 * 0.9) == 4.0 * base
        assert alpha_effect(2.0 * 0.37, GOLDEN, 1.3, 0.9) == 0.5 * base

    def test_homogeneity_generic_factors(self):
        base = alpha_effect(0.37, GOLDEN, 1.3, 0.9)
        assert alpha_effect(0.37, GOLDEN, 3.0 * 1.3, 0.9) == pytest.approx(
            9.0 * base, rel=1e-14
        )
        assert alpha_effect(0.37, GOLDEN, 1.3, 3.0 * 0.9) == pytest.approx(
            9.0 * base, rel=1e-14
        )
        assert alpha_effect(3.0 * 0.37, GOLDEN, 1.3, 0.9) == pytest.approx(
            base / 3.0, rel=1e-14
        )

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            alpha_effect(0.0, 1.0, 1.0, 1.0)

    def test_discrepancy_report(self):
        report = alpha_effect_discrepancy()
        assert report["consistent"] is False
        assert report["factor_from_formula"][0] == pytest.approx(GOLDEN - 1.0, abs=1e-12)
        assert report["factor_as_printed"][0] == pytest.approx(GOLDEN, abs=1e-12)


class TestIncompressibility:
    def test_eigen_ansatz_is_solenoidal(self, log_grid):
        field = TubeFlowField.eigen_ansatz(log_grid, GOLDEN)
        assert incompressibility_defect(field, log_grid) < 1e-10

    def test_rigid_rotation_is_solenoidal(self, log_grid):
        field = TubeFlowField.rigid_rotation(log_grid, 2.0, v_s=1.0)
        assert incompressibility_defect(field, log_grid) < 1e-10

    def test_radial_injection_detected(self, log_grid):
        field = TubeFlowField.eigen_ansatz(log_grid, GOLDEN)
        defect = incompressibility_defect(field, log_grid, v_r=log_grid.nodes)
        assert defect == pytest.approx(2.0, rel=1e-2)


def _closed_form_step(grid):
    if grid.spacing == "log":
        return (math.log(grid.r_max) - math.log(grid.r_min)) / (grid.count - 1)
    return (grid.r_max - grid.r_min) / (grid.count - 1)


class TestOneDerivativePath:
    """Every radial derivative comes from one stencil pass, bit for bit as the formulas below.

    The reference functions write out each derivative on its own: the chain
    rule per derivative, and the natural step recomputed from the grid's four
    fields.
    """

    @staticmethod
    def d1(f, grid):
        g1 = derivative_uniform(f, _closed_form_step(grid))
        return g1 / grid.nodes if grid.spacing == "log" else g1

    @staticmethod
    def d2(f, grid):
        h = _closed_form_step(grid)
        if grid.spacing == "log":
            g1 = derivative_uniform(f, h)
            g2 = second_derivative_uniform(f, h)
            return (g2 - g1) / (grid.nodes * grid.nodes)
        return second_derivative_uniform(f, h)

    def compact(self, f, grid):
        r = grid.nodes
        if grid.spacing == "log":
            g2 = second_derivative_uniform(f, _closed_form_step(grid))
            return (g2 + 2.0 * f) / (r * r)
        return self.d2(f, grid) + self.d1(f, grid) / r + 2.0 * f / (r * r)

    def poloidal(self, field, grid):
        r = grid.nodes
        vt1, vt2 = self.d1(field.v_theta, grid), self.d2(field.v_theta, grid)
        return 2.0 * field.v_s / (r * r) + vt1 / r + vt2 - field.gamma * field.v_theta

    def toroidal(self, field, grid, eigen_convention):
        r = grid.nodes
        vs1, vs2 = self.d1(field.v_s, grid), self.d2(field.v_s, grid)
        weight = r * r if eigen_convention else r
        return (field.v_theta - field.v_s) / weight + vs1 / r + vs2 - field.gamma * field.v_s

    def incompressibility(self, grid, v_r):
        r = grid.nodes
        divergence = np.zeros_like(r)
        if v_r is not None:
            divergence = divergence + self.d1(r * v_r, grid) / r
        return float(np.max(np.abs(divergence)))

    @settings(max_examples=60, deadline=None)
    @given(
        spacing=st.sampled_from(["linear", "log"]),
        count=st.integers(16, 2000),
        r_min=st.floats(1e-8, 0.5),
        ratio=st.floats(1.0, 1e8, exclude_min=True),
        seed=st.integers(0, 2**32 - 1),
        gamma=st.floats(-10.0, 10.0),
    )
    @example(spacing="log", count=16, r_min=0.1, ratio=1.0000000000000002, seed=0, gamma=0.0)
    def test_bit_for_bit(self, spacing, count, r_min, ratio, seed, gamma):
        assume(r_min * ratio > r_min)
        r_max = r_min * ratio
        # r_max within a few ulps of r_min can leave a natural step of 0 or nodes that do
        # not strictly increase: the grid refuses those draws, and compares all others
        nodes = (np.geomspace if spacing == "log" else np.linspace)(r_min, r_max, count)
        span = math.log(r_max) - math.log(r_min) if spacing == "log" else r_max - r_min
        if not (span / (count - 1) > 0.0 and (np.diff(nodes) > 0.0).all()):
            with pytest.raises(ValueError, match="r_min .* and r_max .* strictly increasing"):
                RadialGrid(r_min, r_max, count, spacing)
            return
        grid = RadialGrid(r_min, r_max, count, spacing)
        rng = np.random.default_rng(seed)
        f, v_s, v_theta, v_r = rng.standard_normal((4, count))
        field = TubeFlowField(0.5, 0.0, 1.0, 1.0, gamma, v_s, v_theta)
        # a grid a few dozen ulps wide has a natural step near 1e-17, and both sides then
        # divide by it alike; the comparison below covers the values that gives too
        with np.errstate(all="ignore"):
            pairs = [
                (radial_derivative(f, grid), self.d1(f, grid)),
                (radial_second_derivative(f, grid), self.d2(f, grid)),
                (compact_operator_apply(f, grid), self.compact(f, grid)),
                (poloidal_residual(field, grid), self.poloidal(field, grid)),
            ]
            for eigen in (False, True):
                pairs.append((
                    toroidal_residual(field, grid, eigen_convention=eigen),
                    self.toroidal(field, grid, eigen),
                ))
            for radial in (None, v_r):
                got = incompressibility_defect(field, grid, v_r=radial)
                assert type(got) is float
                pairs.append((got, self.incompressibility(grid, radial)))
        for got, want in pairs:
            assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("eigen_convention", [None, False, True])
    def test_each_residual_runs_each_stencil_once(self, monkeypatch, log_grid, eigen_convention):
        calls = {}

        def counted(name):
            inner = getattr(tube, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(tube, name, wrapper)

        for name in ("derivative_uniform", "second_derivative_uniform", "_samples_on"):
            counted(name)
        field = TubeFlowField.eigen_ansatz(log_grid, GOLDEN, gamma=0.3)
        if eigen_convention is None:
            poloidal_residual(field, log_grid)
        else:
            toroidal_residual(field, log_grid, eigen_convention=eigen_convention)
        assert calls == {"derivative_uniform": 1, "second_derivative_uniform": 1, "_samples_on": 1}


class TestGridFields:
    @pytest.mark.parametrize("spacing", ["linear", "log"])
    def test_natural_step_is_the_closed_form(self, spacing):
        grid = RadialGrid(3e-4, 2.5, 97, spacing)
        assert grid.natural_step == _closed_form_step(grid)
        assert "natural_step" in vars(grid)

    def test_only_the_four_fields_define_a_grid(self):
        a = RadialGrid(0.1, 1.0, 16, "uniform-in-ln-r")
        b = RadialGrid(0.1, 1.0, 16, "log")
        assert a == b
        assert hash(a) == hash(b)
        assert repr(a) == "RadialGrid(r_min=0.1, r_max=1.0, count=16, spacing='log')"
        assert a != RadialGrid(0.1, 1.0, 16, "linear")
