"""Properties of the closed-form quadratic roots, through each public caller.

maps.classify, QuadraticEigenproblem.roots and filament.solve_growth_rate all
solve a quadratic c2 x^2 + c1 x + c0 = 0 in closed form and order the two
roots their own way.  For every caller the roots must satisfy Vieta's
identities and leave a residual at rounding level, both measured against
the quadratic's own scale (c1^2 + |c2 c0|) / |c2|, which is what rounding in
the closed form can reach when one root is much smaller than the other.
"""

import sys

from hypothesis import assume, given
from hypothesis import strategies as st

from dynamokit.filament import solve_growth_rate
from dynamokit.maps import LinearTorusMap, classify
from dynamokit.tube import QuadraticEigenproblem

EPS = sys.float_info.epsilon
TOL = 64.0 * EPS

# magnitudes in [1e-3, 100] or exactly 0: products and discriminants stay far
# from underflow, where no relative rounding bound holds
magnitude = st.floats(min_value=1e-3, max_value=100.0)
leading = st.one_of(magnitude, magnitude.map(lambda value: -value))
coefficient = st.one_of(st.just(0.0), leading)


def assert_roots_of(c2, c1, c0, roots):
    scale = (c1 * c1 + abs(c2 * c0)) / abs(c2)
    r1, r2 = roots
    for r in roots:
        assert abs(c2 * r * r + c1 * r + c0) <= TOL * scale
    assert abs((r1 + r2) + c1 / c2) <= TOL * (abs(r1) + abs(r2))
    assert abs(r1 * r2 - c0 / c2) <= TOL * scale / abs(c2)


@given(coefficient, coefficient, coefficient, coefficient)
def test_classify_eigenvalues(a, b, c, d):
    result = classify(LinearTorusMap(a, b, c, d))
    assert_roots_of(1.0, -result.trace, result.determinant, result.eigenvalues)
    lam1, lam2 = result.eigenvalues
    assert (-abs(lam1), -lam1.imag, -lam1.real) <= (-abs(lam2), -lam2.imag, -lam2.real)


@given(leading, coefficient, coefficient)
def test_eigenproblem_roots(c2, c1, c0):
    roots = QuadraticEigenproblem(c2, c1, c0, "derived-elimination").roots()
    assert_roots_of(c2, c1, c0, roots)
    z1, z2 = roots
    assert (-z1.real, -z1.imag) <= (-z2.real, -z2.imag)


@given(magnitude, coefficient, coefficient, coefficient)
def test_growth_rate_x_roots(eta, a, b, c):
    ba = b * a
    assume(abs(ba) >= 1e-3)
    result = solve_growth_rate(eta, a, b, c)
    assert_roots_of(ba, ba * c, c, result.x_roots)
    x1, x2 = result.x_roots
    assert (-x1.real, -x1.imag) <= (-x2.real, -x2.imag)
    nonzero = [x for x in result.x_roots if x != 0]
    assert result.roots == tuple(eta / x for x in nonzero)
