import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scanstat.exactnum import DomainError
from scanstat.exppoly import ExpPoly


def ep(*triples):
    """Build an ExpPoly from (coefficient, s-power, exp-rate) triples."""
    out = ExpPoly.zero()
    for c, a, b in triples:
        out = out + ExpPoly.term(c, a, b)
    return out


coef = st.fractions(min_value=-3, max_value=3)
small_polys = st.lists(
    st.tuples(coef, st.integers(min_value=0, max_value=3), st.integers(min_value=-2, max_value=2)),
    max_size=4,
).map(lambda ts: ep(*ts))


def test_mul_difference_of_squares():
    lhs = (ExpPoly.exp(1) - ExpPoly.exp(-1)) * (ExpPoly.exp(1) + ExpPoly.exp(-1))
    assert lhs == ExpPoly.exp(2) - ExpPoly.exp(-2)


def test_add_identity():
    x = ep((2, 1, 1), (-3, 0, 0))
    assert x + ExpPoly.zero() == x


def test_mul_cancels_exponentials():
    lhs = (ExpPoly.s() * ExpPoly.exp(1)) * (ExpPoly.s() * ExpPoly.exp(-1))
    assert lhs == ExpPoly.s(2)


def test_diff_examples():
    assert ExpPoly.exp(2).diff_s() == 2 * ExpPoly.exp(2)
    assert ExpPoly.s(2).diff_s() == 2 * ExpPoly.s()
    assert (ExpPoly.s() * ExpPoly.exp(-1)).diff_s() == ExpPoly.exp(-1) - ExpPoly.s() * ExpPoly.exp(-1)


def test_integrate_examples():
    assert ExpPoly.exp(1).integrate_0_to_s() == ExpPoly.exp(1) - ExpPoly.one()
    integrand = ExpPoly.exp(1) * (ExpPoly.exp(1) - ExpPoly.exp(-1))
    expected = (ExpPoly.exp(2) - ExpPoly.one()) * Fraction(1, 2) - ExpPoly.s()
    assert integrand.integrate_0_to_s() == expected
    assert ExpPoly.one().integrate_0_to_s() == ExpPoly.s()


@given(small_polys)
def test_diff_integrate_round_trip(x):
    assert x.integrate_0_to_s().diff_s() == x


@given(small_polys)
def test_integral_vanishes_at_zero(x):
    assert x.integrate_0_to_s().at_zero() == 0


@given(small_polys, small_polys, small_polys)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z


def test_eval_float():
    odd = ExpPoly.exp(1) - ExpPoly.exp(-1)
    assert odd.eval_float(0.0) == 0.0
    assert ExpPoly.s(2).eval_float(3.0) == pytest.approx(9.0)
    expr = ExpPoly.exp(2) - ExpPoly.one() - 2 * ExpPoly.s()
    assert expr.eval_float(1.0) == pytest.approx(math.e**2 - 3)


def test_inverse_of_unit():
    unit = ExpPoly.term(Fraction(2, 3), 0, 4)
    assert unit * unit.inverse() == ExpPoly.one()


def test_inverse_of_non_unit_rejected():
    with pytest.raises(DomainError):
        (ExpPoly.exp(1) - ExpPoly.one()).inverse()
    with pytest.raises(DomainError):
        ExpPoly.s().inverse()


def test_negative_s_power_rejected():
    with pytest.raises(DomainError):
        ExpPoly({(-1, 0): Fraction(1)})


def test_render_deterministic():
    x = ep((1, 0, 2), (-2, 1, 0), (-1, 0, 0))
    assert repr(x) == "-1 + (-2)*s + exp(2*s)"
    assert repr(ExpPoly.zero()) == "0"


def test_canonical_drops_zero_terms():
    x = ExpPoly({(1, 1): Fraction(1), (2, 0): Fraction(0)})
    assert x.terms == {(1, 1): Fraction(1)}


# cheaper to draw than small_polys: int-ratio coefficients, terms on one key summed
int_ratio_polys = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=-2, max_value=2)),
    st.builds(Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)),
    max_size=4,
).map(ExpPoly)


@given(int_ratio_polys, int_ratio_polys, int_ratio_polys)
def test_equal_values_by_different_routes_share_hash_and_terms(x, y, z):
    # the canonical form is unique: equal values hold equal numerators over one denominator
    for left, right in (((x * y) * z, x * (y * z)), (x + y - y, x)):
        assert left == right
        assert hash(left) == hash(right)
        assert left.terms == right.terms
