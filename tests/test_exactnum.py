import math
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from scanstat.exactnum import format_rational, half_binom


def test_half_binom_odd_is_zero():
    assert all(half_binom(n) == 0 for n in range(1, 62, 2))


def test_half_binom_matches_factorials():
    for n in range(0, 62, 2):
        assert half_binom(n) == math.factorial(n) // math.factorial(n // 2) ** 2


@given(st.integers(min_value=1, max_value=60))
def test_half_binom_pascal_identity(k):
    assert half_binom(2 * k) == math.comb(2 * k - 1, k) + math.comb(2 * k - 1, k - 1)


def test_format_rational():
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(5)) == "5"
    assert format_rational(Fraction(-1, 6)) == "-1/6"
