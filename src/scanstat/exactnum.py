"""Exact-arithmetic helpers shared by the CDF kernel and the closed measures.

Values are stdlib `fractions.Fraction`s, which already guarantee lowest terms
and a positive denominator, and plain ints; binomials and powers are
`math.comb` and `**`.  This module adds the domain error every layer raises,
the central binomial C(n, n/2) (0 for odd n) and an exact serializer.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import comb


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


def half_binom(n: int) -> int:
    """C(n, n/2), which is 0 for odd n."""
    return 0 if n % 2 else comb(n, n // 2)


def format_rational(value: Fraction) -> str:
    """Serialize exactly as "p" or "p/q" (never rounded), however many digits.

    CPython caps int-to-str conversion at 4300 digits by default; the cap is
    lifted for this one conversion only, because exact CDF values at N in the
    thousands exceed it.
    """
    value = Fraction(value)
    if not hasattr(sys, "set_int_max_str_digits"):  # interpreters without the cap
        return str(value)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(saved)
