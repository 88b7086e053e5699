"""Exact rational arithmetic: extended binomial coefficients and safe integer powers.

`Rational` is an alias for the stdlib `fractions.Fraction`, which already
guarantees lowest terms and a positive denominator.  This module adds the two
conventions the closed-form evaluators rely on:

  * binom_ext(n, m) extends C(n, m) by 0 whenever m < 0, m > n, or m is not
    an integer (so call sites may pass n/2 directly and get 0 for odd n);
  * pow_int defines 0**0 == 1 and rejects 0 raised to a negative power.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import comb

Rational = Fraction


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


def binom_ext(n: int, m) -> Fraction:
    """Binomial coefficient C(n, m) with the extended convention.

    Returns 0 for m < 0, m > n, or non-integer rational m.  Requires n >= 0.
    """
    if n < 0:
        raise DomainError(f"binom_ext requires n >= 0, got n={n}")
    m = Fraction(m)
    if m.denominator != 1:
        return Fraction(0)
    k = int(m)
    if k < 0 or k > n:
        return Fraction(0)
    return Fraction(comb(n, k))


def pow_int(base, e: int):
    """base**e for an exact base and integer e, defining 0**0 == 1.

    Only 0 raised to a negative power is rejected.
    """
    if e < 0 and base == 0:
        raise DomainError(f"0 cannot be raised to the negative power {e}")
    if e == 0:
        return base * 0 + 1  # preserves operand type; covers 0**0 == 1
    return base**e


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
