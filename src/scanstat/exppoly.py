"""Exact ring of exponential polynomials: finite sums c * s^a * exp(b*s).

A value is a map {(a, b): c} with a >= 0 an integer power of s, b an integer
exponent of exp(s), and c a nonzero Fraction.  The empty map is zero.  The
ring is closed under addition, multiplication (exponents add), d/ds, and
definite integration from 0 to s, which is everything the transform-domain
machinery needs.  Equality of canonical forms is semantic equality, so all
symbolic identity checks reduce to dictionary comparison.

Values are immutable: every operation returns a fresh ExpPoly.  The public
constructor validates and coerces its input; the ring operations build their
results through the trusted `_from_terms`, whose keys are already int pairs
and whose coefficients are already Fractions, so it only drops zeros.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactnum import DomainError


class ExpPoly:
    __slots__ = ("_terms",)

    def __init__(self, terms: dict | None = None):
        clean = {}
        if terms:
            for (a, b), c in terms.items():
                if a < 0:
                    raise DomainError(f"negative power of s: {a}")
                c = Fraction(c)
                if c:
                    clean[(int(a), int(b))] = clean.get((int(a), int(b)), Fraction(0)) + c
        self._terms = {k: c for k, c in clean.items() if c}

    @classmethod
    def _from_terms(cls, terms: dict) -> "ExpPoly":
        """Wrap terms the ring operations built (int-pair keys, Fraction values), dropping zeros."""
        self = object.__new__(cls)
        self._terms = {k: c for k, c in terms.items() if c}
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "ExpPoly":
        return cls()

    @classmethod
    def one(cls) -> "ExpPoly":
        return cls({(0, 0): Fraction(1)})

    @classmethod
    def const(cls, c) -> "ExpPoly":
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def term(cls, c, a: int = 0, b: int = 0) -> "ExpPoly":
        """The single term c * s^a * exp(b*s)."""
        return cls({(a, b): Fraction(c)})

    @classmethod
    def s(cls, a: int = 1) -> "ExpPoly":
        return cls({(a, 0): Fraction(1)})

    @classmethod
    def exp(cls, b: int) -> "ExpPoly":
        return cls({(0, b): Fraction(1)})

    # -- basic protocol ----------------------------------------------------

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "ExpPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out[key] + c if key in out else c
        return ExpPoly._from_terms(out)

    __radd__ = __add__

    def __neg__(self) -> "ExpPoly":
        return ExpPoly._from_terms({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "ExpPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                key = (a1 + a2, b1 + b2)
                out[key] = out[key] + c1 * c2 if key in out else c1 * c2
        return ExpPoly._from_terms(out)

    __rmul__ = __mul__

    def inverse(self) -> "ExpPoly":
        """Multiplicative inverse; defined only for unit terms c * exp(b*s)."""
        if len(self._terms) != 1:
            raise DomainError(f"not invertible in the ring: {self!r}")
        (a, b), c = next(iter(self._terms.items()))
        if a != 0:
            raise DomainError(f"not invertible in the ring: {self!r}")
        return ExpPoly._from_terms({(0, -b): 1 / c})

    # -- calculus ----------------------------------------------------------

    def diff_s(self) -> "ExpPoly":
        """Exact d/ds: c*s^a*e^{bs} -> c*a*s^{a-1}e^{bs} + c*b*s^a*e^{bs}."""
        out: dict = {}
        for (a, b), c in self._terms.items():
            if a > 0:
                key = (a - 1, b)
                out[key] = out[key] + c * a if key in out else c * a
            if b != 0:
                key = (a, b)
                out[key] = out[key] + c * b if key in out else c * b
        return ExpPoly._from_terms(out)

    def integrate_0_to_s(self) -> "ExpPoly":
        """Exact definite integral from 0 to s (vanishes at s = 0).

        Terms with b == 0 integrate to c*s^(a+1)/(a+1).  Terms with b != 0
        integrate by repeated parts,
            int_0^s p^a e^{bp} dp
              = sum_{j=0..a} (-1)^j a!/(a-j)! * s^(a-j) e^{bs} / b^(j+1)
                - (-1)^a a! / b^(a+1),
        the trailing constant being the parts formula evaluated at 0.
        """
        out: dict = {}

        def add(a, b, c):
            key = (a, b)
            out[key] = out[key] + c if key in out else c

        for (a, b), c in self._terms.items():
            if b == 0:
                add(a + 1, 0, c / (a + 1))
                continue
            for j in range(a + 1):
                coeff = Fraction((-1) ** j * math.factorial(a), math.factorial(a - j))
                add(a - j, b, c * coeff / Fraction(b) ** (j + 1))
            const = Fraction((-1) ** a * math.factorial(a)) / Fraction(b) ** (a + 1)
            add(0, 0, -c * const)
        return ExpPoly._from_terms(out)

    # -- evaluation --------------------------------------------------------

    def at_zero(self) -> Fraction:
        """Exact value at s = 0 (only (a=0, b) keys survive)."""
        return sum((c for (a, _b), c in self._terms.items() if a == 0), Fraction(0))

    def eval_float(self, s0: float) -> float:
        """Numeric value at a real point; OverflowError propagates."""
        total = 0.0
        for (a, b), c in self._terms.items():
            total += float(c) * s0**a * math.exp(b * s0)
        return total

    # -- rendering ---------------------------------------------------------

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (a, b) in sorted(self._terms, key=lambda k: (k[1], k[0])):
            c = self._terms[(a, b)]
            factors = []
            if a == 0 and b == 0:
                factors.append(str(c))
            else:
                if c != 1:
                    factors.append(f"({c})" if c < 0 else str(c))
                if a == 1:
                    factors.append("s")
                elif a > 1:
                    factors.append(f"s^{a}")
                if b == 1:
                    factors.append("exp(s)")
                elif b == -1:
                    factors.append("exp(-s)")
                elif b != 0:
                    factors.append(f"exp({b}*s)")
            parts.append("*".join(factors))
        return " + ".join(parts)


def _coerce(value):
    if isinstance(value, ExpPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return ExpPoly.const(value)
    return NotImplemented
