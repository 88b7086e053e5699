"""Exact ring of exponential polynomials: finite sums c * s^a * exp(b*s).

A value is a map {(a, b): c} with a >= 0 an integer power of s, b an integer
exponent of exp(s), and c a nonzero rational.  The map is held as int
numerators over one positive denominator, {(a, b): n} / d, in canonical form:
no zero numerator, gcd(d, every n) = 1, and zero is {} over 1.  Equal values
so have equal numerator maps and denominators, all symbolic identity checks
reduce to dictionary comparison, and each ring operation runs on ints and
reduces by one gcd.  The ring is closed under addition, multiplication
(exponents add), d/ds, and definite integration from 0 to s, which is
everything the transform-domain machinery needs.

Values are immutable: every operation returns a fresh ExpPoly.  The public
constructor validates and coerces its input (Fractions appear only there, in
`terms` and in `at_zero`); the ring operations build their results through the
trusted `_of`, whose keys are already int pairs and whose numerators are ints.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactnum import DomainError


class ExpPoly:
    __slots__ = ("_num", "_den")

    def __init__(self, terms: dict | None = None):
        clean: dict = {}
        for (a, b), c in (terms or {}).items():
            if a < 0:
                raise DomainError(f"negative power of s: {a}")
            key = (int(a), int(b))
            clean[key] = clean.get(key, 0) + Fraction(c)
        den = math.lcm(*(c.denominator for c in clean.values()))
        built = ExpPoly._of({k: c.numerator * (den // c.denominator) for k, c in clean.items()}, den)
        self._num, self._den = built._num, built._den

    @classmethod
    def _of(cls, num: dict, den: int = 1) -> "ExpPoly":
        """Wrap int numerators over a positive denominator: zeros dropped, one gcd taken out."""
        if not all(num.values()):
            num = {k: c for k, c in num.items() if c}
        if (g := math.gcd(den, *num.values())) != 1:
            num, den = {k: c // g for k, c in num.items()}, den // g
        self = object.__new__(cls)
        self._num, self._den = num, den
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
        c = Fraction(c)
        return cls._of({(0, 0): c.numerator}, c.denominator)

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
        return {k: Fraction(c, self._den) for k, c in self._num.items()}

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((frozenset(self._num.items()), self._den))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "ExpPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d1, d2 = self._den, other._den
        if d1 == d2:  # a shared denominator: no cross-multiplication
            out, scale, den = dict(self._num), 1, d1
        else:
            out, scale, den = {k: c * d2 for k, c in self._num.items()}, d1, d1 * d2
        get = out.get
        for key, c in other._num.items():
            out[key] = get(key, 0) + c * scale
        return ExpPoly._of(out, den)

    __radd__ = __add__

    def __neg__(self) -> "ExpPoly":
        return ExpPoly._of({k: -c for k, c in self._num.items()}, self._den)

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
        get = out.get
        right = list(other._num.items())
        for (a1, b1), c1 in self._num.items():
            for (a2, b2), c2 in right:
                key = (a1 + a2, b1 + b2)
                out[key] = get(key, 0) + c1 * c2
        return ExpPoly._of(out, self._den * other._den)

    __rmul__ = __mul__

    def inverse(self) -> "ExpPoly":
        """Multiplicative inverse; defined only for unit terms c * exp(b*s)."""
        if len(self._num) != 1:
            raise DomainError(f"not invertible in the ring: {self!r}")
        (a, b), c = next(iter(self._num.items()))
        if a != 0:
            raise DomainError(f"not invertible in the ring: {self!r}")
        return ExpPoly._of({(0, -b): self._den if c > 0 else -self._den}, abs(c))

    # -- calculus ----------------------------------------------------------

    def diff_s(self) -> "ExpPoly":
        """Exact d/ds: c*s^a*e^{bs} -> c*a*s^{a-1}e^{bs} + c*b*s^a*e^{bs}."""
        out: dict = {}
        for (a, b), c in self._num.items():
            if a > 0:
                key = (a - 1, b)
                out[key] = out.get(key, 0) + c * a
            if b != 0:
                out[(a, b)] = out.get((a, b), 0) + c * b
        return ExpPoly._of(out, self._den)

    def integrate_0_to_s(self) -> "ExpPoly":
        """Exact definite integral from 0 to s (vanishes at s = 0).

        Terms with b == 0 integrate to c*s^(a+1)/(a+1).  Terms with b != 0
        integrate by repeated parts,
            int_0^s p^a e^{bp} dp
              = sum_{j=0..a} (-1)^j a!/(a-j)! * s^(a-j) e^{bs} / b^(j+1)
                - (-1)^a a! / b^(a+1),
        the trailing constant being the parts formula evaluated at 0.
        """
        # one common multiple m of every divisor below keeps the numerators integral
        m = math.lcm(*(abs(b) ** (a + 1) if b else a + 1 for a, b in self._num))
        out: dict = {}
        get = out.get
        for (a, b), c in self._num.items():
            if b == 0:
                out[(a + 1, 0)] = get((a + 1, 0), 0) + c * (m // (a + 1))
                continue
            t = c * m // b  # the j = 0 term, times m
            for j in range(a + 1):
                if j:
                    t = -t * (a - j + 1) // b
                out[(a - j, b)] = get((a - j, b), 0) + t
            out[(0, 0)] = get((0, 0), 0) - t
        return ExpPoly._of(out, self._den * m)

    # -- evaluation --------------------------------------------------------

    def at_zero(self) -> Fraction:
        """Exact value at s = 0 (only (a=0, b) keys survive)."""
        return Fraction(sum(c for (a, _b), c in self._num.items() if a == 0), self._den)

    def eval_float(self, s0: float) -> float:
        """Numeric value at a real point; OverflowError propagates."""
        total = 0.0
        for (a, b), c in self._num.items():
            total += c / self._den * s0**a * math.exp(b * s0)
        return total

    # -- rendering ---------------------------------------------------------

    def __repr__(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        parts = []
        for (a, b) in sorted(terms, key=lambda k: (k[1], k[0])):
            c = terms[(a, b)]
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
