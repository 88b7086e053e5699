"""Bit-identity of the integer-numerator closed measures against Fraction references.

The reference functions below are the term-by-term Fraction evaluations the
integer forms in `scanstat.measures` replaced.  Both must return the same
reduced Fraction at every point: the half-integer grid covers every piece
boundary, and the random points carry numerators and denominators up to about
10^9.  The references keep their `_h0` switch: with `_h0` = 0 they give the
left-hand limit, which `measures.left_limit` must match at every piece boundary.
"""

import math
import random
from fractions import Fraction

import pytest

import scanstat.measures as ms
import scanstat.scanprob as sp
from scanstat.measures import MeasureKind


def binom_ext(n, m):
    """C(n, m) as a Fraction, extended by 0 for m < 0, m > n or a non-integer m."""
    m = Fraction(m)
    if m.denominator != 1 or not 0 <= m <= n:
        return Fraction(0)
    return Fraction(math.comb(n, int(m)))


def _heaviside(arg, h0):
    return arg > 0 or (arg == 0 and h0 == 1)


def ref_a_closed(n, x, _h0=1):
    x = Fraction(x)
    fact = math.factorial(n - 1)
    total = Fraction(0)
    start = 1 if n % 2 else 2
    for i in range(start, n + 1, 2):
        if not _heaviside(x + i, _h0):
            continue
        term = Fraction(0)
        m1 = (n - i) // 2
        c1 = binom_ext(n - 1, m1)
        if c1:
            term += c1 * (x - i) ** m1 * (x + i) ** ((n + i - 2) // 2)
        c2 = binom_ext(n - 1, m1 - 1)
        if c2:
            term -= c2 * (x - i) ** (m1 - 1) * (x + i) ** ((n + i) // 2)
        total += term / i
    total = total * n / fact
    if _heaviside(x, _h0):
        total -= Fraction(2 ** (n - 1)) * x ** (n - 1) / fact
        total += binom_ext(n, Fraction(n, 2)) * x ** (n - 2) * (x - n) / (2 * fact)
    return total


def ref_b_closed(n, x, _h0=1):
    x = Fraction(x)
    fact = math.factorial(n - 1)
    sign = -1 if n % 2 else 1
    total = Fraction(0)
    start = 1 if n % 2 else 2
    for i in range(start, n // 3 + 1, 2):
        if not _heaviside(x - i, _h0):
            continue
        term = Fraction(0)
        m1 = (n - 3 * i) // 2
        c1 = binom_ext(n - 1, m1)
        if c1:
            term += c1 * (x + i) ** m1 * (x - i) ** ((n + 3 * i - 2) // 2)
        c2 = binom_ext(n - 1, m1 - 1)
        if c2:
            term -= c2 * (x + i) ** (m1 - 1) * (x - i) ** ((n + 3 * i) // 2)
        total += term / i
    total = total * n * sign / fact
    if _heaviside(x, _h0):
        total += Fraction(-sign * 2 ** (n - 1)) * x ** (n - 1) / fact
        total += binom_ext(n, Fraction(n, 2)) * x ** (n - 2) * (3 * x + n) / (2 * fact)
    return total


def ref_c_closed(n, x, _h0=1):
    x = Fraction(x)
    fact = math.factorial(n)
    sign = 1 if n % 2 else -1
    total = Fraction(0)
    start = 1 if n % 2 else 0
    for i in range(start, (n + 2) // 3 + 1, 2):
        if not _heaviside(x + 3 - i, _h0):
            continue
        term = Fraction(0)
        for d, cf in ((1, 1), (0, -2), (-1, 1)):
            m = (n - 3 * i) // 2 + d
            c = binom_ext(n, m)
            if c:
                term += cf * c * (x + 3 + i) ** m * (x + 3 - i) ** (n - m)
        total += term
    total = total * sign / fact
    if _heaviside(x + 3, _h0):
        total += Fraction(2 * sign, n + 2) * binom_ext(n, Fraction(n, 2)) * (x + 3) ** n / fact
    return total


PAIRS = [
    (MeasureKind.A_CYCLIC, ms.a_closed, ref_a_closed),
    (MeasureKind.B_CYCLIC_GE, ms.b_closed, ref_b_closed),
    (MeasureKind.C_LINEAR_GE, ms.c_closed, ref_c_closed),
]
# the Fraction reference costs about n^4 per n: n = 31..59, 100 and 201 take 20 to 50 s on a
# 2-CPU host, so they run with `pytest -m slow`, and Tier-1 keeps n = 2..30 and 60
NS = [n if n <= 30 or n == 60 else pytest.param(n, marks=pytest.mark.slow) for n in [*range(2, 61), 100, 201]]


def _points(n, rng, count=8):
    """Every half-integer in [-2n-2, 2n+4), then random points with ~10^9 denominators."""
    xs = [Fraction(k, 2) for k in range(-4 * n - 4, 4 * n + 8)]
    for _ in range(count):
        den = rng.randrange(1, 10**9)
        xs.append(Fraction(rng.randrange((-2 * n - 2) * den, (2 * n + 4) * den), den))
    return xs


@pytest.mark.parametrize("n", NS)
def test_closed_forms_bit_identical_to_fraction_reference(n):
    rng = random.Random(n)
    cells = 0
    for x in _points(n, rng):
        for _, fast, ref in PAIRS:
            got = fast(n, x)
            assert type(got) is Fraction
            assert got == ref(n, x), (fast.__name__, n, x)
            cells += 1
    assert cells == 3 * (8 * n + 12 + 8)


@pytest.mark.parametrize("n", NS)
def test_left_limit_equals_the_reference_left_body(n):
    """left_limit equals the `_h0` = 0 reference at every piece boundary.

    Every Heaviside argument is x plus an integer, and each is zero only at a
    piece boundary, so anywhere else `_h0` changes nothing.
    """
    cells = 0
    for kind, _, ref in PAIRS:
        for b in ms.piece_boundaries(kind, n):
            got = ms.left_limit(kind, n, b)
            assert type(got) is Fraction
            assert got == ref(n, b, 0), (kind.value, n, b)
            cells += 1
    assert cells == (n + 1) + (n // 3 + 1) + ((n + 2) // 3 + 1)


@pytest.mark.parametrize("N", [60, 120, 200])
def test_pathway_equivalence_at_scale(N):
    """measure_to_probability equals the direct kernel on the 20-point acceptance grid."""
    for kind in sp.ScanKind:
        thr = sp.threshold(kind, N)
        upper = min(thr, Fraction(1))
        for j in range(1, 21):
            w = upper * Fraction(j, 21)
            if 0 < w < thr:
                assert sp.measure_to_probability(kind, N, w).p == sp.evaluate(sp.ScanQuery(kind, N, w)).p, (kind, N, w)
