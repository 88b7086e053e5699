"""Bit-identity of the integer-denominator CDF sum against the Fraction reference.

`ref_finish` below is the term-by-term Fraction sum that `scanprob._finish`
replaced.  The gate spies on `_finish`: each sum an evaluator or
`floor_boundary_gap` makes is redone by the reference on the same terms, and
both must give the same `p`, `survival`, `regime` and `active_terms`, with `p`
a `Fraction`.  The term builders are shared, so the gate tests the sum over
`_common_den` and nothing else.  The spy also asserts that `_common_den` is a
multiple of every term's denominator.

The cells are the acceptance grid `upper * j / 21`, every junction `1/j`
(`1 - 1/j` for pc-nm1) summed with both term counts (about 24 of them at
N = 500 and 1000), and ten seeded widths per (kind, N) with denominators near
10^12.  A sweep of every width with a denominator up to 30 and the pc-3 cells
whose C(N, N) term has exponent -1 test the divisibility on their own.
"""

import math
import random
from fractions import Fraction

import pytest

import scanstat.scanprob as sp
from scanstat.scanprob import ScanKind


def ref_finish(terms, sign):
    survival = sign * sum(terms, Fraction(0))
    return sp.ProbValue(1 - survival, survival, sp.Regime.BELOW_THRESHOLD, sum(1 for t in terms if t != 0))


def _spied(fn, *args):
    """fn(*args), and an (integer sum, Fraction reference) pair for each _finish call it made.

    Each call also asserts that den is a multiple of every term's denominator.
    """
    pairs = []
    finish = sp._finish

    def spy(terms, sign, den):
        assert all(den % t.denominator == 0 for t in terms), (den, terms)
        got = finish(terms, sign, den)
        pairs.append((got, ref_finish(terms, sign)))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sp, "_finish", spy)
        return fn(*args), pairs


def _fields(v):
    return type(v.p), v.p, v.survival, v.regime, v.active_terms


def _p_max(kind, w):
    """The term count each evaluator passes to its builder."""
    if kind is ScanKind.PC_NM1:
        return math.floor(1 / (1 - w))
    return math.floor(1 / w) + (kind is ScanKind.P_3)


def _junction(kind, j):
    return 1 - Fraction(1, j) if kind is ScanKind.PC_NM1 else Fraction(1, j)


def _junctions(kind, N):
    """Every j whose junction lies inside the unsaturated range and changes the term set.

    Past j = (2N+1)//3 + 2 the three-point term sets no longer change, and the
    pc-nm1 junctions 1 - 1/j end below j = N/2.
    """
    thr = sp.threshold(kind, N)
    top = N // 2 + 1 if kind is ScanKind.PC_NM1 else (2 * N + 1) // 3 + 3
    return [j for j in range(2, top) if 0 < _junction(kind, j) < thr]


def _junction_sample(kind, N):
    """Every junction up to N = 300; beyond, about 24 spread over them, the last included.

    A three-point junction costs about N^3 and there are about N/6 of them.
    """
    js = _junctions(kind, N)
    if N <= 300:
        return js
    return sorted(set(js[:: max(1, len(js) // 24)] + js[-1:]))


def _grid(kind, N):
    upper = min(sp.threshold(kind, N), Fraction(1))
    return [upper * Fraction(j, 21) for j in range(1, 21)]


def _random_widths(kind, N, count=10):
    rng = random.Random(f"{kind.value}:{N}")
    upper = min(sp.threshold(kind, N), Fraction(1))
    widths = []
    for _ in range(count):
        den = rng.randrange(10**12 - 10**9, 10**12)
        widths.append(Fraction(rng.randrange(1, math.floor(upper * den)), den))
    return widths


# a three-point cell costs about N^3, so the large N run under `pytest -m slow`
# (about 40 s together); Tier-1 keeps N = 3..60
NS = [*range(3, 61), *(pytest.param(N, marks=pytest.mark.slow) for N in (200, 300, 500, 1000))]


def _assert_pairs(pairs, cell):
    for got, ref in pairs:
        assert type(got.p) is Fraction, cell
        assert _fields(got) == _fields(ref), cell


@pytest.mark.parametrize("N", NS)
def test_kernel_bit_identical_to_fraction_reference(N):
    for kind in ScanKind:
        fn = sp._EVALUATORS[kind]
        for w in _grid(kind, N) + _random_widths(kind, N):
            value, pairs = _spied(fn, N, w)
            assert len(pairs) == 1 and value is pairs[0][0]
            _assert_pairs(pairs, (kind, N, w))
        for j in _junction_sample(kind, N):  # the value at w = 1/j with both term counts
            gap, pairs = _spied(sp.floor_boundary_gap, kind, N, j)
            _assert_pairs(pairs, (kind, N, j))
            (_, with_ref), (_, without_ref) = pairs
            assert gap == with_ref.p - without_ref.p == 0, (kind, N, j)
            assert _fields(fn(N, _junction(kind, j))) == _fields(with_ref), (kind, N, j)


@pytest.mark.parametrize("N", range(3, 21))
def test_common_den_clears_every_term(N):
    """Every width a/b with b <= 30 below the threshold, at its own term count and one less."""
    for kind in ScanKind:
        thr = sp.threshold(kind, N)
        for w in {Fraction(a, b) for b in range(1, 31) for a in range(1, b + 1) if Fraction(a, b) < thr}:
            den = sp._common_den(kind, N, w)
            hi = _p_max(kind, w)
            for count in (hi, hi - 1):
                for t in sp._TERMS[kind](N, w, count):
                    assert den % t.denominator == 0, (kind, N, w, count, t)


@pytest.mark.parametrize("N", [6, 9, 12, 30])
def test_pc_3_exponent_minus_one_cells(N):
    """At w <= 3/(2N) the C(N, N) term, p = 2N/3, has exponent -1; it is -3 (1 - pw)^(N-1) over b^(N-1)."""
    p = 2 * N // 3
    for w in (Fraction(3, 2 * N), Fraction(1, 2 * N), Fraction(3, 2 * N) - Fraction(1, 10**12 - 39)):
        terms = sp._pc_3_terms(N, w, math.floor(1 / w))
        trap = -3 * (1 - p * w) ** (N - 1)
        assert trap in terms, (N, w)
        den = sp._common_den(ScanKind.PC_3, N, w)
        assert all(den % t.denominator == 0 for t in terms), (N, w)
        _assert_pairs(_spied(sp.pc_3, N, w)[1], (N, w))


def test_finish_raises_when_den_misses_a_term():
    terms = sp._pc_3_terms(5, Fraction(1, 7), 7)
    with pytest.raises(ArithmeticError):
        sp._finish(terms, 1, 2 * 7**3)  # b^(N-2) in place of b^(N-1)
