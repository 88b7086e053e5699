"""Bit-identity of the CDF kernel against the Fraction reference.

The three term builders below are copied verbatim from the kernel as it was
before any of them built integer numerators; `ref_sum` adds their terms as
Fractions.  The gate evaluates each cell with the kernel and with the
reference, and both must give the same `p` (a `Fraction`), `survival`,
`regime` and `active_terms`.

The cells are the acceptance grid `upper * j / 21`, ten seeded widths per
(kind, N) with denominators near 10^12, and every junction `1/j` (`1 - 1/j`
for pc-nm1) summed through `sp._sum` with both term counts (about 24 of them
at N = 500 and 1000).  A sweep of every width with a denominator up to 30
checks the builders term by term: the p-3 numerators are the reference terms
times b^N, and `_common_den` clears every Fraction term of the circular
kinds.  The pc-3 cells whose C(N, N) term has exponent -1 are checked on
their own.
"""

import hashlib
import math
import random
from fractions import Fraction

import pytest

import scanstat.scanprob as sp
from scanstat.exactnum import DomainError, half_binom
from scanstat.scanprob import ScanKind


# --- the Fraction builders, verbatim -------------------------------------------------------------


def _pc_nm1_terms(N: int, w: Fraction, p_max: int) -> list:
    u = 1 - w
    lead = 1 - N * u
    if lead == 0:
        raise DomainError("degenerate p=0 term: 1 - N(1-w) vanished")
    # the p = 0 term is lead * lead**-1 == 1 identically (its two factors cancel)
    terms = [Fraction(1)]
    for p in range(1, p_max + 1):
        terms.append(math.comb(N, p) * lead * (1 - p * u) ** (N - p - 1) * (1 - (N - p) * u) ** (p - 1))
    return terms


def _last_p(N: int, p_max: int) -> int:
    # every binomial C(N, 3p-N+d), d in {-1, 0, 1}, vanishes once 3p-N-1 > N,
    # so the three-point loops end there however large floor(1/w) is
    return min(p_max, (2 * N + 1) // 3)


def _pc_3_terms(N: int, w: Fraction, p_max: int) -> list:
    terms = [(2 - N * w) ** (N - 1)]
    half = half_binom(N)
    if half:
        terms.append(half * (N * w - 3) * (1 - N * w / 2) ** (N - 2) / 2)
    for p in range(math.ceil(Fraction(N + 1, 2)), _last_p(N, p_max) + 1):
        c = math.comb(N, 3 * p - N)
        if not c:
            continue
        # exponent 2N-3p-1 >= -1 whenever the binomial survives; at -1 the
        # base 1-(N-p)w stays positive for w < 2/N since N-p <= N/3 there
        terms.append((N * w - 3) * c * (1 - p * w) ** (3 * p - N - 1) * (1 - (N - p) * w) ** (2 * N - 3 * p - 1))
    return terms


def _p_lin_3_terms(N: int, w: Fraction, p_max: int) -> list:
    terms = []
    half = half_binom(N)
    if half:
        terms.append(-2 * half * (1 - (N // 2 - 1) * w) ** N / (N + 2))
    for p in range(math.ceil(Fraction(N + 1, 2)), _last_p(N, p_max) + 1):
        for d, cf in ((-1, 1), (0, -2), (1, 1)):
            m = 3 * p - N + d
            c = math.comb(N, m)
            if not c:
                continue
            terms.append(cf * c * (1 - (p - 1) * w) ** m * (1 - (N - p - 1) * w) ** (2 * N - 3 * p - d))
    return terms


REF_TERMS = {ScanKind.PC_NM1: _pc_nm1_terms, ScanKind.PC_3: _pc_3_terms, ScanKind.P_3: _p_lin_3_terms}

# -------------------------------------------------------------------------------------------------


def ref_sum(kind, N, w, count):
    terms = REF_TERMS[kind](N, w, count)
    sign = 1 if kind is ScanKind.PC_NM1 else (-1) ** (N - 1)
    survival = sign * sum(terms, Fraction(0))
    return sp.ProbValue(1 - survival, survival, sp.Regime.BELOW_THRESHOLD, sum(1 for t in terms if t != 0))


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


def _cells(N):
    """(cell, kernel value, reference value) for every gate cell at N."""
    for kind in ScanKind:
        for w in _grid(kind, N) + _random_widths(kind, N):
            yield (kind, N, w), sp._cdf(kind, N, w), ref_sum(kind, N, w, _p_max(kind, w))
        for j in _junction_sample(kind, N):  # the value at the junction with both term counts
            w = _junction(kind, j)
            hi = _p_max(kind, w)
            with_ref, without_ref = ref_sum(kind, N, w, hi), ref_sum(kind, N, w, hi - 1)
            assert with_ref.p == without_ref.p, ("nonzero gap", kind, N, j)
            yield (kind, N, j, hi), sp._sum(kind, N, w, hi), with_ref
            yield (kind, N, j, hi - 1), sp._sum(kind, N, w, hi - 1), without_ref
            yield (kind, N, j, "evaluate"), sp._cdf(kind, N, w), with_ref


def _first_mismatch(N):
    """The first gate cell at N where the kernel and the reference differ in any field, else None."""
    return next((cell for cell, got, ref in _cells(N) if _fields(got) != _fields(ref)), None)


# a three-point cell costs about N^3, so the large N run under `pytest -m slow`
# (about 80 s together); Tier-1 keeps N = 3..60
NS = [*range(3, 61), *(pytest.param(N, marks=pytest.mark.slow) for N in (200, 300, 500, 1000))]


@pytest.mark.parametrize("N", NS)
def test_kernel_bit_identical_to_fraction_reference(N):
    assert _first_mismatch(N) is None


@pytest.mark.parametrize(
    "mutate",
    [lambda nums, b: nums[:-1], lambda nums, b: [t * b for t in nums[:1]] + nums[1:]],
    ids=["drop_last_numerator", "first_numerator_times_b"],
)
def test_gate_catches_a_wrong_p_3_numerator(mutate):
    build = sp._p_lin_3_terms

    def mutated(N, w, p_max):
        return mutate(build(N, w, p_max), w.denominator)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sp, "_p_lin_3_terms", mutated)
        mp.setitem(sp._TERMS, ScanKind.P_3, mutated)  # the table _sum reads the builder from
        assert any(_first_mismatch(N) for N in range(4, 13))


def _digest(p):
    """bench/workloads.py digest: sha256 of the signed big-endian bytes of numerator and denominator."""
    def raw(n):
        return n.to_bytes(n.bit_length() // 8 + 1, "big", signed=True)

    return hashlib.sha256(raw(p.numerator) + b"/" + raw(p.denominator)).hexdigest()[:24]


# taken from the Fraction kernel, at the first seeded width of each (kind, N)
LARGE_N_DIGESTS = {
    (ScanKind.PC_3, 500): "42b7d3a8a77738dec5ae2032",
    (ScanKind.PC_3, 1000): "0bd2cf07b8e9e1fbc145ed61",
    (ScanKind.P_3, 500): "1959f5f18a3639adc751ed2f",
    (ScanKind.P_3, 1000): "0804e1b031d239d38484c801",
}


@pytest.mark.parametrize("kind, N", LARGE_N_DIGESTS, ids=[f"{k.value}-N{N}" for k, N in LARGE_N_DIGESTS])
def test_large_n_value_is_pinned(kind, N):
    w = _random_widths(kind, N, count=1)[0]
    assert _digest(sp._cdf(kind, N, w).p) == LARGE_N_DIGESTS[kind, N]


@pytest.mark.parametrize("N", range(3, 21))
def test_common_den_clears_every_term(N):
    """Every width a/b with b <= 30 below the threshold, at its own term count and one less."""
    for kind in ScanKind:
        thr = sp.threshold(kind, N)
        for w in {Fraction(a, b) for b in range(1, 31) for a in range(1, b + 1) if Fraction(a, b) < thr}:
            den = sp._common_den(kind, N, w)
            hi = _p_max(kind, w)
            for count in (hi, hi - 1):
                if kind is ScanKind.P_3:
                    assert den == w.denominator**N, (N, w)
                    expected = [t * den for t in _p_lin_3_terms(N, w, count)]
                    assert sp._p_lin_3_terms(N, w, count) == expected, (N, w, count)
                    continue
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
        assert _fields(sp.pc_3(N, w)) == _fields(ref_sum(ScanKind.PC_3, N, w, math.floor(1 / w))), (N, w)


def test_finish_raises_when_den_misses_a_term():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sp, "_common_den", lambda kind, N, w: 2 * 7**3)  # b^(N-2) in place of b^(N-1)
        with pytest.raises(ArithmeticError):
            sp._sum(ScanKind.PC_3, 5, Fraction(1, 7), 7)
