"""Exact CDFs of the three scan-statistic families.

For N points uniform on the unit interval or circle, W(k) / W_c(k) is the
smallest window containing k of them, and the CDFs evaluated here are

  pc_nm1:  P(W_c(N-1) <= w)   saturates to 1 at w >= 1 - 2/N
  pc_3:    P(W_c(3)   <= w)   saturates to 1 at w >= 2/N
  p_lin_3: P(W(3)     <= w)   saturates to 1 at w >= 2/(N-2)

All three take one path, evaluate, indexed by the piece variable g = 1 - w
(pc-nm1) or g = w (pc-3, p-3).  Below the saturation threshold the survival
probability is a signed binomial sum of floor(1/g) terms (one more for p-3);
the pieces meet at g = 1/j, and the measure pathway evaluates at x = 2/g - v.

Binomials are math.comb and powers **.  Below the threshold every
binomial C(N, m) a loop reaches has an integer m >= 1: m = p <= floor(1/g) <
N/2 in pc-nm1, and m = 3p-N+d >= (N+1)/2 in the three-point loops, which start
at p = ceil((N+1)/2); C(N, m) is 0 for m > N and that term is skipped.
No zero base meets a negative exponent, and 0**0 == 1.  Inputs outside this
domain raise rather than silently giving 0.

With w = a/b each base 1 - k w is (b - k a)/b and a term's exponents sum to
N-1 (circular) or N (linear), so every term is an integer over b^(N-1)
(pc-nm1), 2 b^(N-1) (pc-3, whose N/2 term halves) or b^N (p-3), and _finish
sums integer numerators.  p-3 builds its numerators over b^N without a
Fraction: the half term's 2 C(N, N/2)/(N+2) is the Catalan number
C(N, N/2)/(N/2+1), the up to three terms of each p share one power pair of
b - (p-1)a and b - (N-p-1)a (as measures._block does), and the loop steps
C(N, m) to C(N, m+1).  pc-nm1 and pc-3 build Fraction terms, which _cleared
puts over their denominator; a term it does not clear raises ArithmeticError.
The one exponent -1 that survives the binomial gate cancels: against
1 - N(1-w) in pc-nm1, and at C(N, N) in pc-3, where (Nw-3)/(1-Nw/3) = -3.
Every value is an exact rational; float(p) is correctly rounded.

Constructing a ScanQuery is the one check on (N, w); every entry point builds
one, and evaluate trusts the query it is given.  A second, independent pathway
to the same numbers normalizes the closed-form measures by the free simplex
volume (measure_to_probability).  At N = 3 each CDF is also a classical result
(anchor_n3): the sample range for p-3, the minimum circular spacing for pc-nm1
and Stevens' arc containment for pc-3 (Glaz, Naus & Wallenstein, Scan
Statistics, 2001).  cross_check_report compares the kernel with both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .exactnum import DomainError, format_rational, half_binom
from .measures import a_closed, b_closed, c_closed
from .report import Report


class ScanKind(Enum):
    PC_NM1 = "pc-nm1"
    PC_3 = "pc-3"
    P_3 = "p-3"


class Regime(Enum):
    BELOW_THRESHOLD = "below_threshold"
    SATURATED = "saturated"


def _check_N(N: int) -> None:
    if not isinstance(N, int):
        raise DomainError(f"N must be an int, got {N!r}")
    if N < 3:
        raise DomainError(f"N must be >= 3, got {N}")


@dataclass(frozen=True)
class ScanQuery:
    """One CDF input; constructing it is the one domain check on (N, w), and it holds w exactly."""

    kind: ScanKind
    N: int
    w: Fraction

    def __post_init__(self):
        _check_N(self.N)
        if isinstance(self.w, float):  # 0.1 would be taken at its binary value, not as 1/10
            raise DomainError(f"w must be an exact rational, got {self.w}")
        try:
            w = Fraction(self.w)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            raise DomainError(f"w must be an exact rational, got {self.w!r}") from None
        if not 0 <= w <= 1:
            raise DomainError(f"w must lie in [0, 1], got {w}")
        object.__setattr__(self, "w", w)


@dataclass
class ProbValue:
    p: Fraction
    survival: Fraction
    regime: Regime
    active_terms: int


def threshold(kind: ScanKind, N: int) -> Fraction:
    """Width at and beyond which the CDF is identically 1."""
    _check_N(N)
    if kind is ScanKind.PC_NM1:
        return 1 - Fraction(2, N)
    if kind is ScanKind.PC_3:
        return Fraction(2, N)
    return Fraction(2, N - 2)


def _common_den(kind: ScanKind, N: int, w: Fraction) -> int:
    """b^(N-1) for pc-nm1, 2 b^(N-1) for pc-3, b^N for p-3, with w = a/b in lowest terms."""
    b = w.denominator
    return {ScanKind.PC_NM1: 1, ScanKind.PC_3: 2, ScanKind.P_3: b}[kind] * b ** (N - 1)


def _cleared(terms: list, den: int) -> list[int]:
    """Fraction terms as int numerators over den, which clears each one (module docstring); else raise."""
    nums = []
    for t in terms:
        q, r = divmod(den, t.denominator)
        if r:
            raise ArithmeticError(f"term denominator {t.denominator} does not divide {den}")
        nums.append(t.numerator * q)
    return nums


def _finish(nums: list[int], sign: int, den: int) -> ProbValue:
    """The signed sum of int numerators over den; active_terms counts the nonzero ones."""
    survival = Fraction(sign * sum(nums), den)
    return ProbValue(1 - survival, survival, Regime.BELOW_THRESHOLD, sum(1 for t in nums if t))


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


def _p_lin_3_terms(N: int, w: Fraction, p_max: int) -> list[int]:
    """The terms as int numerators over _common_den = b^N, with w = a/b."""
    a, b = w.numerator, w.denominator
    nums = []
    half = half_binom(N)
    if half:
        # 2 C(N, N/2) / (N+2) is the Catalan number C(N, N/2) / (N/2 + 1)
        nums.append(-(half // (N // 2 + 1)) * (b - (N // 2 - 1) * a) ** N)
    # the terms d = -1, 0, 1 of p are cf C(N, m) x^m y^(N-m), m = 3p-N+d >= 1, so m runs through
    # consecutive ints and C(N, m) is stepped, not recomputed.  C(N, m) vanishes past m = N: d = 1
    # drops where 2N-3p = 0 and d = 0, 1 where 2N-3p = -1 (N = 4, p = 3), so y's exponent stays >= 0
    p_lo = (N + 2) // 2
    c = math.comb(N, 3 * p_lo - N - 1)
    for p in range(p_lo, _last_p(N, p_max) + 1):
        x, y = b - (p - 1) * a, b - (N - p - 1) * a
        m_lo, m_hi = 3 * p - N - 1, min(3 * p - N + 1, N)
        core = x**m_lo * y ** (N - m_hi)  # the one power pair the terms of p share
        for cf, m in zip((1, -2, 1), range(m_lo, m_hi + 1)):
            nums.append(core * (cf * c * x ** (m - m_lo) * y ** (m_hi - m)))
            c = c * (N - m) // (m + 1)
    return nums


_TERMS = {ScanKind.PC_NM1: _pc_nm1_terms, ScanKind.PC_3: _pc_3_terms, ScanKind.P_3: _p_lin_3_terms}


def _piece(kind: ScanKind, t: Fraction) -> Fraction:
    """The piece variable g = 1 - w for pc-nm1 and g = w otherwise; being its own inverse, it also maps g to w."""
    return 1 - t if kind is ScanKind.PC_NM1 else t


def _term_count(kind: ScanKind, g: Fraction) -> int:
    """floor(1/g) terms, one more for p-3."""
    return math.floor(1 / g) + (kind is ScanKind.P_3)


def _sum(kind: ScanKind, N: int, w: Fraction, count: int) -> ProbValue:
    sign = 1 if kind is ScanKind.PC_NM1 else (-1) ** (N - 1)
    den = _common_den(kind, N, w)
    nums = _TERMS[kind](N, w, count)
    if kind is not ScanKind.P_3:  # the circular builders still return Fraction terms
        nums = _cleared(nums, den)
    return _finish(nums, sign, den)


def evaluate(query: ScanQuery) -> ProbValue:
    """The one evaluation path: saturate, answer w = 0 for the three-point kinds, else sum."""
    kind, N, w = query.kind, query.N, query.w
    if w >= threshold(kind, N):
        return ProbValue(Fraction(1), Fraction(0), Regime.SATURATED, 0)
    g = _piece(kind, w)
    if g == 0:  # w = 0, where no window holds three points; pc-nm1 has g = 1 there and sums
        return ProbValue(Fraction(0), Fraction(1), Regime.BELOW_THRESHOLD, 0)
    return _sum(kind, N, w, _term_count(kind, g))


def _cdf(kind: ScanKind, N: int, w) -> ProbValue:
    return evaluate(ScanQuery(kind, N, w))


def pc_nm1(N: int, w) -> ProbValue:
    """P(W_c(N-1) <= w): the circular near-complete window CDF."""
    return _cdf(ScanKind.PC_NM1, N, w)


def pc_3(N: int, w) -> ProbValue:
    """P(W_c(3) <= w): the circular three-point window CDF."""
    return _cdf(ScanKind.PC_3, N, w)


def p_lin_3(N: int, w) -> ProbValue:
    """P(W(3) <= w): the linear three-point window CDF."""
    return _cdf(ScanKind.P_3, N, w)


# ---------------------------------------------------------------------------
# Second pathway: normalized measures
# ---------------------------------------------------------------------------

_CLOSED = {ScanKind.PC_NM1: a_closed, ScanKind.PC_3: b_closed, ScanKind.P_3: c_closed}


def measure_to_probability(kind: ScanKind, N: int, w) -> ProbValue:
    """The same CDFs through the measure normalization pathway.

    The survival probability is the constrained spacing measure a_N, b_N or
    c_N (pc-nm1, pc-3, p-3) divided by the free simplex density
    (x+v)^(v-1)/(v-1)! of v spacings (N on the circle, N+1 on the line), at
    x = 2/g - v for the piece variable g (1 - w for pc-nm1, w otherwise).
    With g = a/b, x + v = 2b/a, so the survival is the one Fraction
    closed * (v-1)! * a^(v-1) / (2b)^(v-1).
    Requires w strictly inside the non-saturated regime.
    """
    w = ScanQuery(kind, N, w).w
    if not 0 < w < threshold(kind, N):
        raise DomainError(f"w={w} is not strictly inside the valid regime for {kind.value}")
    v = N + (kind is ScanKind.P_3)
    g = _piece(kind, w)
    a, b = g.numerator, g.denominator
    closed = _CLOSED[kind](N, Fraction(2 * b - v * a, a))
    survival = Fraction(closed.numerator * math.factorial(v - 1) * a ** (v - 1),
                        closed.denominator * (2 * b) ** (v - 1))
    return ProbValue(1 - survival, survival, Regime.BELOW_THRESHOLD, 1)


# ---------------------------------------------------------------------------
# Classical N = 3 anchors (independent oracles)
# ---------------------------------------------------------------------------


def anchor_n3(kind: ScanKind, w) -> Fraction:
    """P at N = 3 from a classical closed form, exact on all of [0, 1].

    p-3 is the sample range of three points, 3w^2 - 2w^3; pc-nm1 is the
    minimum circular spacing, 1 - (1-3w)_+^2; pc-3 is Stevens' arc
    containment, 3w^2 - 3(2w-1)_+^2 + (3w-2)_+^2.
    """
    w = ScanQuery(kind, 3, w).w
    if kind is ScanKind.P_3:
        return 3 * w**2 - 2 * w**3
    if kind is ScanKind.PC_NM1:
        return 1 - max(1 - 3 * w, 0) ** 2
    return 3 * w**2 - 3 * max(2 * w - 1, 0) ** 2 + max(3 * w - 2, 0) ** 2


# ---------------------------------------------------------------------------
# Tabulation
# ---------------------------------------------------------------------------

def tabulate(kind: ScanKind, N_list, w_grid) -> list[dict]:
    """Rows of (kind, N, w, p_exact, p_float, regime, active_terms).

    p_float is float(p_exact), correctly rounded.  A DomainError on any cell
    propagates, so no row is written for a bad input.
    """
    rows = []
    for N in N_list:
        for w in w_grid:
            value = _cdf(kind, N, w)
            rows.append(
                {
                    "kind": kind.value,
                    "N": N,
                    "w": format_rational(w),
                    "p_exact": format_rational(value.p),
                    "p_float": float(value.p),
                    "regime": value.regime.value,
                    "active_terms": value.active_terms,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Piece-boundary continuity at floor(1/g) jumps
# ---------------------------------------------------------------------------

def floor_boundary_gap(kind: ScanKind, N: int, j: int) -> Fraction:
    """Exact difference between the two piece polynomials at their junction.

    The active piece index floor(1/g) jumps at the piece variable g = 1/j
    (w = 1/j, or w = 1 - 1/j for the near-complete window); continuity means
    evaluating with either term count at the junction gives the same
    probability.  No junction lies below j = 2.
    """
    if j < 2:
        raise DomainError(f"junction index j must be >= 2, got {j}")
    g = Fraction(1, j)
    w = ScanQuery(kind, N, _piece(kind, g)).w
    if not 0 < w < threshold(kind, N):
        raise DomainError(f"junction w={w} outside the valid regime")
    hi = _term_count(kind, g)
    return _sum(kind, N, w, hi).p - _sum(kind, N, w, hi - 1).p


# piece-junction continuity is checked up to this N; the report names the cap
_JUNCTION_N_MAX = 10


def cross_check_report(n_max: int, grid: int) -> Report:
    """The report of `scanstat cross-check`, on the steps j/(grid+1), j = 1..grid.

    pc-nm1 = pc-3 at N = 4 on the half-steps; the kernel meets the N = 3 anchors
    on the steps and the measure pathway on min(threshold, 1) times the steps for
    N <= n_max; each junction 0 < w_j < threshold is continuous up to _JUNCTION_N_MAX."""
    if n_max < 3 or grid < 1:
        raise DomainError(f"--n-max must be >= 3 and --grid >= 1, got {n_max} and {grid}")
    report = Report("cross-check")
    steps = [Fraction(j, grid + 1) for j in range(1, grid + 1)]
    overlap_ok = all(pc_nm1(4, s / 2).p == pc_3(4, s / 2).p for s in steps)
    report.add("overlap_pc_nm1_equals_pc_3_at_N4", overlap_ok, {"points": len(steps)})
    anchor_miss = next(((kind.value, str(s)) for kind in ScanKind for s in steps
                        if _cdf(kind, 3, s).p != anchor_n3(kind, s)), None)
    report.add("classical_anchors_at_N3", anchor_miss is None, {"points": len(steps)},
               "" if anchor_miss is None else f"discrepancy {anchor_miss}")
    for kind in ScanKind:
        cells = ((N, upper * s) for N in range(3, n_max + 1) for upper in [min(threshold(kind, N), 1)] for s in steps)
        pairs = ((N, w, _cdf(kind, N, w).p, measure_to_probability(kind, N, w).p) for N, w in cells)
        mismatch = next(((N, str(w), str(direct), str(via)) for N, w, direct, via in pairs if direct != via), None)
        report.add(f"pathway_equivalence_{kind.value}", mismatch is None, {"n_max": n_max},
                   "exact agreement" if mismatch is None else f"discrepancy {mismatch}")
    junction_n_max = min(n_max, _JUNCTION_N_MAX)
    junctions = ((kind, N, j) for kind in ScanKind for N in range(3, junction_n_max + 1) for j in range(2, 2 * N)
                 if 0 < _piece(kind, Fraction(1, j)) < threshold(kind, N))
    gap_at = next(((kind.value, N, j) for kind, N, j in junctions if floor_boundary_gap(kind, N, j)), None)
    report.add("piece_boundary_continuity", gap_at is None, {"n_max": n_max, "junction_n_max": junction_n_max},
               "" if gap_at is None else f"nonzero gap at {gap_at}")
    return report
