"""Exact CDFs of the three scan-statistic families.

For N points uniform on the unit interval or circle, W(k) / W_c(k) is the
smallest window containing k of them, and the CDFs evaluated here are

  pc_nm1:  P(W_c(N-1) <= w)   saturates to 1 at w >= 1 - 2/N
  pc_3:    P(W_c(3)   <= w)   saturates to 1 at w >= 2/N
  p_lin_3: P(W(3)     <= w)   saturates to 1 at w >= 2/(N-2)

All three take one path, _cdf, indexed by the piece variable g = 1 - w
(pc-nm1) or g = w (pc-3, p-3).  Below the saturation threshold the survival
probability is a signed binomial sum of floor(1/g) terms (one more for p-3);
the pieces meet at g = 1/j, and the measure pathway evaluates at x = 2/g - v.

Binomials and powers are plain math.comb and **.  Below the threshold every
binomial C(N, m) a loop reaches has an integer m >= 1: m = p <= floor(1/g) <
N/2 in pc-nm1, and m = 3p-N+d >= (N+1)/2 in the three-point loops, which start
at p = ceil((N+1)/2); math.comb gives 0 for m > N and that term is skipped.
No zero base meets a negative exponent, and Fraction(0)**0 == 1.  Inputs
outside this domain raise rather than silently giving 0.

With w = a/b each base 1 - k w is (b - k a)/b and a term's exponents sum to
N-1 (circular) or N (linear), so _finish sums integers over b^(N-1)
(pc-nm1), 2 b^(N-1) (pc-3, whose N/2 term halves) or (N+2) b^N (p-3).  The
one exponent -1 that survives the binomial gate cancels: against 1 - N(1-w)
in pc-nm1, and at C(N, N) in pc-3, where (Nw-3)/(1-Nw/3) = -3.
Every value is an exact rational; float(p) is correctly rounded.

A second, independent pathway to the same numbers normalizes the closed-form
measures by the free simplex volume (measure_to_probability); classical
small-case CDFs (sample range, arc containment, minimum spacings) serve as
external baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .exactnum import DomainError, format_rational, half_binom
from .measures import a_closed, b_closed, c_closed


class ScanKind(Enum):
    PC_NM1 = "pc-nm1"
    PC_3 = "pc-3"
    P_3 = "p-3"


class Regime(Enum):
    BELOW_THRESHOLD = "below_threshold"
    SATURATED = "saturated"


@dataclass(frozen=True)
class ScanQuery:
    kind: ScanKind
    N: int
    w: Fraction

    def __post_init__(self):
        object.__setattr__(self, "w", _validate(self.N, self.w))


@dataclass
class ProbValue:
    p: Fraction
    survival: Fraction
    regime: Regime
    active_terms: int


def threshold(kind: ScanKind, N: int) -> Fraction:
    """Width at and beyond which the CDF is identically 1."""
    if kind is ScanKind.PC_NM1:
        return 1 - Fraction(2, N)
    if kind is ScanKind.PC_3:
        return Fraction(2, N)
    return Fraction(2, N - 2)


def _validate(N: int, w, n_min: int = 3) -> Fraction:
    """The one domain check on (N, w): N >= n_min and 0 <= w <= 1; returns w exactly."""
    if N < n_min:
        raise DomainError(f"N must be >= {n_min}, got {N}")
    w = Fraction(w)
    if not 0 <= w <= 1:
        raise DomainError(f"w must lie in [0, 1], got {w}")
    return w


def _common_den(kind: ScanKind, N: int, w: Fraction) -> int:
    """b^(N-1) for pc-nm1, 2 b^(N-1) for pc-3, (N+2) b^N for p-3, with w = a/b in lowest terms."""
    b = w.denominator
    return {ScanKind.PC_NM1: 1, ScanKind.PC_3: 2, ScanKind.P_3: (N + 2) * b}[kind] * b ** (N - 1)


def _finish(terms: list, sign: int, den: int) -> ProbValue:
    """Sum the terms as ints over den, which clears each one (module docstring); else raise."""
    total = 0
    for t in terms:
        q, r = divmod(den, t.denominator)
        if r:
            raise ArithmeticError(f"term denominator {t.denominator} does not divide {den}")
        total += t.numerator * q
    survival = Fraction(sign * total, den)
    return ProbValue(1 - survival, survival, Regime.BELOW_THRESHOLD, sum(1 for t in terms if t != 0))


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


_TERMS = {ScanKind.PC_NM1: _pc_nm1_terms, ScanKind.PC_3: _pc_3_terms, ScanKind.P_3: _p_lin_3_terms}


def _piece(kind: ScanKind, t: Fraction) -> Fraction:
    """The piece variable g = 1 - w for pc-nm1 and g = w otherwise; being its own inverse, it also maps g to w."""
    return 1 - t if kind is ScanKind.PC_NM1 else t


def _term_count(kind: ScanKind, g: Fraction) -> int:
    """floor(1/g) terms, one more for p-3."""
    return math.floor(1 / g) + (kind is ScanKind.P_3)


def _sum(kind: ScanKind, N: int, w: Fraction, count: int) -> ProbValue:
    sign = 1 if kind is ScanKind.PC_NM1 else (-1) ** (N - 1)
    return _finish(_TERMS[kind](N, w, count), sign, _common_den(kind, N, w))


def _cdf(kind: ScanKind, N: int, w) -> ProbValue:
    """The one evaluation path: validate, saturate, answer w = 0 for the three-point kinds, else sum."""
    w = _validate(N, w)
    if w >= threshold(kind, N):
        return ProbValue(Fraction(1), Fraction(0), Regime.SATURATED, 0)
    g = _piece(kind, w)
    if g == 0:  # w = 0, where no window holds three points; pc-nm1 has g = 1 there and sums
        return ProbValue(Fraction(0), Fraction(1), Regime.BELOW_THRESHOLD, 0)
    return _sum(kind, N, w, _term_count(kind, g))


def pc_nm1(N: int, w) -> ProbValue:
    """P(W_c(N-1) <= w): the circular near-complete window CDF."""
    return _cdf(ScanKind.PC_NM1, N, w)


def pc_3(N: int, w) -> ProbValue:
    """P(W_c(3) <= w): the circular three-point window CDF."""
    return _cdf(ScanKind.PC_3, N, w)


def p_lin_3(N: int, w) -> ProbValue:
    """P(W(3) <= w): the linear three-point window CDF."""
    return _cdf(ScanKind.P_3, N, w)


def evaluate(query: ScanQuery) -> ProbValue:
    return _cdf(query.kind, query.N, query.w)


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
    Requires w strictly inside the non-saturated regime.
    """
    w = _validate(N, w)
    if not 0 < w < threshold(kind, N):
        raise DomainError(f"w={w} is not strictly inside the valid regime for {kind.value}")
    v = N + (kind is ScanKind.P_3)
    x = 2 / _piece(kind, w) - v
    survival = _CLOSED[kind](N, x) * math.factorial(v - 1) / (x + v) ** (v - 1)
    return ProbValue(1 - survival, survival, Regime.BELOW_THRESHOLD, 1)


# ---------------------------------------------------------------------------
# Classical baseline CDFs (independent oracles)
# ---------------------------------------------------------------------------


def range_linear_cdf(N: int, w) -> Fraction:
    """P(sample range <= w) = N w^(N-1) - (N-1) w^N."""
    w = _validate(N, w, n_min=2)
    return N * w ** (N - 1) - (N - 1) * w**N


def arc_containment_cdf(N: int, w) -> Fraction:
    """P(all N points fit in some arc of length w).

    Full inclusion-exclusion over uncovered gaps; collapses to N w^(N-1) for
    w <= 1/2.
    """
    w = _validate(N, w, n_min=2)
    total = Fraction(0)
    for j in range(1, N + 1):
        gap = 1 - j * (1 - w)
        if gap <= 0:
            break
        total += (-1) ** (j + 1) * math.comb(N, j) * gap ** (N - 1)
    return total


def min_gap_linear_cdf(N: int, w) -> Fraction:
    """P(min spacing of N points on the interval <= w) = 1 - (1-(N-1)w)_+^N."""
    w = _validate(N, w, n_min=2)
    return 1 - max(Fraction(0), 1 - (N - 1) * w) ** N


def min_gap_circular_cdf(N: int, w) -> Fraction:
    """P(min circular spacing <= w) = 1 - (1-Nw)_+^(N-1)."""
    w = _validate(N, w, n_min=2)
    return 1 - max(Fraction(0), 1 - N * w) ** (N - 1)


BASELINES = {
    "range_linear": range_linear_cdf,
    "arc_containment": arc_containment_cdf,
    "min_gap_linear": min_gap_linear_cdf,
    "min_gap_circular": min_gap_circular_cdf,
}


def baseline_cdf(name: str, N: int, w) -> Fraction:
    try:
        fn = BASELINES[name]
    except KeyError:
        raise DomainError(f"unknown baseline {name!r}; choose from {sorted(BASELINES)}") from None
    return fn(N, w)


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
    probability.
    """
    g = Fraction(1, j)
    w = _piece(kind, g)
    if not 0 < w < threshold(kind, N):
        raise DomainError(f"junction w={w} outside the valid regime")
    hi = _term_count(kind, g)
    return _sum(kind, N, w, hi).p - _sum(kind, N, w, hi - 1).p
