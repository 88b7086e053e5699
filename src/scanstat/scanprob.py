"""Exact CDFs of the three scan-statistic families.

For N points uniform on the unit interval or circle, W(k) / W_c(k) is the
smallest window containing k of them, and the CDFs evaluated here are

  pc_nm1:  P(W_c(N-1) <= w)   saturates to 1 at w >= 1 - 2/N
  pc_3:    P(W_c(3)   <= w)   saturates to 1 at w >= 2/N
  p_lin_3: P(W(3)     <= w)   saturates to 1 at w >= 2/(N-2)

Below the saturation threshold each survival probability is a finite signed
binomial sum over the active floor(1/w)-indexed pieces; `binom_ext` silently
kills out-of-range terms, and the only negative exponent that can survive the
binomial gate is a single -1 whose base is provably nonzero in the valid
regime.  Every value is an exact rational; a float is only ever reported as
float(p), which is correctly rounded.

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

from .exactnum import DomainError, binom_ext, format_rational, pow_int
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


def _finish(terms: list, sign: int) -> ProbValue:
    survival = sign * sum(terms, Fraction(0))
    return ProbValue(1 - survival, survival, Regime.BELOW_THRESHOLD, sum(1 for t in terms if t != 0))


def _saturated() -> ProbValue:
    return ProbValue(Fraction(1), Fraction(0), Regime.SATURATED, 0)


def _zero() -> ProbValue:
    return ProbValue(Fraction(0), Fraction(1), Regime.BELOW_THRESHOLD, 0)


def _pc_nm1_terms(N: int, w: Fraction, p_max: int) -> list:
    u = 1 - w
    lead = 1 - N * u
    if lead == 0:
        raise DomainError("degenerate p=0 term: 1 - N(1-w) vanished")
    # the p = 0 term is lead * lead**-1 == 1 identically (its two factors cancel)
    terms = [Fraction(1)]
    for p in range(1, p_max + 1):
        c = binom_ext(N, p)
        if not c:
            continue
        terms.append(c * lead * pow_int(1 - p * u, N - p - 1) * pow_int(1 - (N - p) * u, p - 1))
    return terms


def pc_nm1(N: int, w) -> ProbValue:
    """P(W_c(N-1) <= w): the circular near-complete window CDF."""
    w = _validate(N, w)
    if w >= threshold(ScanKind.PC_NM1, N):
        return _saturated()
    return _finish(_pc_nm1_terms(N, w, math.floor(1 / (1 - w))), 1)


def _last_p(N: int, p_max: int) -> int:
    # every binomial C(N, 3p-N+d), d in {-1, 0, 1}, vanishes once 3p-N-1 > N,
    # so the three-point loops end there however large floor(1/w) is
    return min(p_max, (2 * N + 1) // 3)


def _pc_3_terms(N: int, w: Fraction, p_max: int) -> list:
    terms = [pow_int(2 - N * w, N - 1)]
    half = binom_ext(N, Fraction(N, 2))
    if half:
        terms.append(half * (N * w - 3) * pow_int(1 - N * w / 2, N - 2) / 2)
    for p in range(math.ceil(Fraction(N + 1, 2)), _last_p(N, p_max) + 1):
        c = binom_ext(N, 3 * p - N)
        if not c:
            continue
        # exponent 2N-3p-1 >= -1 whenever the binomial survives; at -1 the
        # base 1-(N-p)w stays positive for w < 2/N since N-p <= N/3 there
        terms.append(
            (N * w - 3) * c * pow_int(1 - p * w, 3 * p - N - 1) * pow_int(1 - (N - p) * w, 2 * N - 3 * p - 1)
        )
    return terms


def pc_3(N: int, w) -> ProbValue:
    """P(W_c(3) <= w): the circular three-point window CDF."""
    w = _validate(N, w)
    if w >= threshold(ScanKind.PC_3, N):
        return _saturated()
    if w == 0:
        return _zero()
    return _finish(_pc_3_terms(N, w, math.floor(1 / w)), (-1) ** (N - 1))


def _p_lin_3_terms(N: int, w: Fraction, p_max: int) -> list:
    terms = []
    half = binom_ext(N, Fraction(N, 2))
    if half:
        terms.append(-2 * half * pow_int(1 - (Fraction(N, 2) - 1) * w, N) / (N + 2))
    for p in range(math.ceil(Fraction(N + 1, 2)), _last_p(N, p_max) + 1):
        for d, cf in ((-1, 1), (0, -2), (1, 1)):
            m = 3 * p - N + d
            c = binom_ext(N, m)
            if not c:
                continue
            terms.append(cf * c * pow_int(1 - (p - 1) * w, m) * pow_int(1 - (N - p - 1) * w, 2 * N - 3 * p - d))
    return terms


def p_lin_3(N: int, w) -> ProbValue:
    """P(W(3) <= w): the linear three-point window CDF."""
    w = _validate(N, w)
    if N > 4 and w >= threshold(ScanKind.P_3, N):
        return _saturated()
    if N == 4 and w == 1:
        return _saturated()  # threshold 2/(N-2) = 1 reached at the domain edge
    if w == 0:
        return _zero()
    return _finish(_p_lin_3_terms(N, w, math.floor(1 / w) + 1), (-1) ** (N - 1))


_EVALUATORS = {
    ScanKind.PC_NM1: pc_nm1,
    ScanKind.PC_3: pc_3,
    ScanKind.P_3: p_lin_3,
}


def evaluate(query: ScanQuery) -> ProbValue:
    return _EVALUATORS[query.kind](query.N, query.w)


# ---------------------------------------------------------------------------
# Second pathway: normalized measures
# ---------------------------------------------------------------------------


def measure_to_probability(kind: ScanKind, N: int, w) -> ProbValue:
    """The same CDFs through the measure normalization pathway.

    The survival probability is the constrained spacing measure divided by
    the free simplex density at the mapped point:

      PC_NM1: a_N(x) / [(x+N)^(N-1)/(N-1)!]   at x = 2/(1-w) - N
      PC_3:   b_N(x) / [(x+N)^(N-1)/(N-1)!]   at x = 2/w - N
      P_3:    c_N(x) / [(x+N+1)^N/N!]         at x = 2/w - N - 1

    (N spacings for the circular statistics, N+1 for the linear one.)
    Requires w strictly inside the non-saturated regime.
    """
    w = _validate(N, w)
    if not 0 < w < threshold(kind, N):
        raise DomainError(f"w={w} is not strictly inside the valid regime for {kind.value}")
    if kind is ScanKind.PC_NM1:
        x = 2 / (1 - w) - N
        survival = a_closed(N, x) * math.factorial(N - 1) / (x + N) ** (N - 1)
    elif kind is ScanKind.PC_3:
        x = 2 / w - N
        survival = b_closed(N, x) * math.factorial(N - 1) / (x + N) ** (N - 1)
    else:
        x = 2 / w - N - 1
        survival = c_closed(N, x) * math.factorial(N) / (x + N + 1) ** N
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
        total += (-1) ** (j + 1) * binom_ext(N, j) * gap ** (N - 1)
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
            value = _EVALUATORS[kind](N, w)
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
# Piece-boundary continuity at floor(1/w) jumps
# ---------------------------------------------------------------------------

_TERMS = {
    ScanKind.PC_NM1: _pc_nm1_terms,
    ScanKind.PC_3: _pc_3_terms,
    ScanKind.P_3: _p_lin_3_terms,
}


def floor_boundary_gap(kind: ScanKind, N: int, j: int) -> Fraction:
    """Exact difference between the two piece polynomials at their junction.

    The active piece index floor(1/w) (or floor(1/(1-w))) jumps at w = 1/j
    (w = 1 - 1/j for the near-complete window); continuity means evaluating
    with either term count at the junction gives the same probability.
    """
    if kind is ScanKind.PC_NM1:
        w = 1 - Fraction(1, j)
    else:
        w = Fraction(1, j)
    if not 0 < w < threshold(kind, N):
        raise DomainError(f"junction w={w} outside the valid regime")
    hi = j + 1 if kind is ScanKind.P_3 else j
    sign = 1 if kind is ScanKind.PC_NM1 else (-1) ** (N - 1)
    with_term = _finish(_TERMS[kind](N, w, hi), sign)
    without = _finish(_TERMS[kind](N, w, hi - 1), sign)
    return with_term.p - without.p
