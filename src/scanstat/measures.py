"""Closed-form chain/cycle measures, their transform inversion and exact checks.

Four families of Lebesgue measures (always in the density-of-sum sense: the
value at x is the (n-1)-dimensional measure of the slice sum(x_i - 1) = x,
normalized so that the one-variable box [0,2] has density rect(x/2); this
convention is what makes the transform base case e^s - e^{-s} come out):

  F_LINEAR    f_n: 0 <= x_i <= 2, adjacent sums x_i + x_{i+1} <= 2 along a line
  A_CYCLIC    a_n: x_i >= 0, adjacent sums <= 2 around a cycle (upper bounds
              on x_i are implied by the cyclic constraints for n >= 2)
  B_CYCLIC_GE b_n: x_i >= 0, adjacent sums >= 2 around a cycle
  C_LINEAR_GE c_n: n+1 variables x_i >= 0 with adjacent sums >= 2 imposed only
              on the interior pairs (x_i, x_{i+1}), 2 <= i <= n-1; the two end
              variables are free.  This is exactly the gap structure of the
              linear scan statistic, whose boundary gaps sit in no window, and
              it is the set the closed form actually measures (the variant
              with all n constraints active provably differs from n = 2 on).

Evaluation conventions, fixed once for the whole artifact:

  * H(0) = 1: every Heaviside gate reads `arg >= 0`, so each evaluator is a
    function of (n, x) alone and returns the right-hand limit wherever a
    piece ends.  The measures are continuous except for the degenerate n = 2
    jump at x = 0; `left_limit` gives the left-hand limit at any x from the
    piece below it, which is how the continuity check sees that jump;
  * the standalone polynomial blocks of the a/b closed forms carry an
    implicit H(x) factor, inherited from their inverse-transform origin where
    every plain s^{-p} term produces x^{p-1}/(p-1)! H(x).  Without that gate
    a_2 would vanish on (-2, 0) instead of equaling x + 2.

The a/b/c closed forms are evaluated over the integers.  With x = P/Q every
(x +- k)^e becomes (P +- kQ)^e over a power of Q, the 1/i weights share the
lcm of the active i, and the standalone blocks carry their 1/2 or 1/(n+2) in
the same denominator, so each value is one Fraction built at the end.

Everything here is exact and pure Python: no numpy is imported, so the CDF
kernels in `scanprob` load the closed forms without any numeric machinery.
The exact checks are two: continuity and support of each piecewise
polynomial, and equality with termwise inversion of the transform-domain
series.  The Monte Carlo oracle that samples each set lives in `montecarlo`.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from .exactnum import DomainError, half_binom
from .exppoly import ExpPoly
from .genseries import a_tilde, b_tilde, c_tilde, f_tilde_recursive
from .report import Report


class MeasureKind(Enum):
    F_LINEAR = "f"
    A_CYCLIC = "a"
    B_CYCLIC_GE = "b"
    C_LINEAR_GE = "c"


# ---------------------------------------------------------------------------
# Closed-form evaluators
# ---------------------------------------------------------------------------


def _block(n: int, m: int, u: int, v: int) -> int:
    """C(n-1, m) u^m v^(n-1-m) - C(n-1, m-1) u^(m-1) v^(n-m), sharing one power pair."""
    if m == 0:
        return v ** (n - 1)
    return u ** (m - 1) * v ** (n - 1 - m) * (math.comb(n - 1, m) * u - math.comb(n - 1, m - 1) * v)


def a_closed(n: int, x) -> Fraction:
    """Measure of the n-cycle with adjacent sums <= 2, exactly.

    Supported on [-n, 0]; near x = -n the constraints are slack and the value
    coincides with the full simplex density (x+n)^(n-1)/(n-1)!.
    """
    if n < 2:
        raise DomainError(f"a_closed requires n >= 2, got {n}")
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    active = [i for i in range(2 - n % 2, n + 1, 2) if p + i * q >= 0]
    lcm = math.lcm(*active)
    total = 2 * n * sum(lcm // i * _block(n, (n - i) // 2, p - i * q, p + i * q) for i in active)
    if p >= 0:
        total -= lcm * 2**n * p ** (n - 1)
        total += lcm * half_binom(n) * p ** (n - 2) * (p - n * q)
    return Fraction(total, 2 * lcm * math.factorial(n - 1) * q ** (n - 1))


def b_closed(n: int, x) -> Fraction:
    """Measure of the n-cycle with adjacent sums >= 2, exactly.

    Supported on [0, inf); grows like the full simplex density for large x.
    """
    if n < 2:
        raise DomainError(f"b_closed requires n >= 2, got {n}")
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    sign = -1 if n % 2 else 1
    active = [i for i in range(2 - n % 2, n // 3 + 1, 2) if p - i * q >= 0]
    lcm = math.lcm(*active)
    total = 2 * n * sign * sum(lcm // i * _block(n, (n - 3 * i) // 2, p + i * q, p - i * q) for i in active)
    if p >= 0:
        total -= lcm * sign * 2**n * p ** (n - 1)
        total += lcm * half_binom(n) * p ** (n - 2) * (3 * p + n * q)
    return Fraction(total, 2 * lcm * math.factorial(n - 1) * q ** (n - 1))


def c_closed(n: int, x) -> Fraction:
    """Measure of the (n+1)-variable open chain with free ends, exactly.

    Supported on [-3, inf) for even n and [-2, inf) for odd n.
    """
    if n < 2:
        raise DomainError(f"c_closed requires n >= 2, got {n}")
    x = Fraction(x)
    q = x.denominator
    p = x.numerator + 3 * q  # x + 3 = p/q
    sign = 1 if n % 2 else -1
    total = 0
    for i in range(n % 2, (n + 2) // 3 + 1, 2):
        if p - i * q < 0:
            continue
        u, v = p + i * q, p - i * q
        for d, cf in ((1, 1), (0, -2), (-1, 1)):
            m = (n - 3 * i) // 2 + d
            if 0 <= m <= n:
                total += cf * math.comb(n, m) * u**m * v ** (n - m)
    total *= (n + 2) * sign
    if p >= 0:
        total += 2 * sign * half_binom(n) * p**n
    return Fraction(total, (n + 2) * math.factorial(n) * q**n)


# ---------------------------------------------------------------------------
# Exact evaluation through the transform (the symbolic second route)
# ---------------------------------------------------------------------------


def invert_transform(poly: ExpPoly, n_vars: int, x) -> Fraction:
    """Evaluate the measure whose scaled transform s^n_vars * L{m}(s) is `poly`.

    Termwise: c s^a e^{bs} with a <= n_vars - 1 inverts to
    c (x+b)^(n_vars-a-1) / (n_vars-a-1)! H(x+b).
    """
    x = Fraction(x)
    total = Fraction(0)
    for (a, b), c in poly.terms.items():
        e = n_vars - a - 1
        if e < 0:
            raise DomainError(f"term s^{a} does not invert for {n_vars} variables")
        if x + b >= 0:
            total += c * (x + b) ** e / math.factorial(e)
    return total


def f_closed(n: int, x) -> Fraction:
    """Exact f_n(x) via the transform recursion."""
    if n < 1:
        raise DomainError(f"f_closed requires n >= 1, got {n}")
    return invert_transform(f_tilde_recursive(n), n, x)


_CLOSED = {
    MeasureKind.F_LINEAR: f_closed,
    MeasureKind.A_CYCLIC: a_closed,
    MeasureKind.B_CYCLIC_GE: b_closed,
    MeasureKind.C_LINEAR_GE: c_closed,
}


def closed_measure(kind: MeasureKind, n: int, x) -> Fraction:
    return _CLOSED[kind](n, x)


def left_limit(kind: MeasureKind, n: int, x) -> Fraction:
    """The left-hand limit of the measure at x, exactly, from the piece below x.

    Every breakpoint of the four measures is an integer, and on each unit
    piece (b-1, b) the measure is a polynomial in x of degree at most n:
    n-1 for f_n, a_n and b_n (n variables) and n for c_n (n+1 variables),
    since a measure of v variables inverts termwise to powers (x+b)^e H(x+b)
    with e <= v-1 (see `invert_transform`).  So its (n+1)-th difference
    vanishes, and with h = (x - ceil(x) + 1)/(n+2)

        P(x) = sum_{k=1..n+1} (-1)^(k+1) C(n+1, k) P(x - k h),

    where every x - k h lies in (ceil(x) - 1, x), inside the piece below x.
    At an integer b this is h = 1/(n+2); at a non-integer x, where every
    measure is continuous, it equals closed_measure(kind, n, x).
    """
    x = Fraction(x)
    step = (x - math.ceil(x) + 1) / (n + 2)
    return sum(
        (-1) ** (k + 1) * math.comb(n + 1, k) * closed_measure(kind, n, x - k * step) for k in range(1, n + 2)
    )


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


def piece_boundaries(kind: MeasureKind, n: int) -> list[int]:
    if kind in (MeasureKind.F_LINEAR, MeasureKind.A_CYCLIC):
        return list(range(-n, 1))
    if kind is MeasureKind.B_CYCLIC_GE:
        return list(range(0, n // 3 + 1))
    return list(range(-3, (n + 2) // 3 - 3 + 1))


def interior_grid(kind: MeasureKind, n: int, points: int = 10) -> list[Fraction]:
    """Non-integer rational probe points spanning each measure's support."""
    if kind in (MeasureKind.F_LINEAR, MeasureKind.A_CYCLIC):
        lo, span = Fraction(-n), Fraction(n)
    elif kind is MeasureKind.B_CYCLIC_GE:
        lo, span = Fraction(0), Fraction(2 * n)
    else:
        lo = Fraction(-3) if n % 2 == 0 else Fraction(-2)
        span = Fraction(3 * n)
    return [lo + span * Fraction(j, points + 1) for j in range(1, points + 1)]


def continuity_report(n_max: int = 6) -> Report:
    """Exact two-sided values at every integer piece boundary.

    `closed_measure` at a boundary b is the right-hand limit (H(0) = 1), and
    `left_limit` reads the left-hand limit off the piece below b without
    touching any gate; equality is continuity of the piecewise polynomial at
    b.  The degenerate n = 2 measures genuinely jump at x = 0 (the two cyclic
    constraints collapse into one), so that single boundary is asserted to
    jump rather than to match.
    """
    rep = Report("measure_continuity")
    for kind in MeasureKind:
        for n in range(2, n_max + 1):
            for b in piece_boundaries(kind, n):
                right = closed_measure(kind, n, b)
                left = left_limit(kind, n, b)
                genuine_jump = n == 2 and b == 0 and kind is not MeasureKind.C_LINEAR_GE
                if genuine_jump:
                    rep.add(
                        "boundary_jump_degenerate_n2",
                        left != right,
                        {"kind": kind.value, "n": n, "x": b},
                        f"left={left} right={right}",
                    )
                else:
                    rep.add(
                        "boundary_continuity",
                        left == right,
                        {"kind": kind.value, "n": n, "x": b},
                        "" if left == right else f"left={left} right={right}",
                    )
    return rep


def support_report(n_max: int = 6) -> Report:
    """Zero outside the support and nonnegative on a rational grid inside."""
    rep = Report("measure_support")
    for n in range(2, n_max + 1):
        outside_a = [Fraction(j, 7) for j in range(1, 15)] + [-n - Fraction(j, 7) for j in range(0, 8)]
        rep.add(
            "a_zero_outside",
            all(a_closed(n, x) == 0 for x in outside_a),
            {"n": n},
        )
        rep.add(
            "b_zero_below_zero",
            all(b_closed(n, -Fraction(j, 7)) == 0 for j in range(1, 15)),
            {"n": n},
        )
        rep.add(
            "c_zero_below_support",
            all(c_closed(n, Fraction(-7, 2) - Fraction(j, 7)) == 0 for j in range(0, 8)),
            {"n": n},
        )
        for kind in MeasureKind:
            grid = interior_grid(kind, n, 12)
            rep.add(
                "nonnegative_on_support",
                all(closed_measure(kind, n, x) >= 0 for x in grid),
                {"kind": kind.value, "n": n},
            )
    return rep


def transform_crosscheck_report(n_max: int = 7) -> Report:
    """Closed forms vs exact inversion of the transform-domain series.

    This is an exact, noise-free second route: the same numbers must come out
    of the hand-extracted piecewise polynomials and of termwise inversion of
    the series coefficients.  It pins the implicit-H(x) gating in particular.
    """
    rep = Report("measure_transform_crosscheck")
    # each transform, and how many variables its measure has beyond n
    table = (
        (MeasureKind.A_CYCLIC, a_tilde, 0),
        (MeasureKind.B_CYCLIC_GE, b_tilde, 0),
        (MeasureKind.C_LINEAR_GE, c_tilde, 1),
    )
    for kind, transform, extra in table:
        for n in range(2, n_max + 1):
            poly = transform(n)
            grid = interior_grid(kind, n, 8) + [Fraction(b) for b in piece_boundaries(kind, n)]
            ok = all(closed_measure(kind, n, x) == invert_transform(poly, n + extra, x) for x in grid)
            rep.add("closed_equals_transform_inversion", ok, {"kind": kind.value, "n": n})
    return rep
