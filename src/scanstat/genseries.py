"""Truncated power series in t and the transform-domain derivation chain.

Everything here lives in one of two coefficient rings: exact rationals
(Fraction) or exponential polynomials in s (ExpPoly).  The module builds the
minimum-window transform f~_n(s) two independent ways,

  * by the exact convolution recursion
        f~_n(s) = sum_{i=1..n} int_0^s e^p f~_{i-1}(p) f~_{n-i}(p) dp,  n >= 2,
    from the base cases f~_0 = 1, f~_1 = e^s - e^{-s}; and
  * as the t^n coefficient of the closed-form generating function
        F(t, s) = -e^{-s}/t * d/ds ln Q(t, s),
    where Q(t,s) = (a2+t) e^{a1 s} - (a1+t) e^{a2 s} solves the second-order
    equation Q'' - Q' + t^2 Q = 0 induced by the Riccati equation
        dF/ds = t e^s F^2 + t e^{-s},  F(t, 0) = 1,
    with a1,2 = (1 +- sqrt(1-4t^2))/2,

and verifies them against each other coefficient by coefficient.  The roots
tie into the Catalan generating function C through z = sqrt(1-4t^2),
C = (1-z)/(2t^2), a1 = 1 - t^2 C = 1/C, a2 = t^2 C.

The circular and inclusion-exclusion variants reuse Q together with
    R(t,s) = a2(a2+t) e^{-a1 s} - a1(a1+t) e^{-a2 s},
which satisfies R/Q = F + t e^{-s}:

  * cycle with adjacent sums <= 2:  a~_n(s) = n [t^n] { -ln(Q/(-z)) },
  * cycle with adjacent sums >= 2:  b~_n(s) = n (-1)^n [t^n] { -ln(R/(-z)) },
  * open chain with free ends:      c~_n(s) = (-1)^(n-1) [t^(n-1)] { (Q/R) e^{2s} }.

Exponentials e^{g(t) s} with g(t) = m + O(t^2), m an integer, are expanded as
e^{ms} * sum_j ((g - m) s)^j / j!; each j contributes t^(2j), so truncating at
j <= order/2 keeps every series exact to the requested order while the ExpPoly
exponents stay integral.

Finally, coefficient extraction of the form [t^n] (tC)^p (a + bz)^q reduces,
via Lagrange inversion of the shifted Catalan function in u = t^2, to

    [u^((n-p)/2)] (u+1)^(n-q-1) ((a-b)u + (a+b))^q (1-u),

implemented by lagrange_extract as a product of three TruncSeries in u and
checked against direct series arithmetic in t.

The Catalan parameters, t*C, Q, R, F, A, the (B, C2) pair and the f~_n levels
are built once per order (per n) into one memo, _ORDER_MEMO, so every check of
a suite reads the same values.  That sharing is safe because a value never
changes after it is built: TruncSeries holds its coefficients in a tuple,
CatalanParams is frozen, and ExpPoly is immutable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import DomainError
from .exppoly import ExpPoly
from .report import Report

DEFAULT_ORDER = 12

# built series by (builder, order); see the module docstring
_ORDER_MEMO: dict[tuple[str, int], object] = {}


def _per_order(builder):
    """Build once per order into _ORDER_MEMO; a negative order raises."""

    @functools.wraps(builder)
    def memoised(order: int = DEFAULT_ORDER):
        if order < 0:
            raise DomainError("order must be >= 0")
        key = builder.__name__, order
        if key not in _ORDER_MEMO:
            _ORDER_MEMO[key] = builder(order)
        return _ORDER_MEMO[key]

    return memoised


# ---------------------------------------------------------------------------
# Truncated power series
# ---------------------------------------------------------------------------


def _zero_like(c):
    return c * 0


def _invert_coef(c):
    if isinstance(c, ExpPoly):
        return c.inverse()
    if c == 0:
        raise DomainError("division by a series with zero constant term")
    return 1 / Fraction(c)


class TruncSeries:
    """Power series in t truncated at a fixed order, exact coefficients.

    Coefficients are Fractions or ExpPolys (never mixed within one series),
    held in a tuple so a memoised series cannot be changed in place.
    Arithmetic truncates results to the smaller operand order; nothing beyond
    `order` is ever read or trusted.
    """

    __slots__ = ("coefs",)

    def __init__(self, coefs):
        self.coefs = tuple(coefs)
        if not self.coefs:
            raise ValueError("series needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coefs) - 1

    @classmethod
    def constant(cls, c, order: int) -> "TruncSeries":
        z = _zero_like(c)
        return cls([c] + [z] * order)

    @classmethod
    def t_power(cls, k: int, order: int, c=Fraction(1)) -> "TruncSeries":
        z = _zero_like(c)
        coefs = [z] * (order + 1)
        if k <= order:
            coefs[k] = c
        return cls(coefs)

    def coef(self, k: int):
        if k < 0 or k > self.order:
            raise IndexError(f"coefficient t^{k} beyond truncation order {self.order}")
        return self.coefs[k]

    def truncate(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise ValueError(f"cannot extend truncation {self.order} to {order}")
        return TruncSeries(self.coefs[: order + 1])

    def map(self, fn) -> "TruncSeries":
        return TruncSeries([fn(c) for c in self.coefs])

    def lift(self) -> "TruncSeries":
        """Rational-coefficient series viewed in the ExpPoly ring."""
        return TruncSeries([ExpPoly.const(c) for c in self.coefs])

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        n = min(self.order, other.order)
        return TruncSeries([self.coefs[k] + other.coefs[k] for k in range(n + 1)])

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        n = min(self.order, other.order)
        return TruncSeries([self.coefs[k] - other.coefs[k] for k in range(n + 1)])

    def __neg__(self) -> "TruncSeries":
        return TruncSeries([-c for c in self.coefs])

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        n = min(self.order, other.order)
        zero = _zero_like(self.coefs[0])
        out = [zero * 1 for _ in range(n + 1)]
        for i, ci in enumerate(self.coefs[: n + 1]):
            if not ci:
                continue
            for j in range(n + 1 - i):
                cj = other.coefs[j]
                out[i + j] = out[i + j] + ci * cj
        return TruncSeries(out)

    def scale(self, c) -> "TruncSeries":
        """Coefficient-wise multiplication by a fixed ring element."""
        return TruncSeries([coef * c for coef in self.coefs])

    def shift(self, k: int) -> "TruncSeries":
        """Multiply by t^k; the result is exact to order + k."""
        z = _zero_like(self.coefs[0])
        return TruncSeries((z,) * k + self.coefs)

    def shift_down(self, k: int = 1) -> "TruncSeries":
        """Divide by t^k, requiring the low-order coefficients to vanish."""
        if any(self.coefs[:k]):
            raise DomainError(f"series not divisible by t^{k}")
        return TruncSeries(self.coefs[k:])

    def divide(self, other: "TruncSeries") -> "TruncSeries":
        """self / other; the constant term of `other` must be invertible."""
        n = min(self.order, other.order)
        inv0 = _invert_coef(other.coefs[0])
        out = []
        for k in range(n + 1):
            acc = self.coefs[k]
            for j in range(1, k + 1):
                acc = acc - other.coefs[j] * out[k - j]
            out.append(acc * inv0)
        return TruncSeries(out)

    def deriv_t(self) -> "TruncSeries":
        if self.order == 0:
            return TruncSeries([_zero_like(self.coefs[0])])
        return TruncSeries([self.coefs[k] * k for k in range(1, self.order + 1)])

    def integrate_t(self) -> "TruncSeries":
        """Antiderivative in t with zero constant term; gains one order."""
        zero = _zero_like(self.coefs[0])
        out = [zero]
        for k, c in enumerate(self.coefs):
            out.append(c * Fraction(1, k + 1))
        return TruncSeries(out)

    def log(self) -> "TruncSeries":
        """ln(self) for a series with constant term 1, via ln(f)' = f'/f."""
        if self.coefs[0] != 1:
            raise DomainError("log requires constant term 1")
        if self.order == 0:
            return TruncSeries([_zero_like(self.coefs[0])])
        return self.deriv_t().divide(self.truncate(self.order - 1)).integrate_t()

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.coefs == other.coefs

    def __repr__(self) -> str:
        return "TruncSeries([" + ", ".join(repr(c) for c in self.coefs) + "])"


# ---------------------------------------------------------------------------
# Catalan-parameter series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalanParams:
    z: TruncSeries
    C: TruncSeries
    alpha1: TruncSeries
    alpha2: TruncSeries


def catalan_number(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


@_per_order
def catalan_params(order: int) -> CatalanParams:
    """The series z = sqrt(1-4t^2), C = (1-z)/(2t^2), a1 = 1 - t^2 C, a2 = t^2 C.

    C carries the Catalan numbers on even powers of t; z(0) = 1; a1 + a2 = 1
    and a1 * a2 = t^2 exactly.
    """
    coefs = [Fraction(0)] * (order + 1)
    for m in range(0, order // 2 + 1):
        coefs[2 * m] = Fraction(catalan_number(m))
    c_series = TruncSeries(coefs)
    t2c = c_series.shift(2).truncate(order)
    one = TruncSeries.constant(Fraction(1), order)
    z = one - t2c.scale(Fraction(2))
    alpha1 = one - t2c
    alpha2 = t2c
    return CatalanParams(z=z, C=c_series, alpha1=alpha1, alpha2=alpha2)


@_per_order
def tc_series(order: int) -> TruncSeries:
    """The series t*C, the ratio (a2+t)/(a1+t)."""
    return catalan_params(order).C.shift(1).truncate(order)


# ---------------------------------------------------------------------------
# Recursion route: f~_n by exact integration
# ---------------------------------------------------------------------------

_EXP_S = ExpPoly.exp(1)


@_per_order
def f_tilde_recursive(n: int) -> ExpPoly:
    """Transform of the n-variable bounded-chain measure, by the recursion.

    The recursion applies only for n >= 2; running it at n = 1 would produce
    e^s - 1, not the rectangle transform e^s - e^{-s}, so the two base cases
    are pinned explicitly.  Each level sums its n//2 distinct products once and
    integrates once; levels are memoised per n (exponential without the memo).
    """
    if n < 2:
        return (ExpPoly.one(), _EXP_S - ExpPoly.exp(-1))[n]
    half = ExpPoly.zero()  # products i and n+1-i are equal, and integration is linear
    for i in range(1, n // 2 + 1):
        half = half + f_tilde_recursive(i - 1) * f_tilde_recursive(n - i)
    mid = f_tilde_recursive(n // 2) if n % 2 else ExpPoly.zero()
    return (_EXP_S * (half + half + mid * mid)).integrate_0_to_s()


# ---------------------------------------------------------------------------
# Closed-form route: Q, R, F and the derived series
# ---------------------------------------------------------------------------


def _exp_linear_series(base: int, rate: TruncSeries, order: int) -> TruncSeries:
    """ExpPoly-coefficient series for exp((base + rate(t)) * s).

    `rate` must have valuation >= 2 in t, so the Taylor expansion
    e^{base*s} * sum_j (rate*s)^j / j! is exact once j reaches order/2.
    """
    if any(rate.coefs[:2]):
        raise DomainError("exponent rate must vanish to order t^2")
    acc = TruncSeries.constant(ExpPoly.zero(), order)
    power = TruncSeries.constant(Fraction(1), order)  # rate^j
    for j in range(0, order // 2 + 1):
        term = power.lift().scale(ExpPoly.term(Fraction(1, math.factorial(j)), a=j, b=base))
        acc = acc + term
        power = power * rate
    return acc


@_per_order
def q_series(order: int) -> TruncSeries:
    """Q(t,s) = (a2+t) e^{a1 s} - (a1+t) e^{a2 s} as an ExpPoly series.

    Q(t,0) = -z, whose constant term -1 keeps Q invertible as a series.
    """
    p = catalan_params(order)
    t = TruncSeries.t_power(1, order)
    e_a1 = _exp_linear_series(1, -p.alpha2, order)   # a1 = 1 - t^2 C
    e_a2 = _exp_linear_series(0, p.alpha2, order)
    return (p.alpha2 + t).lift() * e_a1 - (p.alpha1 + t).lift() * e_a2


@_per_order
def r_series(order: int) -> TruncSeries:
    """R(t,s) = a2(a2+t) e^{-a1 s} - a1(a1+t) e^{-a2 s}; satisfies R/Q = F + t e^{-s}."""
    p = catalan_params(order)
    t = TruncSeries.t_power(1, order)
    e_neg_a1 = _exp_linear_series(-1, p.alpha2, order)
    e_neg_a2 = _exp_linear_series(0, -p.alpha2, order)
    return (p.alpha2 * (p.alpha2 + t)).lift() * e_neg_a1 - (p.alpha1 * (p.alpha1 + t)).lift() * e_neg_a2


@_per_order
def riccati_solution(order: int = DEFAULT_ORDER) -> TruncSeries:
    """F(t,s) = -e^{-s} (dQ/ds) / (t Q), exact to the requested order.

    dQ/ds has no constant t-coefficient, so dividing by t costs one order;
    everything is built one order higher internally to compensate.
    """
    work = order + 1
    q = q_series(work)
    p = q.map(lambda c: c.diff_s())
    return p.shift_down(1).divide(q.truncate(work - 1)).scale(ExpPoly.term(-1, 0, -1)).truncate(order)


@_per_order
def a_tilde_series(order: int = DEFAULT_ORDER) -> TruncSeries:
    """A(t,s) = -ln(Q(t,s)/(-z)); n * [t^n] A is the cyclic <=-chain transform.

    The t^1 coefficient is e^s - 1 (it is the transform of the degenerate
    one-variable cycle), even though coefficient extraction is only ever used
    from n = 2 up.
    """
    p = catalan_params(order)
    q = q_series(order)
    neg_z_inv = TruncSeries.constant(Fraction(1), order).divide(-p.z)
    return -(q * neg_z_inv.lift()).log()


@_per_order
def b_c_tilde_series(order: int = DEFAULT_ORDER) -> tuple[TruncSeries, TruncSeries]:
    """The two inclusion-exclusion series for >=-constrained chains.

    Returns (B, C2) with B = -ln(R/(-z)) and C2 = (Q/R) e^{2s}; then
    b~_n = n (-1)^n [t^n] B and c~_n = (-1)^(n-1) [t^(n-1)] C2.
    """
    p = catalan_params(order)
    q = q_series(order)
    r = r_series(order)
    neg_z_inv = TruncSeries.constant(Fraction(1), order).divide(-p.z)
    b = -(r * neg_z_inv.lift()).log()
    return b, q.divide(r).scale(ExpPoly.exp(2))


def a_tilde(n: int) -> ExpPoly:
    """Transform of the n-variable cycle measure with adjacent sums <= 2."""
    if n < 2:
        raise DomainError("cycle transform defined for n >= 2")
    return a_tilde_series(n).coef(n) * Fraction(n)


def b_tilde(n: int) -> ExpPoly:
    """Transform of the n-variable cycle measure with adjacent sums >= 2."""
    if n < 1:
        raise DomainError("cycle transform defined for n >= 1")
    b, _ = b_c_tilde_series(n)
    return b.coef(n) * Fraction(n * (-1) ** n)


def c_tilde(n: int) -> ExpPoly:
    """Transform of the (n+1)-variable open chain with free end variables."""
    if n < 1:
        raise DomainError("open-chain transform defined for n >= 1")
    _, c2 = b_c_tilde_series(max(n - 1, 0))
    return c2.coef(n - 1) * Fraction((-1) ** (n - 1))


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


def _first_nonzero(series: TruncSeries) -> tuple[int, ExpPoly] | None:
    for k, c in enumerate(series.coefs):
        if c:
            return k, c
    return None


def verify_riccati(order: int, f: TruncSeries | None = None) -> Report:
    """Check dF/ds - t e^s F^2 - t e^{-s} == 0 and F(t,0) == 1 coefficientwise.

    Passing a corrupted `f` is supported so negative controls can confirm the
    residual actually detects mistakes.
    """
    rep = Report("riccati")
    if f is None:
        f = riccati_solution(order)
    order = f.order
    df = f.map(lambda c: c.diff_s())
    f2 = (f * f).scale(ExpPoly.exp(1)).shift(1).truncate(order)
    drive = TruncSeries.t_power(1, order, ExpPoly.exp(-1))
    residual = df - f2 - drive
    bad = _first_nonzero(residual)
    rep.add(
        "riccati_residual_zero",
        bad is None,
        {"order": order},
        "" if bad is None else f"first nonzero residual at t^{bad[0]}: {bad[1]!r}",
    )
    boundary_ok = f.coefs[0].at_zero() == 1 and all(c.at_zero() == 0 for c in f.coefs[1:])
    rep.add("boundary_value_one", boundary_ok, {"order": order})
    return rep


def verify_identities(order: int, drop_alpha1_sq: bool = False) -> Report:
    """The compact ratio identities and the rational expansion of Q/R.

    Checks, all as exact truncated-series identities:
      1. a2/a1 == (tC)^2
      2. (a2+t)/(a1+t) == tC
      3. R/Q == F + t e^{-s}
      4. (Q/R) t^3 e^{-s} == z * sum_i (tC)^(3i) e^{-z i s} - a1^2

    `drop_alpha1_sq` deliberately corrupts check 4 for negative-control tests.
    """
    if order < 2:
        raise DomainError("identity suite needs order >= 2")
    rep = Report("identities")
    p = catalan_params(order)
    tc = tc_series(order)

    lhs = p.alpha2.divide(p.alpha1)
    rep.add("alpha_ratio_tc_squared", lhs == (tc * tc), {"order": order})

    t = TruncSeries.t_power(1, order)
    lhs = (p.alpha2 + t).divide(p.alpha1 + t)
    rep.add("shifted_alpha_ratio_tc", lhs == tc, {"order": order})

    q = q_series(order)
    r = r_series(order)
    f = riccati_solution(order)
    lhs = r.divide(q)
    rhs = f + TruncSeries.t_power(1, order, ExpPoly.exp(-1))
    diff = lhs - rhs
    bad = _first_nonzero(diff)
    rep.add(
        "ratio_r_over_q_is_f_plus_drive",
        bad is None,
        {"order": order},
        "" if bad is None else f"first mismatch at t^{bad[0]}",
    )

    lhs = q.divide(r).shift(3).truncate(order).scale(ExpPoly.exp(-1))
    rhs = TruncSeries.constant(ExpPoly.zero(), order)
    for i in range(0, order // 3 + 1):
        tc_pow = TruncSeries.constant(Fraction(1), order)
        for _ in range(3 * i):
            tc_pow = tc_pow * tc
        rate = (TruncSeries.constant(Fraction(1), order) - p.z).scale(Fraction(i))
        e_term = _exp_linear_series(-i, rate, order)  # e^{-z i s}
        rhs = rhs + tc_pow.lift() * e_term
    rhs = p.z.lift() * rhs
    if not drop_alpha1_sq:
        rhs = rhs - (p.alpha1 * p.alpha1).lift()
    diff = lhs - rhs
    bad = _first_nonzero(diff)
    rep.add(
        "q_over_r_geometric_expansion",
        bad is None,
        {"order": order},
        "" if bad is None else f"first mismatch at t^{bad[0]}: {bad[1]!r}",
    )
    return rep


def verify_recursion_vs_closed_form(n_max: int) -> Report:
    """The central consistency theorem: recursion == closed form, exactly."""
    rep = Report("recursion_vs_closed_form")
    f = riccati_solution(n_max)
    for n in range(0, n_max + 1):
        same = f_tilde_recursive(n) == f.coef(n)
        rep.add("transform_coefficient_match", same, {"n": n})
    return rep


# ---------------------------------------------------------------------------
# Lagrange inversion extraction
# ---------------------------------------------------------------------------


def _binomial_series(a0, a1, e: int, order: int) -> TruncSeries:
    """(a0 + a1*u)^e truncated at u^order, by the generalised binomial series.

    The coefficient binom(e, j) follows c_(j+1) = c_j (e-j)/(j+1): it vanishes
    past j = e when e >= 0, so a0 may then be 0, and runs on for e < 0, where
    a0 must be nonzero.
    """
    coefs, c = [], Fraction(1)
    for j in range(order + 1):
        coefs.append(c * Fraction(a0) ** (e - j) * Fraction(a1) ** j if c else c)
        c = c * Fraction(e - j, j + 1)
    return TruncSeries(coefs)


def lagrange_extract(p: int, q: int, a, b, n: int) -> Fraction:
    """[t^n] (tC)^p (a + b z)^q by Lagrange inversion in u = t^2.

    Evaluates [u^((n-p)/2)] (u+1)^(n-q-1) ((a-b)u + (a+b))^q (1-u); returns 0
    when n - p is odd or negative.  p = -1 is admitted (it arises from the
    open-chain expansion, where 1/(tC) = (1 - t^2 C)/t keeps things Laurent-
    polynomial); q must be >= 0.
    """
    if n < 0:
        raise DomainError("extraction order must be >= 0")
    if q < 0:
        raise DomainError("q must be >= 0")
    if p < -1:
        raise DomainError("p must be >= -1")
    if (n - p) % 2 != 0 or n - p < 0:
        return Fraction(0)
    m = (n - p) // 2
    a = Fraction(a)
    b = Fraction(b)
    poly = (_binomial_series(1, 1, n - q - 1, m) * _binomial_series(a + b, a - b, q, m)
            * _binomial_series(1, -1, 1, m))
    return poly.coef(m)


def direct_extract(p: int, q: int, a, b, n: int) -> Fraction:
    """[t^n] (tC)^p (a + b z)^q by direct truncated-series arithmetic.

    The independent side of the dual-route check for lagrange_extract.
    """
    if n < 0:
        raise DomainError("extraction order must be >= 0")
    params = catalan_params(n + 2)
    order = n + 2
    base = TruncSeries.constant(Fraction(a), order) + params.z.scale(Fraction(b))
    acc = TruncSeries.constant(Fraction(1), order)
    for _ in range(q):
        acc = acc * base
    tc = tc_series(order)
    if p >= 0:
        for _ in range(p):
            acc = acc * tc
        return acc.coef(n)
    # p == -1: multiply by a1 = 1 - t^2 C and read one order higher.
    return (acc * params.alpha1).coef(n + 1)


def extraction_exponent_report(n_max: int) -> Report:
    """Enumerate every (order, p, q) extraction the three measure families use
    and confirm the (u+1) exponent order - q - 1 stays in {0, 1}."""
    rep = Report("extraction_exponents")
    ok = True
    worst = None
    for n in range(2, n_max + 1):
        cases = []
        start = 1 if n % 2 else 2
        for i in range(start, n + 1, 2):
            cases.append((n, i, n - 1))                    # cycle, <= 2
        for i in range(start, n // 3 + 1, 2):
            cases.append((n, 3 * i, n - 1))                # cycle, >= 2
        c_start = 1 if n % 2 else 0
        for i in range(c_start, (n + 2) // 3 + 1, 2):
            if 3 * i - 1 <= n + 1:
                cases.append((n + 1, 3 * i - 1, n))        # open chain, first block
            if 3 * i <= n + 2:
                cases.append((n + 2, 3 * i, n))            # open chain, second block
        for order, p, q in cases:
            e = order - q - 1
            if e not in (0, 1):
                ok = False
                worst = (n, order, p, q, e)
    rep.add(
        "u_plus_one_exponent_in_{0,1}",
        ok,
        {"n_max": n_max},
        "" if ok else f"violated at {worst}",
    )
    return rep


def verify_lagrange(n_max: int = 12, samples: int = 120, seed: int = 20260809) -> Report:
    """Randomized dual-route check of lagrange_extract against direct series."""
    import random

    rng = random.Random(seed)
    rep = Report("lagrange_extraction")
    mismatches = []
    for _ in range(samples):
        n = rng.randrange(0, n_max + 1)
        p = rng.randrange(-1, n + 2)
        q = rng.randrange(0, 7)
        a = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
        b = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
        got = lagrange_extract(p, q, a, b, n)
        want = direct_extract(p, q, a, b, n)
        if got != want:
            mismatches.append((p, q, str(a), str(b), n, str(got), str(want)))
    rep.add(
        "matches_direct_series",
        not mismatches,
        {"n_max": n_max, "samples": samples, "seed": seed},
        "" if not mismatches else f"first mismatch {mismatches[0]}",
    )
    return rep


def verify_series_suite(order: int = 10) -> Report:
    """Everything the transform-domain chain promises, in one report."""
    rep = Report("series")
    for sub in (
        verify_recursion_vs_closed_form(order),
        verify_riccati(order),
        verify_identities(order),
        verify_lagrange(min(order + 2, 12)),
        extraction_exponent_report(order),
    ):
        for check in sub.checks:
            rep.checks.append(check)
    return rep
