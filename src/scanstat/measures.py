"""Closed-form chain/cycle measures and the independent oracles that ground them.

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

  * H(0) = 1 (the measures are continuous except for the degenerate n = 2
    jump at x = 0, where the closed forms return the right-hand limit);
  * the standalone polynomial blocks of the a/b closed forms carry an
    implicit H(x) factor, inherited from their inverse-transform origin where
    every plain s^{-p} term produces x^{p-1}/(p-1)! H(x).  Without that gate
    a_2 would vanish on (-2, 0) instead of equaling x + 2.

The a/b/c closed forms are evaluated over the integers.  With x = P/Q every
(x +- k)^e becomes (P +- kQ)^e over a power of Q, the 1/i weights share the
lcm of the active i, and the standalone blocks carry their 1/2 or 1/(n+2) in
the same denominator, so each value is one Fraction built at the end.

Two independent oracles ground-truth the closed forms: a numeric-convolution
evaluator for f_n driven directly by the defining recursion, and one Monte
Carlo sampler for all four families that draws exact uniform points on the
simplex slice sum(x_i - 1) = x and counts those inside the set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .exactnum import DomainError
from .exppoly import ExpPoly
from .genseries import a_tilde, b_tilde, c_tilde, f_tilde_recursive
from .montecarlo import _chunked_count
from .report import Report


class MeasureKind(Enum):
    F_LINEAR = "f"
    A_CYCLIC = "a"
    B_CYCLIC_GE = "b"
    C_LINEAR_GE = "c"


@dataclass
class DensityEstimate:
    value: float
    std_error: float
    samples: int


@dataclass
class PiecewiseValue:
    """A measure evaluated at a point, tagged with its active piece index."""

    value: Fraction
    piece: int  # number of piece boundaries at or below x; 0 means off-support


# ---------------------------------------------------------------------------
# Closed-form evaluators
# ---------------------------------------------------------------------------


def _heaviside(arg: int | Fraction, h0: int) -> bool:
    """H(arg) with H(0) = h0; h0=0 gives the left-limit polynomial instead."""
    return arg > 0 or (arg == 0 and h0 == 1)


def _block(n: int, m: int, u: int, v: int) -> int:
    """C(n-1, m) u^m v^(n-1-m) - C(n-1, m-1) u^(m-1) v^(n-m), sharing one power pair."""
    if m == 0:
        return v ** (n - 1)
    return u ** (m - 1) * v ** (n - 1 - m) * (math.comb(n - 1, m) * u - math.comb(n - 1, m - 1) * v)


def _half_binom(n: int) -> int:
    """C(n, n/2), which is 0 for odd n."""
    return 0 if n % 2 else math.comb(n, n // 2)


def a_closed(n: int, x, _h0: int = 1) -> Fraction:
    """Measure of the n-cycle with adjacent sums <= 2, exactly.

    Supported on [-n, 0]; near x = -n the constraints are slack and the value
    coincides with the full simplex density (x+n)^(n-1)/(n-1)!.
    """
    if n < 2:
        raise DomainError(f"a_closed requires n >= 2, got {n}")
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    active = [i for i in range(2 - n % 2, n + 1, 2) if _heaviside(p + i * q, _h0)]
    lcm = math.lcm(*active)
    total = 2 * n * sum(lcm // i * _block(n, (n - i) // 2, p - i * q, p + i * q) for i in active)
    if _heaviside(p, _h0):
        total -= lcm * 2**n * p ** (n - 1)
        total += lcm * _half_binom(n) * p ** (n - 2) * (p - n * q)
    return Fraction(total, 2 * lcm * math.factorial(n - 1) * q ** (n - 1))


def b_closed(n: int, x, _h0: int = 1) -> Fraction:
    """Measure of the n-cycle with adjacent sums >= 2, exactly.

    Supported on [0, inf); grows like the full simplex density for large x.
    """
    if n < 2:
        raise DomainError(f"b_closed requires n >= 2, got {n}")
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    sign = -1 if n % 2 else 1
    active = [i for i in range(2 - n % 2, n // 3 + 1, 2) if _heaviside(p - i * q, _h0)]
    lcm = math.lcm(*active)
    total = 2 * n * sign * sum(lcm // i * _block(n, (n - 3 * i) // 2, p + i * q, p - i * q) for i in active)
    if _heaviside(p, _h0):
        total -= lcm * sign * 2**n * p ** (n - 1)
        total += lcm * _half_binom(n) * p ** (n - 2) * (3 * p + n * q)
    return Fraction(total, 2 * lcm * math.factorial(n - 1) * q ** (n - 1))


def c_closed(n: int, x, _h0: int = 1) -> Fraction:
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
        if not _heaviside(p - i * q, _h0):
            continue
        u, v = p + i * q, p - i * q
        for d, cf in ((1, 1), (0, -2), (-1, 1)):
            m = (n - 3 * i) // 2 + d
            if 0 <= m <= n:
                total += cf * math.comb(n, m) * u**m * v ** (n - m)
    total *= (n + 2) * sign
    if _heaviside(p, _h0):
        total += 2 * sign * _half_binom(n) * p**n
    return Fraction(total, (n + 2) * math.factorial(n) * q**n)


_CLOSED = {
    MeasureKind.A_CYCLIC: a_closed,
    MeasureKind.B_CYCLIC_GE: b_closed,
    MeasureKind.C_LINEAR_GE: c_closed,
}


def closed_measure(kind: MeasureKind, n: int, x, _h0: int = 1) -> Fraction:
    if kind is MeasureKind.F_LINEAR:
        return f_closed(n, x, _h0)
    return _CLOSED[kind](n, x, _h0)


def measure_at(kind: MeasureKind, n: int, x) -> PiecewiseValue:
    """Closed-form evaluation together with the index of the active piece."""
    x = Fraction(x)
    piece = sum(1 for b in piece_boundaries(kind, n) if x >= b)
    return PiecewiseValue(closed_measure(kind, n, x), piece)


# ---------------------------------------------------------------------------
# Exact evaluation through the transform (the symbolic second route)
# ---------------------------------------------------------------------------


def invert_transform(poly: ExpPoly, n_vars: int, x, _h0: int = 1) -> Fraction:
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
        if _heaviside(x + b, _h0):
            total += c * (x + b) ** e / math.factorial(e)
    return total


def f_closed(n: int, x, _h0: int = 1) -> Fraction:
    """Exact f_n(x) via the transform recursion (independent of f_oracle)."""
    if n < 1:
        raise DomainError(f"f_closed requires n >= 1, got {n}")
    return invert_transform(f_tilde_recursive(n), n, x, _h0)


def a_from_transform(n: int, x, _h0: int = 1) -> Fraction:
    return invert_transform(a_tilde(n), n, x, _h0)


def b_from_transform(n: int, x, _h0: int = 1) -> Fraction:
    return invert_transform(b_tilde(n), n, x, _h0)


def c_from_transform(n: int, x, _h0: int = 1) -> Fraction:
    return invert_transform(c_tilde(n), n + 1, x, _h0)


# ---------------------------------------------------------------------------
# Numeric oracle for f_n: grid convolutions + quadrature of the recursion
# ---------------------------------------------------------------------------

_GAUSS_NODES = 12


def _scaled_window_integral(conv_eval, xs: np.ndarray, m: int, nodes: int = _GAUSS_NODES) -> np.ndarray:
    """int_0^1 conv(x/p + 1) p^(m-2) dp for every x in xs, vectorized.

    The integrand is piecewise smooth in p with breakpoints where x/p + 1
    crosses an integer knot of conv, i.e. p = x/(q-1); Gauss-Legendre panels
    are split exactly there so kinks and jumps never sit inside a panel.
    """
    glx, glw = np.polynomial.legendre.leggauss(nodes)
    qs = np.array([q for q in range(-(m + 2), m + 3) if q != 1], dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        cand = xs[None, :] / (qs[:, None] - 1.0)
    cand = np.where(np.isfinite(cand), cand, 0.0)
    cand = np.clip(cand, 0.0, 1.0)
    edges = np.vstack([np.zeros_like(xs), cand, np.ones_like(xs)])
    edges.sort(axis=0)
    total = np.zeros_like(xs)
    for r in range(edges.shape[0] - 1):
        lo, hi = edges[r], edges[r + 1]
        half = (hi - lo) / 2
        mid = (hi + lo) / 2
        if not np.any(half > 0):
            continue
        for t, wgt in zip(glx, glw):
            p = mid + half * t
            ok = p > 0
            p_safe = np.where(ok, p, 1.0)
            vals = conv_eval(xs / p_safe + 1.0) * p_safe ** (m - 2)
            total += np.where(ok, wgt * half * vals, 0.0)
    return total


@lru_cache(maxsize=None)
def _f_grid(m: int, resolution: int):
    """Samples of f_m on a uniform grid of step 1/resolution over [-m-1, m+1].

    Built level by level from the defining recursion: grid convolutions for
    (f_{i-1} * f_{n-i}), then breakpoint-split Gauss quadrature over the
    scaling variable p.  Returns (lo_index, values); grid point j is x = j*h.
    """
    h = 1.0 / resolution
    if m == 0:
        raise ValueError("f_0 is the convolution identity, not a grid function")
    lo = -(m + 1) * resolution
    hi = (m + 1) * resolution
    xs = np.arange(lo, hi + 1) * h
    if m == 1:
        vals = np.where(np.abs(xs) < 1.0, 1.0, 0.0)
        vals[np.isclose(np.abs(xs), 1.0)] = 0.5  # trapezoid weight at the jump
        return lo, vals

    def rect_eval(y):
        return (np.abs(y) <= 1.0).astype(float)

    def grid_eval(q):
        q_lo, q_vals = _f_grid(q, resolution)
        q_xs = (np.arange(len(q_vals)) + q_lo) * h
        if q == 2:
            # f_2 jumps at x = 0; the stored midpoint value is right for
            # trapezoid convolution but direct lookups need one-sided values,
            # so duplicate the node with linear extrapolation from each side
            i0 = -q_lo
            left = 2 * q_vals[i0 - 1] - q_vals[i0 - 2]
            right = 2 * q_vals[i0 + 1] - q_vals[i0 + 2]
            q_xs = np.concatenate([q_xs[:i0], [0.0, 0.0], q_xs[i0 + 1 :]])
            q_vals = np.concatenate([q_vals[:i0], [left, right], q_vals[i0 + 1 :]])
        return lambda y: np.interp(y, q_xs, q_vals, left=0.0, right=0.0)

    # convolution evaluators for (f_{i-1} * f_{m-i}), i = 1..m; f_0 is the
    # identity, and the bare f_1 factor is evaluated analytically (it jumps)
    evaluators = {}
    for i in range(1, m + 1):
        j, k = min(i - 1, m - i), max(i - 1, m - i)
        if (j, k) in evaluators:
            continue
        if j == 0:
            evaluators[(j, k)] = rect_eval if k == 1 else grid_eval(k)
        else:
            lo_j, vj = _f_grid(j, resolution)
            lo_k, vk = _f_grid(k, resolution)
            conv_vals = np.convolve(vj, vk) * h
            conv_xs = (np.arange(len(conv_vals)) + lo_j + lo_k) * h
            evaluators[(j, k)] = (
                lambda y, cx=conv_xs, cv=conv_vals: np.interp(y, cx, cv, left=0.0, right=0.0)
            )

    total = np.zeros_like(xs)
    for i in range(1, m + 1):
        key = (min(i - 1, m - i), max(i - 1, m - i))
        total += _scaled_window_integral(evaluators[key], xs, m)
    if m == 2:
        total[-lo] *= 0.5  # f_2 jumps at x = 0; trapezoid weight needs the midpoint value
    return lo, total


def f_oracle(n: int, x: float, resolution: int = 1024) -> float:
    """Numeric f_n(x) straight from the convolution recursion.

    Accuracy is ~1e-5 absolute at the default resolution for n <= 6, well
    inside the 1e-4 target.  n = 1 returns the rectangle base case.
    """
    if n < 1 or n > 6:
        raise DomainError(f"f_oracle supports 1 <= n <= 6, got {n}")
    lo, vals = _f_grid(n, resolution)
    h = 1.0 / resolution
    xs = (np.arange(len(vals)) + lo) * h
    return float(np.interp(x, xs, vals, left=0.0, right=0.0))


# ---------------------------------------------------------------------------
# Monte Carlo set-sampling oracle
# ---------------------------------------------------------------------------

_MIN_ORACLE_SAMPLES = 10**5
# draws per (v, m) chunk; which draw feeds which variable depends on m, so
# changing this changes every verify-measures number
_ORACLE_CHUNK = 250_000
# columns per counting block; any value gives the same counts, this one keeps
# bound and the pair sums in cache
_COLUMN_BLOCK = 8192


def _constraint_pairs(kind: MeasureKind, n: int) -> list[tuple[int, int]]:
    """The adjacent pairs whose sums the measure bounds, over its variables."""
    if kind is MeasureKind.F_LINEAR:
        return [(i, i + 1) for i in range(n - 1)]
    if kind is MeasureKind.C_LINEAR_GE:
        # interior pairs (x_i, x_{i+1}), 2 <= i <= n-1, of the n+1 chain variables
        return [(i, i + 1) for i in range(1, n - 1)]
    return [(i, (i + 1) % n) for i in range(n)]


def density_oracle(kind: MeasureKind, n: int, x: float, samples: int = 10**6, seed: int = 0) -> DensityEstimate:
    """Monte Carlo estimate of the density-of-sum measure at x.

    Samples the simplex slice {y_i >= 0, sum y_i = S} exactly, with v = n
    variables (n + 1 for C) and S = x + v: a point is v standard
    exponentials e scaled by S / sum(e).  The measure is the slice volume
    S^(v-1)/(v-1)! times the fraction of points whose constrained adjacent
    pairs satisfy y_i + y_j <= 2 (F, A) or >= 2 (B, C), which on the raw
    draws reads e_i + e_j against 2 sum(e) / S.  No smoothing window enters,
    so the estimate is unbiased.  (For F the upper bounds y_i <= 2 follow
    from the pair constraints, since every variable sits in a pair.)

    The (v, m) draw is variable-major, so which draw feeds which variable,
    and so the estimate, depends on _ORACLE_CHUNK.  The column blocks that
    count the hits do not: each column sum adds the same v values in order.
    """
    if n < 2 or n > 6:
        raise DomainError(f"density_oracle supports 2 <= n <= 6, got {n}")
    if samples < _MIN_ORACLE_SAMPLES:
        raise DomainError(f"at least {_MIN_ORACLE_SAMPLES} samples required, got {samples}")
    v = n + 1 if kind is MeasureKind.C_LINEAR_GE else n
    total_sum = x + v
    if total_sum <= 0:
        return DensityEstimate(value=0.0, std_error=1.0 / samples, samples=samples)
    pairs = _constraint_pairs(kind, n)
    compare = np.less_equal if kind in (MeasureKind.F_LINEAR, MeasureKind.A_CYCLIC) else np.greater_equal

    def count(rng, m):
        draws = rng.standard_exponential((v, m))
        hits = 0
        for start in range(0, m, _COLUMN_BLOCK):
            e = draws[:, start : start + _COLUMN_BLOCK]
            bound = e.sum(axis=0)
            bound *= 2.0 / total_sum
            ok = np.ones(e.shape[1], dtype=bool)
            for i, j in pairs:
                ok &= compare(e[i] + e[j], bound)
            hits += int(np.count_nonzero(ok))
        return hits

    hits = _chunked_count(np.random.default_rng(seed), samples, count, _ORACLE_CHUNK)
    volume = float(total_sum) ** (v - 1) / math.factorial(v - 1)
    p_hat = hits / samples
    p_safe = min(max(p_hat, 1.0 / samples), 1.0 - 1.0 / samples)
    return DensityEstimate(
        value=p_hat * volume,
        std_error=volume * math.sqrt(p_safe * (1 - p_safe) / samples),
        samples=samples,
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

    The inclusive-H evaluation is the right-hand limit and the strict-H
    evaluation the left-hand limit; equality at a boundary is continuity of
    the piecewise polynomial there.  The degenerate n = 2 measures genuinely
    jump at x = 0 (the two cyclic constraints collapse into one), so that
    single boundary is asserted to jump rather than to match.
    """
    rep = Report("measure_continuity")
    for kind in MeasureKind:
        for n in range(2, n_max + 1):
            for b in piece_boundaries(kind, n):
                right = closed_measure(kind, n, b, _h0=1)
                left = closed_measure(kind, n, b, _h0=0)
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


def oracle_rows(n_max: int = 5, samples: int = 10**6, seed: int = 42, points: int = 10) -> list[dict]:
    """Closed-form vs Monte Carlo comparison rows for every measure family."""
    rows = []
    for kind in MeasureKind:
        for n in range(2, n_max + 1):
            for idx, x in enumerate(interior_grid(kind, n, points)):
                if kind is MeasureKind.F_LINEAR:
                    closed = f_closed(n, x)
                else:
                    closed = closed_measure(kind, n, x)
                est = density_oracle(kind, n, float(x), samples, seed=seed + 1000 * n + idx)
                z = (est.value - float(closed)) / est.std_error if est.std_error else 0.0
                rows.append(
                    {
                        "kind": kind.value,
                        "n": n,
                        "x": str(x),
                        "closed": float(closed),
                        "oracle": est.value,
                        "std_err": est.std_error,
                        "z": z,
                    }
                )
    return rows


def oracle_report(n_max: int = 5, samples: int = 10**6, seed: int = 42, z_max: float = 4.0) -> tuple[Report, list[dict]]:
    rows = oracle_rows(n_max=n_max, samples=samples, seed=seed)
    rep = Report("measure_oracle")
    worst = max(rows, key=lambda r: abs(r["z"]))
    rep.add(
        "all_z_scores_within_bound",
        all(abs(r["z"]) <= z_max for r in rows),
        {"n_max": n_max, "samples": samples, "seed": seed, "z_max": z_max},
        f"worst |z|={abs(worst['z']):.2f} at kind={worst['kind']} n={worst['n']} x={worst['x']}",
    )
    return rep, rows


def transform_crosscheck_report(n_max: int = 7) -> Report:
    """Closed forms vs exact inversion of the transform-domain series.

    This is an exact, noise-free second route: the same numbers must come out
    of the hand-extracted piecewise polynomials and of termwise inversion of
    the series coefficients.  It pins the implicit-H(x) gating in particular.
    """
    rep = Report("measure_transform_crosscheck")
    pairs = {
        MeasureKind.A_CYCLIC: a_from_transform,
        MeasureKind.B_CYCLIC_GE: b_from_transform,
        MeasureKind.C_LINEAR_GE: c_from_transform,
    }
    for kind, via_transform in pairs.items():
        for n in range(2, n_max + 1):
            grid = interior_grid(kind, n, 8) + [Fraction(b) for b in piece_boundaries(kind, n)]
            ok = all(closed_measure(kind, n, x) == via_transform(n, x) for x in grid)
            rep.add("closed_equals_transform_inversion", ok, {"kind": kind.value, "n": n})
    return rep
