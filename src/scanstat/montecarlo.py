"""Stochastic oracles: minimum-window sampling, the circle-coverage dual and
the measure oracle with its report.

This is the only module that imports numpy; the exact layers never load it.
Every estimate is a pure function of (seed, samples), reproducible bit for
bit, and a negative seed is a DomainError.  Every sampler draws whole rows in
order from the first child of SeedSequence(seed), and _chunked_count sweeps
the draw in blocks of rows, so no estimate depends on the block size.  A
call allocates its buffers once, at its first block: _chunked_count refills
one draw buffer in place, and the per-block routines write into the arrays
of the call's _Scratch, so no block allocates anything larger than a row
count of scalars and a call's speed does not depend on what the process
freed before it.
Confidence intervals are Wilson score intervals, which behave correctly near
0 and 1 where the saturation tests live.

The measure oracle makes one draw per call, however many (kind, n) cells it
counts: each sample is ORACLE_N_MAX + 1 = 7 standard exponentials, even when
only n = 2 is asked for, and a cell with v variables reads the first v.  So
every estimate of one call is correlated with every other, and a cell's
estimates do not depend on which other cells were asked for.

The hot loops avoid per-row reductions over short axes: the window minimum
is a running np.minimum over the columns of the row-sorted block,
empirical_cdf counts every grid point with one sort and searchsorted, the
measure oracle counts each grid point by one comparison against a block's
critical sums, and the coverage depth is a count of comparisons rather
than a sort of the arc endpoints.  The minimum depth over the circle is
attained just after an arc end e_j, where it equals #{s_i <= e_j} +
#{e_i > e_j} - #unwrapped (see min_coverage_depth); that costs O(N^2)
comparisons per row, which at the N <= 8 of every caller is about five
times faster than sorting the 2N endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exactnum import DomainError
from .measures import MeasureKind, closed_measure, interior_grid
from .report import Report

Z_95 = 1.959963984540054  # two-sided 95% normal quantile

# rows per block of the row-major samplers; any value gives the same estimates
_ROW_BLOCK = 4096


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise DomainError(f"--seed must be >= 0, got {seed}")


@dataclass(frozen=True)
class SimConfig:
    N: int
    k: int
    samples: int
    seed: int = 0

    def __post_init__(self):
        if not 2 <= self.k <= self.N:
            raise DomainError(f"need 2 <= k <= N, got k={self.k}, N={self.N}")
        if self.samples < 1:
            raise DomainError("samples must be >= 1")
        _check_seed(self.seed)


@dataclass
class CdfEstimate:
    w: float
    p_hat: float
    ci_low: float
    ci_high: float
    samples: int


def wilson_interval(count: int, n: int, z: float = Z_95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion; always brackets count/n."""
    if n < 1:
        raise DomainError("need at least one trial")
    p_hat = count / n
    denom = 1 + z * z / n
    center = (p_hat + z * z / (2 * n)) / denom
    half = z * math.sqrt(p_hat * (1 - p_hat) / n + z * z / (4 * n * n)) / denom
    # the algebraic bounds contain p_hat; guard the float rounding at 0 and 1
    lo = min(max(0.0, center - half), p_hat)
    hi = max(min(1.0, center + half), p_hat)
    return lo, hi


# ---------------------------------------------------------------------------
# Window statistics
# ---------------------------------------------------------------------------


def w_linear(points, k: int) -> float:
    """Minimum width of an interval window containing k of the given points."""
    xs = sorted(points)
    n = len(xs)
    if not 2 <= k <= n:
        raise DomainError(f"need 2 <= k <= len(points), got k={k}, n={n}")
    return min(xs[i + k - 1] - xs[i] for i in range(n - k + 1))


def w_circular(points, k: int) -> float:
    """Minimum width of a circular arc window containing k of the points."""
    xs = sorted(points)
    n = len(xs)
    if not 2 <= k <= n:
        raise DomainError(f"need 2 <= k <= len(points), got k={k}, n={n}")
    best = min(xs[i + k - 1] - xs[i] for i in range(n - k + 1))
    wrap = min(xs[i + k - 1 - n] + 1 - xs[i] for i in range(n - k + 1, n))
    return min(best, wrap)


class _Scratch(dict):
    """The arrays of one sampler call, by name: the first request for a name
    allocates it at the call's first block, which is its largest, and every
    later request returns it cut to that block's shape."""

    def __call__(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        if name not in self:
            self[name] = np.empty(shape, dtype)
        return self[name][tuple(slice(n) for n in shape)]


def _w_batch_from_points(points: np.ndarray, k: int, circular: bool, scratch: _Scratch | None = None) -> np.ndarray:
    """Minimum k-point window width of each row: a running minimum over the
    n-k+1 column differences of the rows, which it sorts in place, and the
    k-1 wrap differences.  The widths and differences live in scratch."""
    xs = np.atleast_2d(points)
    xs.sort(axis=1)
    scratch = _Scratch() if scratch is None else scratch
    m, n = xs.shape
    w = np.subtract(xs[:, k - 1], xs[:, 0], out=scratch("w", (m,)))
    diff = scratch("diff", (m,))
    for i in range(1, n - k + 1):
        np.minimum(w, np.subtract(xs[:, i + k - 1], xs[:, i], out=diff), out=w)
    if circular:
        for i in range(k - 1):
            np.add(xs[:, i], 1.0, out=diff)
            np.minimum(w, np.subtract(diff, xs[:, n - k + 1 + i], out=diff), out=w)
    return w


def _seeded_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])


def _chunked_count(fill, samples: int, width: int, count_block, chunk: int):
    """Sum of count_block(block) over blocks of m <= chunk rows, `samples` rows
    in all: each block is the first m rows of one (chunk, width) buffer, which
    fill(out=...) refills in place, as rng.random and rng.standard_exponential
    do with the values a fresh (m, width) draw would hold."""
    buffer = np.empty((min(chunk, samples), width))
    total = 0
    remaining = samples
    while remaining > 0:
        m = min(chunk, remaining)
        remaining -= m
        block = buffer[:m]
        fill(out=block)
        total = total + count_block(block)
    return total


def empirical_cdf(config: SimConfig, kind: str, w_grid) -> list[CdfEstimate]:
    """One sampling pass; counts W <= w for every grid value at once."""
    if kind not in ("linear", "circular"):
        raise DomainError(f"kind must be 'linear' or 'circular', got {kind!r}")
    widths = sorted(w_grid)
    bad = [w for w in widths if not 0 <= w <= 1]
    if bad:
        raise DomainError(f"w must lie in [0, 1], got {bad[0]}")
    grid = np.asarray([float(w) for w in widths])
    scratch = _Scratch()

    def count(block):
        w = _w_batch_from_points(block, config.k, kind == "circular", scratch)
        w.sort()
        return np.searchsorted(w, grid, side="right")

    counts = _chunked_count(_seeded_rng(config.seed).random, config.samples, config.N, count, _ROW_BLOCK)
    out = []
    for wv, c in zip(grid, counts):
        lo, hi = wilson_interval(int(c), config.samples)
        out.append(CdfEstimate(float(wv), c / config.samples, lo, hi, config.samples))
    return out


# ---------------------------------------------------------------------------
# Coverage dual
# ---------------------------------------------------------------------------


def min_coverage_depth(starts: np.ndarray, arc_len: float, scratch: _Scratch | None = None) -> np.ndarray:
    """Minimum coverage depth over the circle, per row of arc start points.

    Each row places half-open arcs [s, s + arc_len) on the unit circle; an
    end past 1 wraps, and an end landing exactly on 1 wraps to 0.  For a
    point p, [s_i <= p] + [e_i > p] is [arc i covers p] + [arc i does not
    wrap], so the depth at p is

        #{s_i <= p} + #{e_i > p} - #unwrapped.

    The depth is constant between the 2N sorted endpoints and drops only at
    ends, so its minimum over the segments of positive length is attained
    on a segment that begins at an end.  Evaluating the count at p = e_j
    gives the depth on the segment starting there (starts at e_j count, ends
    at e_j do not), so the minimum over the N ends is the minimum over the
    circle.  That is O(N^2) comparisons per row, made column-wise over the
    block; on a 2-CPU host that is faster than an argsort sweep of the
    endpoints below about N = 128.  The ends, wrap flags, columns, depths and
    comparison masks live in scratch (a sampler passes its call's own).
    """
    starts = np.atleast_2d(starts)
    scratch = _Scratch() if scratch is None else scratch
    m, n = starts.shape
    ends = np.add(starts, arc_len, out=scratch("ends", (m, n)))
    wrapped = np.greater_equal(ends, 1.0, out=scratch("wrapped", (m, n), bool))
    # subtracting the flag is ends - 1.0 where an end wraps and ends - 0.0 = ends elsewhere
    np.subtract(ends, wrapped, out=ends)
    unwrapped = n - np.count_nonzero(wrapped, axis=1)
    s_cols = scratch("s_cols", (n, m))
    e_cols = scratch("e_cols", (n, m))
    np.copyto(s_cols, starts.T)
    np.copyto(e_cols, ends.T)
    # depth[j, row] is at most 2n - 1 before the unwrapped arcs come off
    depth = scratch("depth", (n, m), np.min_scalar_type(2 * n))
    depth.fill(0)
    mask = scratch("mask", (n, m), bool)
    for s, e in zip(s_cols, e_cols):
        depth += np.less_equal(s, e_cols, out=mask)
        depth += np.greater(e, e_cols, out=mask)
    return depth.min(axis=0) - unwrapped


def coverage_dual(N: int, k: int, w: float, samples: int, seed: int = 0) -> CdfEstimate:
    """Estimate P(N arcs of length 1-w cover every point >= N+1-k times).

    This coverage probability equals the survival function of the circular
    scan statistic, 1 - P(W_c(k) <= w).
    """
    SimConfig(N, k, samples, seed)
    if not 0 < w < 1:
        raise DomainError(f"need 0 < w < 1, got {w}")
    arc_len = 1.0 - w
    need = N + 1 - k

    scratch = _Scratch()

    def count(block):
        return int(np.count_nonzero(min_coverage_depth(block, arc_len, scratch) >= need))

    hits = _chunked_count(_seeded_rng(seed).random, samples, N, count, _ROW_BLOCK)
    lo, hi = wilson_interval(hits, samples)
    return CdfEstimate(w, hits / samples, lo, hi, samples)


# ---------------------------------------------------------------------------
# Measure oracle
# ---------------------------------------------------------------------------

_MIN_ORACLE_SAMPLES = 10**5
# largest n the measure oracle samples
ORACLE_N_MAX = 6
# rows per block of the oracle's draw, chosen for memory alone: a row holds
# 7 drawn doubles, their transposed copy and 7 per-row vectors of _hits and
# _bounds, about 170 bytes, so 2^15 rows keep 5.3 MiB of buffers for a call
# (2^17 rows kept 21 MiB and counted no faster).
_ORACLE_CHUNK = 32_768


def _check_oracle_args(n_max: int, samples: int, seed: int) -> None:
    """The one check on the oracle's arguments; the messages name the verify-measures options."""
    if not 2 <= n_max <= ORACLE_N_MAX:
        raise DomainError(f"--n-max must be >= 2 and <= {ORACLE_N_MAX}, got {n_max}")
    if samples < _MIN_ORACLE_SAMPLES:
        raise DomainError(f"--samples must be >= {_MIN_ORACLE_SAMPLES}, got {samples}")
    _check_seed(seed)


@dataclass
class DensityEstimate:
    value: float
    std_error: float
    samples: int


def _constraint_pairs(kind: MeasureKind, n: int) -> list[tuple[int, int]]:
    """The adjacent pairs whose sums the measure bounds, over its variables."""
    if kind is MeasureKind.F_LINEAR:
        return [(i, i + 1) for i in range(n - 1)]
    if kind is MeasureKind.C_LINEAR_GE:
        # interior pairs (x_i, x_{i+1}), 2 <= i <= n-1, of the n+1 chain variables
        return [(i, i + 1) for i in range(1, n - 1)]
    return [(i, (i + 1) % n) for i in range(n)]


def _variables(kind: MeasureKind, n: int) -> int:
    """How many variables the measure's simplex slice has: n + 1 for C, n for the rest."""
    return n + 1 if kind is MeasureKind.C_LINEAR_GE else n


def _bounds(cols: np.ndarray, n: int, scratch: _Scratch) -> dict[MeasureKind, np.ndarray]:
    """The pair-sum bound of every measure with cols.shape[0] variables, per column.

    One pass over the adjacent pairs: F's bound is the running max of its n-1
    chain pairs, A's that max with the wrap pair, B's the running min of all n
    cyclic pairs, and C's the running min of its interior pairs (+inf, so no
    constraint, when it has none).  The bounds and pair sums live in scratch.
    """
    m = cols.shape[1]
    pair = scratch("pair", (m,))
    if cols.shape[0] == _variables(MeasureKind.C_LINEAR_GE, n):
        c_bound = scratch("c_bound", (m,))
        c_bound.fill(np.inf)
        for i, j in _constraint_pairs(MeasureKind.C_LINEAR_GE, n):
            np.minimum(c_bound, np.add(cols[i], cols[j], out=pair), out=c_bound)
        return {MeasureKind.C_LINEAR_GE: c_bound}
    f_bound = scratch("f_bound", (m,))
    b_bound = scratch("b_bound", (m,))
    f_bound.fill(0.0)
    b_bound.fill(np.inf)
    for i, j in _constraint_pairs(MeasureKind.F_LINEAR, n):
        np.add(cols[i], cols[j], out=pair)
        np.maximum(f_bound, pair, out=f_bound)
        np.minimum(b_bound, pair, out=b_bound)
    wrap = np.add(cols[n - 1], cols[0], out=pair)
    np.minimum(b_bound, wrap, out=b_bound)
    a_bound = np.maximum(f_bound, wrap, out=scratch("a_bound", (m,)))
    return {MeasureKind.F_LINEAR: f_bound, MeasureKind.A_CYCLIC: a_bound, MeasureKind.B_CYCLIC_GE: b_bound}


def _estimate(hits: int, volume: float, samples: int) -> DensityEstimate:
    p_safe = min(max(hits / samples, 1.0 / samples), 1.0 - 1.0 / samples)
    std_error = volume * math.sqrt(p_safe * (1 - p_safe) / samples) if volume else 1.0 / samples
    return DensityEstimate(value=hits / samples * volume, std_error=std_error, samples=samples)


def _hits(cols: np.ndarray, n: int, sums: dict[MeasureKind, np.ndarray], scratch: _Scratch) -> list[int]:
    """How many columns of cols are hits at each slice sum of each kind in sums,
    every kind having cols.shape[0] variables; the total, bounds, critical
    sums and masks live in scratch."""
    m = cols.shape[1]
    total = np.sum(cols, axis=0, out=scratch("total", (m,)))
    total *= 2.0
    bounds = _bounds(cols, n, scratch)
    critical = scratch("critical", (m,))
    mask = scratch("mask", (m,), bool)
    hits = []
    for kind, s in sums.items():
        np.divide(total, bounds[kind], out=critical)
        compare = np.greater_equal if kind in (MeasureKind.F_LINEAR, MeasureKind.A_CYCLIC) else np.less_equal
        hits.extend(np.count_nonzero(compare(critical, t, out=mask)) for t in s)
    return hits


def _oracle(grids: dict[tuple[MeasureKind, int], list], samples: int, seed: int) -> dict[tuple[MeasureKind, int], list[DensityEstimate]]:
    """Estimates for every x of every (kind, n) cell in grids ((kind, n) -> xs),
    all counted from one draw seeded with seed.

    Every sample is ORACLE_N_MAX + 1 standard exponentials, whatever cells
    are asked for, and a cell with v variables reads the first v of them, so
    a cell's estimates depend only on (kind, n, xs, samples, seed) and every
    cell of one call shares the draw.
    """
    cells = {}  # (n, v) -> kind -> slice sums S = x + v, so each (n, v) builds its bounds once
    volumes = {}
    for (kind, n), xs in grids.items():
        v = _variables(kind, n)
        s = np.asarray([float(x) + v for x in xs])
        if not np.isfinite(s).all():
            raise DomainError(f"x must be finite, got {s[~np.isfinite(s)][0]}")
        try:
            # S <= 0 leaves an empty slice of volume 0
            volumes[kind, n] = [max(t, 0.0) ** (v - 1) / math.factorial(v - 1) for t in s.tolist()]
        except OverflowError:
            raise DomainError(f"x={s.max() - v} is too large: the slice volume overflows a float") from None
        cells.setdefault((n, v), {})[kind] = s

    scratch = _Scratch()

    def count(block):
        cols = scratch("cols", block.shape[::-1])
        np.copyto(cols, block.T)
        return np.asarray([h for (n, v), sums in cells.items() for h in _hits(cols[:v], n, sums, scratch)])

    draw = _seeded_rng(seed).standard_exponential
    hits = iter(_chunked_count(draw, samples, ORACLE_N_MAX + 1, count, _ORACLE_CHUNK).tolist())
    return {(kind, n): [_estimate(next(hits), volume, samples) for volume in volumes[kind, n]]
            for (n, _), sums in cells.items() for kind in sums}


def density_oracle(kind: MeasureKind, n: int, xs, samples: int = 10**6, seed: int = 0) -> list[DensityEstimate]:
    """Monte Carlo estimates of the density-of-sum measure, one per x in xs.

    Samples the simplex slice {y_i >= 0, sum y_i = S} exactly, with v = n
    variables (n + 1 for C) and S = x + v: a point is v standard
    exponentials e scaled by S / sum(e).  The measure is the slice volume
    S^(v-1)/(v-1)! times the fraction of points whose constrained adjacent
    pairs satisfy y_i + y_j <= 2 (F, A) or >= 2 (B, C).  On the raw draws
    that reads S <= 2 sum(e) / max(e_i + e_j) (F, A) or S >= 2 sum(e) /
    min(e_i + e_j) (B, C); C at n = 2 has no pair, so every point is a hit.
    So one draw serves every x: each S is counted by one comparison against
    the critical sums of a block.  No smoothing window enters, so each
    estimate is unbiased, and the estimates of one call share the draw and
    are correlated.  (For F the upper bounds y_i <= 2 follow from the pair
    constraints, since every variable sits in a pair.)

    This is the one-cell case of oracle_rows' draw: each sample is still
    ORACLE_N_MAX + 1 exponentials, of which the cell reads the first v, so
    the estimates equal that cell's oracle_rows estimates at the same seed.
    """
    _check_oracle_args(n, samples, seed)
    return _oracle({(kind, n): xs}, samples, seed)[kind, n]


def oracle_rows(n_max: int = 5, samples: int = 10**6, seed: int = 42, points: int = 10) -> list[dict]:
    """Closed-form vs Monte Carlo comparison rows for every measure family.

    Every (kind, n) cell is counted from one draw seeded with seed: each
    sample is ORACLE_N_MAX + 1 exponentials, even at n_max = 2, and a cell
    with v variables reads the first v.  So every row of one call is
    correlated with every other, and a larger n_max adds rows and changes
    none.
    """
    _check_oracle_args(n_max, samples, seed)
    grids = {(kind, n): interior_grid(kind, n, points) for kind in MeasureKind for n in range(2, n_max + 1)}
    estimates = _oracle(grids, samples, seed)
    rows = []
    for (kind, n), xs in grids.items():
        for x, est in zip(xs, estimates[kind, n]):
            closed = float(closed_measure(kind, n, x))
            rows.append(
                {
                    "kind": kind.value,
                    "n": n,
                    "x": str(x),
                    "closed": closed,
                    "oracle": est.value,
                    "std_err": est.std_error,
                    "z": (est.value - closed) / est.std_error,
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
