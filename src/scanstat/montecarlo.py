"""Stochastic oracles: minimum-window sampling and the circle-coverage dual.

Every estimate is a pure function of (seed, samples): draws come from the
first child of SeedSequence(seed) in chunks of at most _CHUNK rows, so
results are reproducible bit for bit.  The chunk loop, _chunked_count, is
shared with the measure oracle in `measures`.  Confidence intervals are
Wilson score intervals, which behave correctly near 0 and 1 where the
saturation tests live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exactnum import DomainError

Z_95 = 1.959963984540054  # two-sided 95% normal quantile

_CHUNK = 250_000


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


def _w_batch_from_points(points: np.ndarray, k: int, circular: bool) -> np.ndarray:
    xs = np.sort(np.atleast_2d(points), axis=1)
    n = xs.shape[1]
    w = (xs[:, k - 1 :] - xs[:, : n - k + 1]).min(axis=1)
    if circular:
        wrap = (xs[:, : k - 1] + 1.0 - xs[:, n - k + 1 :]).min(axis=1)
        w = np.minimum(w, wrap)
    return w


def _w_batch(rng, m: int, N: int, k: int, circular: bool) -> np.ndarray:
    return _w_batch_from_points(rng.random((m, N)), k, circular)


def _seeded_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])


def _chunked_count(rng, samples: int, count_chunk):
    """Sum of count_chunk(rng, m) over chunks of m <= _CHUNK draws, `samples` in all."""
    total = 0
    remaining = samples
    while remaining > 0:
        m = min(_CHUNK, remaining)
        remaining -= m
        total = total + count_chunk(rng, m)
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

    def count(rng, m):
        w = _w_batch(rng, m, config.N, config.k, kind == "circular")
        return (w[:, None] <= grid[None, :]).sum(axis=0)

    counts = _chunked_count(_seeded_rng(config.seed), config.samples, count)
    out = []
    for wv, c in zip(grid, counts):
        lo, hi = wilson_interval(int(c), config.samples)
        out.append(CdfEstimate(float(wv), c / config.samples, lo, hi, config.samples))
    return out


# ---------------------------------------------------------------------------
# Coverage dual
# ---------------------------------------------------------------------------


def min_coverage_depth(starts: np.ndarray, arc_len: float) -> np.ndarray:
    """Minimum coverage depth over the circle, per row of arc start points.

    Each row places arcs [u, u + arc_len) on the unit circle.  The depth at
    angle 0 counts wrapping arcs; sweeping the 2N endpoints in angular order
    with +1/-1 events gives the depth on every intermediate segment.  Only
    segments of positive length count (coincident endpoints would otherwise
    produce spurious zero-length dips).
    """
    starts = np.atleast_2d(starts)
    raw_ends = starts + arc_len
    wrapped = raw_ends > 1.0
    ends = np.where(wrapped, raw_ends - 1.0, raw_ends)
    depth0 = wrapped.sum(axis=1)
    positions = np.concatenate([starts, ends], axis=1)
    deltas = np.concatenate(
        [np.ones_like(starts, dtype=np.int64), -np.ones_like(ends, dtype=np.int64)], axis=1
    )
    # stable sort keeps +1 (start) events ahead of -1 at coincident positions
    order = np.argsort(positions, axis=1, kind="stable")
    pos_sorted = np.take_along_axis(positions, order, axis=1)
    running = np.cumsum(np.take_along_axis(deltas, order, axis=1), axis=1)
    seg_len = np.diff(pos_sorted, axis=1, append=pos_sorted[:, :1] + 1.0)
    depth = depth0[:, None] + running
    n_arcs = starts.shape[1]
    return np.where(seg_len > 0, depth, n_arcs + 1).min(axis=1)


def coverage_dual(N: int, k: int, w: float, samples: int, seed: int = 0) -> CdfEstimate:
    """Estimate P(N arcs of length 1-w cover every point >= N+1-k times).

    This coverage probability equals the survival function of the circular
    scan statistic, 1 - P(W_c(k) <= w).
    """
    if not 2 <= k <= N:
        raise DomainError(f"need 2 <= k <= N, got k={k}, N={N}")
    if not 0 < w < 1:
        raise DomainError(f"need 0 < w < 1, got {w}")
    arc_len = 1.0 - w
    need = N + 1 - k

    def count(rng, m):
        return int((min_coverage_depth(rng.random((m, N)), arc_len) >= need).sum())

    hits = _chunked_count(_seeded_rng(seed), samples, count)
    lo, hi = wilson_interval(hits, samples)
    return CdfEstimate(w, hits / samples, lo, hi, samples)
