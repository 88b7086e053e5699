import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scanstat.montecarlo as mc
import scanstat.scanprob as sp
from scanstat.exactnum import DomainError
from scanstat.measures import MeasureKind

F = Fraction


class TestWindowStatistics:
    def test_linear_fixed_points(self):
        assert mc.w_linear([0.1, 0.2, 0.7], 2) == pytest.approx(0.1)

    def test_linear_k_equals_n_is_range(self):
        pts = [0.15, 0.6, 0.3, 0.9]
        assert mc.w_linear(pts, 4) == pytest.approx(0.75)

    def test_circular_wrap_pair(self):
        assert mc.w_circular([0.05, 0.5, 0.95], 2) == pytest.approx(0.1)

    def test_circular_never_exceeds_linear(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            pts = rng.random(7)
            for k in range(2, 8):
                assert mc.w_circular(pts, k) <= mc.w_linear(pts, k) + 1e-15

    def test_invalid_k(self):
        with pytest.raises(DomainError):
            mc.w_linear([0.1, 0.2], 3)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(11)
        pts = rng.random((40, 6))
        lin = mc._w_batch_from_points(pts, 3, circular=False)
        circ = mc._w_batch_from_points(pts, 3, circular=True)
        for row, wl, wc in zip(pts, lin, circ):
            assert wl == pytest.approx(mc.w_linear(row, 3))
            assert wc == pytest.approx(mc.w_circular(row, 3))


class TestEmpiricalCdf:
    def test_deterministic(self):
        cfg = mc.SimConfig(N=5, k=3, samples=20_000, seed=7)
        a = mc.empirical_cdf(cfg, "circular", [0.2, 0.4])
        b = mc.empirical_cdf(cfg, "circular", [0.2, 0.4])
        assert a == b

    def test_single_sample_degenerate(self):
        est = mc.empirical_cdf(mc.SimConfig(3, 2, 1, seed=1), "linear", [0.5])[0]
        assert est.p_hat in (0.0, 1.0)
        assert est.ci_high > est.ci_low  # Wilson interval stays nondegenerate

    def test_matches_exact_formula(self):
        cfg = mc.SimConfig(N=5, k=3, samples=150_000, seed=21)
        est = mc.empirical_cdf(cfg, "circular", [0.3])[0]
        lo, hi = mc.wilson_interval(round(est.p_hat * cfg.samples), cfg.samples, z=4.0)
        assert lo <= float(sp.pc_3(5, F(3, 10)).p) <= hi

    def test_mean_of_min_gap(self):
        # E[W(2)] for N = 3 is 1/8: integral of the survival (1-2w)^3
        cfg = mc.SimConfig(N=3, k=2, samples=200_000, seed=13)
        rng = np.random.default_rng(cfg.seed)
        w = mc._w_batch_from_points(rng.random((cfg.samples, cfg.N)), cfg.k, circular=False)
        se = w.std() / np.sqrt(cfg.samples)
        assert abs(w.mean() - 0.125) <= 4 * se

    def test_spacing_survival(self):
        cfg = mc.SimConfig(N=3, k=2, samples=200_000, seed=17)
        est = mc.empirical_cdf(cfg, "circular", [1 / 6])[0]
        lo, hi = mc.wilson_interval(round(est.p_hat * cfg.samples), cfg.samples, z=4.0)
        assert lo <= 0.75 <= hi

    def test_config_validation(self):
        with pytest.raises(DomainError):
            mc.SimConfig(N=3, k=1, samples=10)
        with pytest.raises(DomainError):
            mc.SimConfig(N=3, k=2, samples=0)


class TestCoverageDepth:
    def test_hand_case(self):
        # two arcs of length 0.5 at 0.0 and 0.5 tile the circle once
        starts = np.array([[0.0, 0.5]])
        assert mc.min_coverage_depth(starts, 0.5)[0] == 1
        # shrink them slightly: a gap appears
        assert mc.min_coverage_depth(starts, 0.49)[0] == 0

    def test_overlapping_arcs(self):
        starts = np.array([[0.0, 0.1, 0.2]])
        assert mc.min_coverage_depth(starts, 0.95)[0] == 2

    def test_full_cover_probability(self):
        est = mc.coverage_dual(3, 3, 0.2, samples=150_000, seed=29)
        target = 1 - float(sp.pc_3(3, F(1, 5)).p)  # 22/25
        lo, hi = mc.wilson_interval(round(est.p_hat * est.samples), est.samples, z=4.0)
        assert lo <= target <= hi

    def test_tiny_arcs_never_cover(self):
        est = mc.coverage_dual(4, 3, 0.999, samples=1_000, seed=1)
        assert est.p_hat == 0.0

    def test_agrees_with_window_sampler(self):
        n, k, w = 4, 3, 0.25
        cov = mc.coverage_dual(n, k, w, samples=120_000, seed=31)
        cdf = mc.empirical_cdf(mc.SimConfig(n, k, 120_000, seed=32), "circular", [w])[0]
        sigma = ((cov.ci_high - cov.ci_low) ** 2 + (cdf.ci_high - cdf.ci_low) ** 2) ** 0.5 / 2
        assert abs(cov.p_hat - (1 - cdf.p_hat)) <= 2 * sigma

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            mc.coverage_dual(3, 3, 0.0, samples=100)
        with pytest.raises(DomainError):
            mc.coverage_dual(3, 7, 0.5, samples=100)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_needs_a_sample(self, samples):
        with pytest.raises(DomainError, match="samples must be >= 1"):
            mc.coverage_dual(3, 3, 0.5, samples=samples)


class TestDensityOracle:
    @pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_x_is_a_domain_error(self, x, monkeypatch):
        monkeypatch.setattr(mc, "_chunked_count", lambda *a: pytest.fail("drew samples"))
        with pytest.raises(DomainError, match="x must be finite"):
            mc.density_oracle(MeasureKind.A_CYCLIC, 3, [0.5, x, -0.5], samples=100_000)

    @pytest.mark.parametrize("x", [1e80, 1e308])
    def test_overflowing_volume_is_a_domain_error_before_drawing(self, x, monkeypatch):
        # (x + 5)^4 overflows a float; nothing may be drawn first
        monkeypatch.setattr(mc, "_chunked_count", lambda *a: pytest.fail("drew samples"))
        with pytest.raises(DomainError, match="slice volume overflows"):
            mc.density_oracle(MeasureKind.A_CYCLIC, 5, [-1.0, x, -2.0], samples=100_000)

    def test_n_range_is_the_oracle_bound(self):
        with pytest.raises(DomainError, match=f"--n-max must be >= 2 and <= {mc.ORACLE_N_MAX}"):
            mc.density_oracle(MeasureKind.A_CYCLIC, mc.ORACLE_N_MAX + 1, [0.0], samples=100_000)


class TestWilson:
    def test_bounds_ordering(self):
        for count, n in [(0, 10), (5, 10), (10, 10), (1, 1_000_000)]:
            lo, hi = mc.wilson_interval(count, n)
            assert 0 <= lo <= count / n <= hi <= 1

    def test_needs_a_trial(self):
        with pytest.raises(DomainError):
            mc.wilson_interval(0, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: mc.empirical_cdf(mc.SimConfig(5, 3, 1_000, seed=-1), "linear", [0.5]),
        lambda: mc.coverage_dual(5, 4, 0.5, 1_000, seed=-1),
        lambda: mc.density_oracle(MeasureKind.A_CYCLIC, 2, [-1.0], samples=100_000, seed=-1),
        lambda: mc.oracle_report(seed=-3000),
        # the smallest negative seed fails too, not only one far below zero
        lambda: mc.oracle_report(seed=-1),
    ],
    ids=["empirical_cdf", "coverage_dual", "density_oracle", "oracle_report_-3000", "oracle_report_-1"],
)
def test_negative_seed_is_a_domain_error(call):
    with pytest.raises(DomainError, match="seed must be >= 0"):
        call()


# not a multiple of the block, so the last block is partial
BLOCKED_SAMPLES = 3 * 4096 + 5


def _monolithic_draw(seed: int, N: int) -> np.ndarray:
    """Every point of a run in one draw from the sampler's seeded generator."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    return rng.random((BLOCKED_SAMPLES, N))


class TestBlockedSweep:
    @pytest.mark.parametrize("block", [mc._ROW_BLOCK, 1000])
    @pytest.mark.parametrize("kind", ["linear", "circular"])
    def test_empirical_cdf_matches_one_monolithic_draw(self, monkeypatch, kind, block):
        monkeypatch.setattr(mc, "_ROW_BLOCK", block)
        cfg = mc.SimConfig(N=8, k=3, samples=BLOCKED_SAMPLES, seed=9)
        grid = [0.05, 0.1, 0.2]
        w = mc._w_batch_from_points(_monolithic_draw(cfg.seed, cfg.N), cfg.k, kind == "circular")
        expected = []
        for wv in grid:
            hits = int((w <= wv).sum())
            lo, hi = mc.wilson_interval(hits, cfg.samples)
            expected.append(mc.CdfEstimate(wv, hits / cfg.samples, lo, hi, cfg.samples))
        assert mc.empirical_cdf(cfg, kind, grid) == expected

    @pytest.mark.parametrize("block", [mc._ROW_BLOCK, 1000])
    def test_coverage_dual_matches_one_monolithic_draw(self, monkeypatch, block):
        monkeypatch.setattr(mc, "_ROW_BLOCK", block)
        N, k, w, seed = 8, 7, 0.6, 4
        depth = mc.min_coverage_depth(_monolithic_draw(seed, N), 1.0 - w)
        hits = int((depth >= N + 1 - k).sum())
        lo, hi = mc.wilson_interval(hits, BLOCKED_SAMPLES)
        expected = mc.CdfEstimate(w, hits / BLOCKED_SAMPLES, lo, hi, BLOCKED_SAMPLES)
        assert mc.coverage_dual(N, k, w, BLOCKED_SAMPLES, seed) == expected

    def test_sweeps_never_hold_more_than_one_block(self, monkeypatch):
        rows = []

        def guard(fn):
            def wrapped(points, *args):
                rows.append(np.atleast_2d(points).shape[0])
                return fn(points, *args)
            return wrapped

        monkeypatch.setattr(mc, "min_coverage_depth", guard(mc.min_coverage_depth))
        monkeypatch.setattr(mc, "_w_batch_from_points", guard(mc._w_batch_from_points))
        mc.coverage_dual(8, 7, 0.6, BLOCKED_SAMPLES, seed=1)
        mc.empirical_cdf(mc.SimConfig(8, 3, BLOCKED_SAMPLES, seed=1), "circular", [0.1])
        assert sum(rows) == 2 * BLOCKED_SAMPLES
        assert max(rows) <= mc._ROW_BLOCK


# the call's own minor page faults, read in a fresh process after numpy is loaded
_FAULT_PROBE = """
import resource
import scanstat.montecarlo as mc
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
{call}
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.parametrize(
    "call",
    [
        "mc.coverage_dual(8, 7, 0.6, 10**6, seed=1)",
        "mc.empirical_cdf(mc.SimConfig(8, 3, 10**6, seed=1), 'circular', [0.05, 0.1, 0.15, 0.2])",
    ],
    ids=["coverage_dual", "empirical_cdf"],
)
def test_a_fresh_call_maps_its_buffers_once(call):
    # buffers allocated afresh for each of the 245 blocks are mapped and
    # unmapped every block: about 47 000 and 30 000 faults for these calls
    src = str(Path(mc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE.format(call=call)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 2_000


# ---------------------------------------------------------------------------
# Bit-identity gate: the comparison-count depth and the column-wise window
# minima against the argsort sweep and the matrix reduction they replaced
# ---------------------------------------------------------------------------


def _sweep_min_coverage_depth(starts, arc_len):
    """Reference: sweep the 2N endpoints in angular order with +1/-1 events."""
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


def _matrix_w_batch(points, k, circular):
    """Reference: reduce the (rows, n-k+1) difference matrix along its short axis."""
    xs = np.sort(np.atleast_2d(points), axis=1)
    n = xs.shape[1]
    w = (xs[:, k - 1 :] - xs[:, : n - k + 1]).min(axis=1)
    if circular:
        wrap = (xs[:, : k - 1] + 1.0 - xs[:, n - k + 1 :]).min(axis=1)
        w = np.minimum(w, wrap)
    return w


GATE_ROWS = 512
GATE_ARCS = [round(0.05 + 0.1 * i, 2) for i in range(10)]  # 0.05 .. 0.95


def _uniform_block(N):
    return np.random.default_rng(1000 + N).random((GATE_ROWS, N))


def _grid_block(N):
    """Points on the j/16 grid, so starts meet ends and raw ends hit 1.0 exactly."""
    return np.random.default_rng(2000 + N).integers(0, 16, (GATE_ROWS, N)) / 16


class TestBitIdentityGate:
    @pytest.mark.parametrize("N", range(2, 17))
    def test_depth_on_uniform_blocks(self, N):
        starts = _uniform_block(N)
        for arc_len in GATE_ARCS:
            assert (mc.min_coverage_depth(starts, arc_len) == _sweep_min_coverage_depth(starts, arc_len)).all()

    @pytest.mark.parametrize("N", range(2, 17))
    def test_depth_on_tie_forced_rows(self, N):
        starts = _grid_block(N)
        for j in range(1, 16):
            assert (mc.min_coverage_depth(starts, j / 16) == _sweep_min_coverage_depth(starts, j / 16)).all()

    def test_depth_with_an_end_exactly_on_one(self):
        # the end 0.5 + 0.5 lands on 1.0; an unwrapped 1.0 would read depth 0 here
        starts = np.array([[0.0, 0.5]])
        assert mc.min_coverage_depth(starts, 0.5)[0] == _sweep_min_coverage_depth(starts, 0.5)[0] == 1

    @pytest.mark.parametrize("N", range(2, 17))
    def test_window_minima(self, N):
        for block in (_uniform_block(N), _grid_block(N)):
            for k in range(2, N + 1):
                for circular in (False, True):
                    assert (mc._w_batch_from_points(block, k, circular) == _matrix_w_batch(block, k, circular)).all()


    @pytest.mark.parametrize("kind", ["linear", "circular"])
    def test_cdf_counts_widths_the_draw_attains(self, kind):
        # grid widths equal to sampled W values tell W <= w from W < w
        cfg = mc.SimConfig(N=8, k=3, samples=BLOCKED_SAMPLES, seed=9)
        w = _matrix_w_batch(_monolithic_draw(cfg.seed, cfg.N), cfg.k, kind == "circular")
        grid = np.sort(w)[::1000]
        hits = (w[:, None] <= grid[None, :]).sum(axis=0)
        assert [e.p_hat for e in mc.empirical_cdf(cfg, kind, grid.tolist())] == list(hits / cfg.samples)


def _brute_min_depth(starts, arc_len):
    """Cover counts at the midpoint of each pair of consecutive event positions,
    in exact arithmetic on the arcs [s, s + arc_len) that the floats describe."""
    arcs = [(F(s), F(s + arc_len)) for s in starts]  # the end as the sampler rounds it
    positions = sorted({a for a, _ in arcs} | {b % 1 for _, b in arcs})
    gaps = list(zip(positions, positions[1:])) + [(positions[-1], positions[0] + 1)]
    probes = [((lo + hi) / 2) % 1 for lo, hi in gaps]
    return min(sum(a <= p < b or a <= p + 1 < b for a, b in arcs) for p in probes)


# a coarse grid, so starts meet ends and raw ends land on 1.0 often
_on_grid = st.integers(0, 7).map(lambda j: j / 8)
_rows = st.one_of(
    st.tuples(st.lists(st.floats(0, 1, exclude_max=True), min_size=1, max_size=9),
              st.floats(0, 1, exclude_min=True, exclude_max=True)),
    st.tuples(st.lists(_on_grid, min_size=1, max_size=9), _on_grid.filter(lambda a: a > 0)),
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_rows)
# the segment [1, 1 + 2^-53) is uncovered, but 1 + 2^-53 rounds to 1, so a
# sweep measuring the wrap segment as first + 1.0 - last reads depth 1 here
@example(([2.0**-53, 0.5], 0.5))
def test_depth_matches_a_brute_force_cover_count(row):
    starts, arc_len = row
    assert mc.min_coverage_depth(np.array([starts]), arc_len)[0] == _brute_min_depth(starts, arc_len)
