from fractions import Fraction

import numpy as np
import pytest

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
        lambda: mc.density_oracle(MeasureKind.A_CYCLIC, 2, -1.0, samples=100_000, seed=-1),
        lambda: mc.oracle_report(seed=-3000),
        # the oracle cells offset the seed by 1000 n + idx, so -1 must fail before that
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
