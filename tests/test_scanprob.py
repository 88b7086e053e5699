import math
from fractions import Fraction

import pytest

import scanstat.cli as cli
import scanstat.scanprob as sp
from scanstat.exactnum import DomainError, binom_ext
from scanstat.scanprob import Regime, ScanKind, ScanQuery

F = Fraction


class TestCircularNearComplete:
    def test_matches_min_gap_survival(self):
        # 1 - P_c(2; 3, w) = (1 - 3w)^2 for w <= 1/3
        for w in (F(1, 10), F(1, 6), F(1, 4), F(3, 10)):
            assert sp.pc_nm1(3, w).p == 1 - (1 - 3 * w) ** 2

    def test_saturation(self):
        v = sp.pc_nm1(5, F(7, 10))
        assert v.p == 1 and v.regime is Regime.SATURATED

    def test_overlap_with_three_point_window(self):
        for j in range(1, 21):
            w = F(j, 42)  # spans (0, 1/2)
            assert sp.pc_nm1(4, w).p == sp.pc_3(4, w).p

    def test_edge_values(self):
        assert sp.pc_nm1(6, 0).p == 0
        assert sp.pc_nm1(6, 1).p == 1

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sp.pc_nm1(2, F(1, 10))
        with pytest.raises(DomainError):
            sp.pc_nm1(5, F(3, 2))


class TestCircularThreePoint:
    def test_small_w_is_arc_containment(self):
        for w in (F(1, 10), F(1, 5), F(2, 5)):
            assert sp.pc_3(3, w).p == 3 * w**2

    def test_large_w_piece(self):
        for w in (F(11, 20), F(3, 5)):
            assert sp.pc_3(3, w).p == 1 - (2 - 3 * w) ** 2

    def test_n4_value(self):
        assert sp.pc_3(4, F(1, 4)).p == F(1, 2)

    def test_saturation(self):
        v = sp.pc_3(10, F(1, 5))
        assert v.p == 1 and v.regime is Regime.SATURATED

    def test_hand_value_n5(self):
        assert sp.pc_3(5, F(3, 10)).p == F(189, 200)

    def test_stevens_coverage_matches_beyond_half(self):
        # the arc-containment baseline keeps the full alternating sum, so it
        # stays valid past w = 1/2 and corroborates the N = 3 formula there
        for w in (F(11, 20), F(3, 5), F(5, 8)):
            assert sp.pc_3(3, w).p == sp.arc_containment_cdf(3, w)


class TestLinearThreePoint:
    def test_is_range_cdf_at_n3(self):
        for w in (F(1, 4), F(1, 2), F(3, 5), F(9, 10)):
            assert sp.p_lin_3(3, w).p == 3 * w**2 - 2 * w**3

    def test_spec_values(self):
        assert sp.p_lin_3(3, F(1, 2)).p == F(1, 2)
        assert sp.p_lin_3(3, F(3, 5)).p == F(81, 125)

    def test_saturation(self):
        v = sp.p_lin_3(6, F(1, 2))
        assert v.p == 1 and v.regime is Regime.SATURATED

    def test_hand_value_n5(self):
        assert sp.p_lin_3(5, F(1, 3)).p == F(74, 81)

    def test_w_one_below_threshold_still_one(self):
        # N = 3: the threshold 2/(N-2) = 2 exceeds 1, so w = 1 goes through
        # the formula and must still come out exactly 1
        v = sp.p_lin_3(3, 1)
        assert v.p == 1 and v.regime is Regime.BELOW_THRESHOLD


def test_three_point_loops_stop_at_binomial_support(monkeypatch):
    # floor(1/w) = 10**9 lies far past the last nonzero binomial (p about
    # 2N/3); a loop that walks up to it would call binom_ext ~10**9 times
    calls = []

    def counted(n, m):
        calls.append(m)
        assert len(calls) < 100, "loop ran past the binomial support"
        return binom_ext(n, m)

    monkeypatch.setattr(sp, "binom_ext", counted)
    w = F(1, 10**9)
    assert sp.pc_3(10, w).p == sp.measure_to_probability(ScanKind.PC_3, 10, w).p
    assert sp.p_lin_3(10, w).p == sp.measure_to_probability(ScanKind.P_3, 10, w).p


class TestThresholdSaturationContinuity:
    def test_formulas_equal_one_at_threshold(self):
        # evaluate the raw sums AT the threshold (bypassing the regime branch)
        for N in range(4, 13):
            w = 1 - F(2, N)
            terms = sp._pc_nm1_terms(N, w, math.floor(1 / (1 - w)))
            assert sum(terms) == 0, f"pc_nm1 N={N}"
            w = F(2, N)
            terms = sp._pc_3_terms(N, w, math.floor(1 / w))
            assert (-1) ** (N - 1) * sum(terms) == 0, f"pc_3 N={N}"
            w = F(2, N - 2)
            if w <= 1:
                terms = sp._p_lin_3_terms(N, w, math.floor(1 / w) + 1)
                assert (-1) ** (N - 1) * sum(terms) == 0, f"p_lin_3 N={N}"


class TestMeasurePathway:
    def test_spec_examples(self):
        assert sp.measure_to_probability(ScanKind.PC_NM1, 3, F(1, 6)).p == sp.pc_nm1(3, F(1, 6)).p == F(3, 4)
        assert sp.measure_to_probability(ScanKind.PC_3, 4, F(1, 4)).p == F(1, 2)
        assert sp.measure_to_probability(ScanKind.P_3, 3, F(1, 2)).p == F(1, 2)

    def test_equivalence_grid(self):
        for kind in ScanKind:
            for N in (3, 5, 8):
                thr = sp.threshold(kind, N)
                upper = min(thr, F(1))
                for j in range(1, 11):
                    w = upper * F(j, 11)
                    if not 0 < w < thr:
                        continue
                    assert sp._EVALUATORS[kind](N, w).p == sp.measure_to_probability(kind, N, w).p

    def test_regime_enforced(self):
        with pytest.raises(DomainError):
            sp.measure_to_probability(ScanKind.PC_3, 10, F(1, 2))
        with pytest.raises(DomainError):
            sp.measure_to_probability(ScanKind.PC_NM1, 5, F(0))


class TestBaselines:
    def test_values(self):
        assert sp.baseline_cdf("range_linear", 3, F(1, 2)) == F(1, 2)
        assert sp.baseline_cdf("min_gap_circular", 3, F(1, 6)) == F(3, 4)
        assert sp.baseline_cdf("arc_containment", 3, F(1, 5)) == F(3, 25)
        assert sp.baseline_cdf("min_gap_linear", 4, F(1, 3)) == 1

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            sp.baseline_cdf("nope", 3, F(1, 2))

    def test_min_gap_circular_is_pc_nm1_at_n3(self):
        for j in range(1, 10):
            w = F(j, 30)
            assert sp.min_gap_circular_cdf(3, w) == sp.pc_nm1(3, w).p


class TestProperties:
    KINDS = list(ScanKind)
    GRID = [F(j, 21) for j in range(1, 21)]

    def test_range_zero_one(self):
        for kind in self.KINDS:
            for N in (3, 7, 15, 40):
                for w in self.GRID:
                    p = sp._EVALUATORS[kind](N, w).p
                    assert 0 <= p <= 1

    def test_monotone_in_w(self):
        for kind in self.KINDS:
            for N in (3, 6, 13, 40):
                ps = [sp._EVALUATORS[kind](N, w).p for w in self.GRID]
                assert all(a <= b for a, b in zip(ps, ps[1:]))

    def test_monotone_in_n_fixed_k(self):
        # W(3)/W_c(3) can only shrink when points are added
        for kind in (ScanKind.PC_3, ScanKind.P_3):
            for w in self.GRID:
                ps = [sp._EVALUATORS[kind](N, w).p for N in range(3, 16)]
                assert all(a <= b for a, b in zip(ps, ps[1:]))

    def test_near_complete_window_decreases_in_n(self):
        # here k = N - 1 grows with N, which makes the event harder: the
        # CDF is non-increasing in N (counterexample to "nondecreasing":
        # P_c(2;3,1/4) = 15/16 > P_c(3;4,1/4) = 1/2)
        assert sp.pc_nm1(3, F(1, 4)).p == F(15, 16)
        assert sp.pc_nm1(4, F(1, 4)).p == F(1, 2)
        for w in self.GRID:
            ps = [sp.pc_nm1(N, w).p for N in range(3, 16)]
            assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_circular_dominates_linear(self):
        for N in (3, 5, 9, 20):
            for w in self.GRID:
                assert sp.pc_3(N, w).p >= sp.p_lin_3(N, w).p

    def test_piece_boundary_continuity(self):
        for kind in self.KINDS:
            for N in (3, 5, 8, 12):
                for j in range(2, 2 * N):
                    try:
                        gap = sp.floor_boundary_gap(kind, N, j)
                    except DomainError:
                        continue
                    assert gap == 0, (kind, N, j)


class TestTabulateAndQuery:
    def test_table_matches_range_cdf(self):
        grid = [F(j, 10) for j in range(1, 10)]
        rows = sp.tabulate(ScanKind.P_3, [3], grid)
        for row, w in zip(rows, grid):
            assert row["p_exact"] == str(3 * w**2 - 2 * w**3)

    def test_saturated_row(self):
        rows = sp.tabulate(ScanKind.PC_3, [10], [F(1, 5)])
        assert rows[0]["regime"] == "saturated"

    def test_empty_grid(self):
        assert sp.tabulate(ScanKind.P_3, [], []) == []
        assert sp.tabulate(ScanKind.P_3, [3], []) == []

    def test_bad_row_marked(self, capsys):
        # a bad width is a domain error, never a row: the CLI exits 2 and writes no NaN
        with pytest.raises(DomainError, match="w must lie"):
            sp.tabulate(ScanKind.P_3, [3], [F(1, 2), F(3, 2)])
        assert cli.main(["table", "--stat", "p-3", "--N", "3", "--w", "3/2", "--format", "json"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: w must lie") and out.err.count("\n") == 1

    def test_query_validation(self):
        q = ScanQuery(ScanKind.P_3, 3, F(1, 2))
        assert sp.evaluate(q).p == F(1, 2)
        with pytest.raises(DomainError):
            ScanQuery(ScanKind.P_3, 2, F(1, 2))

    def test_active_terms_counted(self):
        v = sp.pc_3(5, F(3, 10))
        assert v.active_terms == 2  # (2-Nw)^4 and the single p=3 term

    def test_float_is_rounded_exact_deep_in_cancellation(self):
        # the alternating sum at N = 120, w = 1/12000 cancels far beyond
        # float64 (a float64 run of the same terms gave about -1.05e20); the
        # reported float is the exact value rounded once
        (row,) = sp.tabulate(ScanKind.PC_3, [120], [F(1, 12000)])
        assert 0 <= row["p_float"] <= 1
        assert row["p_float"] == float(F(row["p_exact"]))
