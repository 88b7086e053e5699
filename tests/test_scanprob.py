import math
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scanstat.cli as cli
import scanstat.scanprob as sp
from scanstat.exactnum import DomainError
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
        # the arc-containment anchor keeps the full alternating sum, so it
        # stays valid past w = 1/2 and corroborates the N = 3 formula there
        for w in (F(11, 20), F(3, 5), F(5, 8)):
            assert sp.pc_3(3, w).p == sp.anchor_n3(ScanKind.PC_3, w)


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
    # 2N/3); a loop that walks up to it would call math.comb ~10**9 times
    calls = []

    def counted(n, m):
        calls.append(m)
        assert len(calls) < 100, "loop ran past the binomial support"
        return math.comb(n, m)

    monkeypatch.setattr(sp, "math", types.SimpleNamespace(**{**vars(math), "comb": counted}))
    w = F(1, 10**9)
    assert sp.pc_3(10, w).p == sp.measure_to_probability(ScanKind.PC_3, 10, w).p
    assert sp.p_lin_3(10, w).p == sp.measure_to_probability(ScanKind.P_3, 10, w).p
    assert calls  # the counter saw the kernel's binomials


def test_p_lin_3_saturates_at_the_domain_edge_for_n4():
    # the threshold 2/(N-2) is 1 at N = 4: w = 1 saturates, a width just below it sums
    assert sp.p_lin_3(4, 1).regime is Regime.SATURATED
    below = sp.p_lin_3(4, 1 - F(1, 10**12))
    assert below.regime is Regime.BELOW_THRESHOLD and below.active_terms > 0 and below.p < 1


@pytest.mark.parametrize("kind, active_terms", [(ScanKind.PC_NM1, 1), (ScanKind.PC_3, 0), (ScanKind.P_3, 0)])
def test_zero_width(kind, active_terms):
    # pc-nm1 sums at w = 0 (its piece variable 1 - w is 1), where only the constant term survives;
    # the three-point kinds answer w = 0 without summing
    for N in (3, 4, 9, 40):
        v = sp._cdf(kind, N, 0)
        assert (v.p, v.survival, v.regime, v.active_terms) == (0, 1, Regime.BELOW_THRESHOLD, active_terms)


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
                    assert sp._cdf(kind, N, w).p == sp.measure_to_probability(kind, N, w).p

    def test_regime_enforced(self):
        with pytest.raises(DomainError):
            sp.measure_to_probability(ScanKind.PC_3, 10, F(1, 2))
        with pytest.raises(DomainError):
            sp.measure_to_probability(ScanKind.PC_NM1, 5, F(0))


class TestBaselines:
    """The classical N = 3 anchors: sample range, minimum circular spacing, arc containment."""

    def test_values(self):
        assert sp.anchor_n3(ScanKind.P_3, F(1, 2)) == F(1, 2)
        assert sp.anchor_n3(ScanKind.PC_NM1, F(1, 6)) == F(3, 4)
        assert sp.anchor_n3(ScanKind.PC_3, F(1, 5)) == F(3, 25)

    def test_min_gap_circular_is_pc_nm1_at_n3(self):
        for j in range(1, 10):
            w = F(j, 30)
            assert sp.anchor_n3(ScanKind.PC_NM1, w) == sp.pc_nm1(3, w).p

    def test_each_anchor_is_its_kernel_on_all_of_the_unit_interval(self):
        # every a/b with b < 30, the saturated widths and both ends included
        widths = sorted({F(a, b) for b in range(1, 30) for a in range(b + 1)})
        for kind in ScanKind:
            assert [sp.anchor_n3(kind, w) for w in widths] == [sp._cdf(kind, 3, w).p for w in widths], kind

    def test_width_outside_the_unit_interval(self):
        with pytest.raises(DomainError, match="w must lie in"):
            sp.anchor_n3(ScanKind.PC_3, F(3, 2))


class TestProperties:
    KINDS = list(ScanKind)
    GRID = [F(j, 21) for j in range(1, 21)]

    def test_range_zero_one(self):
        for kind in self.KINDS:
            for N in (3, 7, 15, 40):
                for w in self.GRID:
                    p = sp._cdf(kind, N, w).p
                    assert 0 <= p <= 1

    def test_monotone_in_w(self):
        for kind in self.KINDS:
            for N in (3, 6, 13, 40):
                ps = [sp._cdf(kind, N, w).p for w in self.GRID]
                assert all(a <= b for a, b in zip(ps, ps[1:]))

    def test_monotone_in_n_fixed_k(self):
        # W(3)/W_c(3) can only shrink when points are added
        for kind in (ScanKind.PC_3, ScanKind.P_3):
            for w in self.GRID:
                ps = [sp._cdf(kind, N, w).p for N in range(3, 16)]
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
                    if 0 < sp._piece(kind, F(1, j)) < sp.threshold(kind, N):
                        assert sp.floor_boundary_gap(kind, N, j) == 0, (kind, N, j)


# Hypothesis properties over rational widths with denominators up to 10^12, drawn
# up to 5/4 of the threshold so most land below it.  Derandomized, so every run
# checks the same examples; the three tests together take about 1 s.
KERNEL_PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)


@st.composite
def _large_denominator(draw, top):
    b = draw(st.integers(min_value=10**6, max_value=10**12))
    return F(draw(st.integers(min_value=1, max_value=math.floor(top * b))), b)


def _widths(kind, N):
    top = min(F(1), sp.threshold(kind, N) * F(5, 4))
    return st.one_of(st.fractions(min_value=0, max_value=top, max_denominator=10**12), _large_denominator(top))


@st.composite
def _cells(draw, widths=1):
    kind = draw(st.sampled_from(list(ScanKind)))
    N = draw(st.integers(min_value=3, max_value=40))
    return (kind, N, *(draw(_widths(kind, N)) for _ in range(widths)))


@KERNEL_PROPERTY
@given(_cells())
def test_property_probability_and_survival(cell):
    kind, N, w = cell
    value = sp._cdf(kind, N, w)
    assert 0 <= value.p <= 1
    assert value.p + value.survival == 1


@KERNEL_PROPERTY
@given(_cells(widths=2))
def test_property_monotone_in_w(cell):
    kind, N, w1, w2 = cell
    lo, hi = sorted((w1, w2))
    assert sp._cdf(kind, N, lo).p <= sp._cdf(kind, N, hi).p


@KERNEL_PROPERTY
@given(st.integers(min_value=3, max_value=40).flatmap(lambda N: st.tuples(st.just(N), _widths(ScanKind.P_3, N))))
def test_property_circular_dominates_linear(cell):
    N, w = cell
    assert sp.pc_3(N, w).p >= sp.p_lin_3(N, w).p


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

    def test_each_entry_point_checks_n_and_w_once(self, monkeypatch):
        checks = []
        real = ScanQuery.__post_init__
        monkeypatch.setattr(ScanQuery, "__post_init__", lambda q: checks.append(q) or real(q))
        w = F(1, 5)
        for call in (
            lambda: sp.evaluate(ScanQuery(ScanKind.P_3, 5, w)),
            lambda: sp.pc_nm1(5, w),
            lambda: sp.pc_3(5, w),
            lambda: sp.p_lin_3(5, w),
            lambda: sp.measure_to_probability(ScanKind.PC_3, 5, w),
            lambda: sp.tabulate(ScanKind.PC_3, [5], [w]),
            lambda: sp.anchor_n3(ScanKind.PC_3, w),
            lambda: sp.floor_boundary_gap(ScanKind.PC_3, 5, 7),
        ):
            checks.clear()
            call()
            assert len(checks) == 1
        with pytest.raises(DomainError, match="N must be >= 3"):
            sp.floor_boundary_gap(ScanKind.P_3, 2, 3)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: sp.evaluate(ScanQuery(ScanKind.PC_NM1, 5.0, F(1, 10))), "N must be an int, got 5.0"),
            (lambda: sp.pc_3(5.0, F(1, 10)), "N must be an int, got 5.0"),
            (lambda: sp.p_lin_3(5.5, F(1, 10)), "N must be an int, got 5.5"),
            (lambda: sp.measure_to_probability(ScanKind.P_3, 5.5, F(1, 10)), "N must be an int, got 5.5"),
            (lambda: sp.pc_nm1(5, float("nan")), "w must be an exact rational, got nan"),
            (lambda: sp.evaluate(ScanQuery(ScanKind.PC_3, 5, float("inf"))), "w must be an exact rational, got inf"),
            (lambda: sp.pc_nm1(5, None), "w must be an exact rational, got None"),
            (lambda: sp.measure_to_probability(ScanKind.PC_3, 5, "1/0"), "w must be an exact rational, got '1/0'"),
            (lambda: sp.anchor_n3(ScanKind.P_3, float("nan")), "w must be an exact rational, got nan"),
            (lambda: sp.anchor_n3(ScanKind.PC_NM1, None), "w must be an exact rational, got None"),
            (lambda: sp.floor_boundary_gap(ScanKind.PC_3, 5, 0), "junction index j must be >= 2, got 0"),
            (lambda: sp.floor_boundary_gap(ScanKind.PC_NM1, 5, 1), "junction index j must be >= 2, got 1"),
            (lambda: sp.pc_3(5, 0.1), "w must be an exact rational, got 0.1"),
            (lambda: sp.evaluate(ScanQuery(ScanKind.P_3, 5, np.float64(0.1))), "w must be an exact rational, got 0.1"),
            (lambda: sp.measure_to_probability(ScanKind.PC_NM1, 5, 0.5), "w must be an exact rational, got 0.5"),
        ],
        ids=["evaluate_float_N", "pc_3_float_N", "p_lin_3_fractional_N", "measure_fractional_N", "pc_nm1_nan_w",
             "evaluate_inf_w", "pc_nm1_none_w", "measure_zero_denominator_w", "anchor_nan_w", "anchor_none_w",
             "gap_j0", "gap_j1", "pc_3_float_w", "evaluate_numpy_float_w", "measure_dyadic_float_w"],
    )
    def test_unusable_input_is_one_domain_error(self, call, message):
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == message

    @pytest.mark.parametrize("N", [2, 1, 0])
    @pytest.mark.parametrize("kind", list(ScanKind))
    def test_threshold_rejects_n_below_3(self, kind, N):
        with pytest.raises(DomainError, match=f"^N must be >= 3, got {N}$"):
            sp.threshold(kind, N)

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
