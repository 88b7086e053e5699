from fractions import Fraction

import numpy as np
import pytest

import scanstat.measures as ms
from scanstat.exactnum import DomainError
from scanstat.measures import MeasureKind

F = Fraction


class TestCycleUpperBound:
    def test_a2_values(self):
        assert ms.a_closed(2, -1) == 1
        assert ms.a_closed(2, 1) == 0
        # x + 2 on (-2, 0), zero outside
        for x in (F(-3, 2), F(-1, 2), F(-199, 100)):
            assert ms.a_closed(2, x) == x + 2
        assert ms.a_closed(2, F(-5, 2)) == 0

    def test_a2_equals_f2_on_support(self):
        for j in range(1, 20):
            x = -2 + F(j, 10)
            assert ms.a_closed(2, x) == ms.f_closed(2, x)

    def test_a3_slack_region_is_simplex(self):
        # below x = -1 the cyclic constraints cannot bind: full simplex slice
        for x in (F(-5, 2), F(-3, 2), F(-9, 8)):
            assert ms.a_closed(3, x) == (x + 3) ** 2 / 2
        assert ms.a_closed(3, F(-3, 2)) == F(9, 8)

    def test_a_support(self):
        for n in range(2, 7):
            assert ms.a_closed(n, F(1, 3)) == 0
            assert ms.a_closed(n, n + F(1, 2)) == 0
            assert ms.a_closed(n, -n - F(1, 7)) == 0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            ms.a_closed(1, 0)


class TestCycleLowerBound:
    def test_b2_values(self):
        assert ms.b_closed(2, 1) == 3
        assert ms.b_closed(2, F(-1, 2)) == 0
        assert ms.b_closed(2, F(7, 3)) == F(7, 3) + 2

    def test_b3_direct_geometry(self):
        # 2x^2 on (0,1); at x=1 the region is half of the [0,2]^2 square slice
        assert ms.b_closed(3, F(1, 2)) == F(1, 2)
        assert ms.b_closed(3, 1) == 2
        assert ms.b_closed(3, 2) == 8 - F(3, 2)

    def test_b4_value(self):
        assert ms.b_closed(4, F(3, 2)) == F(81, 16)

    def test_b_zero_below_zero(self):
        for n in range(2, 7):
            assert ms.b_closed(n, F(-1, 9)) == 0
            assert ms.b_closed(n, -3) == 0


class TestOpenChain:
    def test_c2_is_free_simplex(self):
        # no interior pairs exist for n = 2: three free variables
        for x in (F(1), F(-2), F(5, 2)):
            assert ms.c_closed(2, x) == (x + 3) ** 2 / 2
        assert ms.c_closed(2, 1) == 8

    def test_c3_direct_geometry(self):
        # (x+2)^2 (x+8) / 6 for x >= -2: hand-computed via the
        # 4-variable slice with the single interior constraint
        assert ms.c_closed(3, 0) == F(16, 3)
        for x in (F(-1), F(1, 2), F(3)):
            assert ms.c_closed(3, x) == (x + 2) ** 2 * (x + 8) / 6

    def test_c_support(self):
        assert ms.c_closed(2, F(-31, 10)) == 0
        assert ms.c_closed(3, F(-21, 10)) == 0  # odd n: support starts at -2
        assert ms.c_closed(4, F(-29, 10)) > 0  # even n: support starts at -3
        for n in range(2, 7):
            assert ms.c_closed(n, F(-7, 2)) == 0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            ms.c_closed(1, 0)


class TestContinuity:
    def test_report_passes(self):
        assert ms.continuity_report(6).passed

    def test_degenerate_n2_jump_is_real(self):
        # the two cyclic constraints coincide at n = 2, so the measure really
        # jumps at x = 0; H(0) = 1 picks the right-hand limit
        assert ms.a_closed(2, 0, _h0=0) == 2
        assert ms.a_closed(2, 0, _h0=1) == 0
        assert ms.b_closed(2, 0, _h0=0) == 0
        assert ms.b_closed(2, 0, _h0=1) == 2

    def test_support_report(self):
        assert ms.support_report(6).passed


class TestTransformCrosscheck:
    def test_exact_agreement(self):
        # hand-extracted piecewise polynomials vs termwise inversion of the
        # generating-function coefficients: exact equality, no sampling noise
        assert ms.transform_crosscheck_report(7).passed

    def test_f_closed_is_rect_at_n1(self):
        assert ms.f_closed(1, 0) == 1
        assert ms.f_closed(1, F(99, 100)) == 1
        assert ms.f_closed(1, F(101, 100)) == 0


class TestFOracle:
    def test_base_values(self):
        assert ms.f_oracle(2, -1.0) == pytest.approx(1.0, abs=1e-4)
        assert ms.f_oracle(1, 0.0) == 1.0
        assert ms.f_oracle(2, 1.0) == pytest.approx(0.0, abs=1e-4)

    def test_against_exact_transform_inversion(self):
        for n in range(2, 7):
            for j in range(1, 13):
                x = F(-n) + F(2 * n * j, 13)
                got = ms.f_oracle(n, float(x))
                assert got == pytest.approx(float(ms.f_closed(n, x)), abs=1e-4), (n, x)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            ms.f_oracle(7, 0.0)


class TestDensityOracle:
    def test_a2_point(self):
        est = ms.density_oracle(MeasureKind.A_CYCLIC, 2, -1.0, samples=200_000, seed=1)
        assert abs(est.value - 1.0) <= 3 * est.std_error

    def test_b2_point(self):
        est = ms.density_oracle(MeasureKind.B_CYCLIC_GE, 2, 1.0, samples=200_000, seed=2)
        assert abs(est.value - 3.0) <= 3 * est.std_error

    def test_f2_point(self):
        est = ms.density_oracle(MeasureKind.F_LINEAR, 2, -1.0, samples=200_000, seed=3)
        assert abs(est.value - ms.f_oracle(2, -1.0)) <= 3 * est.std_error

    def test_c3_point(self):
        est = ms.density_oracle(MeasureKind.C_LINEAR_GE, 3, 1.5, samples=200_000, seed=4)
        assert abs(est.value - float(ms.c_closed(3, F(3, 2)))) <= 3 * est.std_error

    def test_insufficient_samples_rejected(self):
        with pytest.raises(DomainError):
            ms.density_oracle(MeasureKind.A_CYCLIC, 2, -1.0, samples=10_000)

    def test_estimate_fields(self):
        est = ms.density_oracle(MeasureKind.B_CYCLIC_GE, 3, 1.0, samples=100_000, seed=5)
        assert est.samples == 100_000
        assert est.std_error > 0
        assert est.value >= 0

    @pytest.mark.parametrize(
        "kind, n, x, seed",
        [
            # the cells where a box-histogram oracle read |z| > 4: few
            # accepted draws near the edge of the support
            (MeasureKind.A_CYCLIC, 5, F(-5, 11), 5033),
            (MeasureKind.F_LINEAR, 4, F(-40, 11), 4004),
            (MeasureKind.A_CYCLIC, 4, F(-40, 11), 4004),
        ],
        ids=["a5", "f4", "a4"],
    )
    def test_support_edge_cells(self, kind, n, x, seed):
        est = ms.density_oracle(kind, n, float(x), samples=10**6, seed=seed)
        assert abs(est.value - float(ms.closed_measure(kind, n, x))) <= 4 * est.std_error


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(25))
def test_oracle_report_passes_at_every_seed(seed):
    report, _ = ms.oracle_report(5, 10**6, seed=seed, z_max=4.0)
    assert report.passed, report.first_failure().detail


class TestOpenChainSetReading:
    """The all-constraints reading of the (n+1)-variable chain is wrong.

    With three variables and both adjacent constraints active the measure at
    x = 1 is 4 (direct geometry), while the closed form gives 8 = the free
    3-variable simplex slice; only the interior-constraints-only set (ends
    free, matching the scan statistic's unconstrained boundary gaps) agrees.
    """

    @staticmethod
    def _all_constraints_estimate(x, samples=400_000, seed=123):
        rng = np.random.default_rng(seed)
        total = x + 3.0
        pts = rng.random((samples, 2)) * total
        last = total - pts.sum(axis=1)
        ok = (last >= 0) & (pts[:, 0] + pts[:, 1] >= 2.0) & (pts[:, 1] + last >= 2.0)
        p_hat = ok.mean()
        value = p_hat * total**2
        se = total**2 * float(np.sqrt(p_hat * (1 - p_hat) / samples))
        return value, se

    def test_all_constraints_variant_disagrees(self):
        value, se = self._all_constraints_estimate(1.0)
        assert abs(value - 4.0) <= 4 * se  # the set itself measures 4
        assert abs(value - float(ms.c_closed(2, 1))) > 10 * se  # and rejects c_2 = 8

    def test_interior_reading_agrees(self):
        est = ms.density_oracle(MeasureKind.C_LINEAR_GE, 2, 1.0, samples=400_000, seed=123)
        assert abs(est.value - 8.0) <= 4 * est.std_error


def test_measure_at_reports_piece():
    v = ms.measure_at(MeasureKind.A_CYCLIC, 3, F(-3, 2))
    assert v.value == F(9, 8)
    assert v.piece == 2  # boundaries -3 and -2 are at or below x = -3/2
    assert ms.measure_at(MeasureKind.B_CYCLIC_GE, 4, F(-1)).piece == 0


def test_oracle_rows_structure():
    rows = ms.oracle_rows(n_max=2, samples=100_000, seed=9, points=3)
    assert len(rows) == 4 * 3
    assert {r["kind"] for r in rows} == {"f", "a", "b", "c"}
    assert all(r["std_err"] > 0 for r in rows)
