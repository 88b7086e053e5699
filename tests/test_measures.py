import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import scanstat.measures as ms
import scanstat.montecarlo as mc
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
        assert ms.left_limit(MeasureKind.A_CYCLIC, 2, 0) == 2
        assert ms.a_closed(2, 0) == 0
        assert ms.left_limit(MeasureKind.B_CYCLIC_GE, 2, 0) == 0
        assert ms.b_closed(2, 0) == 2

    @pytest.mark.parametrize("kind", list(MeasureKind))
    def test_left_limit_is_the_value_off_the_breakpoints(self, kind):
        # every breakpoint is an integer, so at any other x both limits are the value
        for n in range(2, 9):
            near = [b + d for b in ms.piece_boundaries(kind, n) for d in (F(-1, 7), F(1, 7))]
            xs = ms.interior_grid(kind, n, 12) + near
            assert all(x.denominator != 1 for x in xs)
            for x in xs:
                assert ms.left_limit(kind, n, x) == ms.closed_measure(kind, n, x), (kind, n, x)

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


def _one_point(kind, n, x, samples, seed=0):
    (est,) = mc.density_oracle(kind, n, [x], samples, seed)
    return est


class TestDensityOracle:
    def test_a2_point(self):
        est = _one_point(MeasureKind.A_CYCLIC, 2, -1.0, samples=200_000, seed=1)
        assert abs(est.value - 1.0) <= 3 * est.std_error

    def test_b2_point(self):
        est = _one_point(MeasureKind.B_CYCLIC_GE, 2, 1.0, samples=200_000, seed=2)
        assert abs(est.value - 3.0) <= 3 * est.std_error

    def test_f2_point(self):
        est = _one_point(MeasureKind.F_LINEAR, 2, -1.0, samples=200_000, seed=3)
        assert abs(est.value - float(ms.f_closed(2, -1))) <= 3 * est.std_error

    def test_c3_point(self):
        est = _one_point(MeasureKind.C_LINEAR_GE, 3, 1.5, samples=200_000, seed=4)
        assert abs(est.value - float(ms.c_closed(3, F(3, 2)))) <= 3 * est.std_error

    def test_insufficient_samples_rejected(self):
        with pytest.raises(DomainError):
            _one_point(MeasureKind.A_CYCLIC, 2, -1.0, samples=10_000)

    def test_estimate_fields(self):
        est = _one_point(MeasureKind.B_CYCLIC_GE, 3, 1.0, samples=100_000, seed=5)
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
        est = _one_point(kind, n, x, samples=10**6, seed=seed)
        assert abs(est.value - float(ms.closed_measure(kind, n, x))) <= 4 * est.std_error

    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize("kind", list(MeasureKind))
    def test_estimates_ignore_block_size(self, monkeypatch, kind, n):
        # four blocks at the default size, the last partial, and at least the
        # oracle's 10^5 samples; 107 blocks at 1000 rows
        samples = 3 * mc._ORACLE_CHUNK + 8_193
        xs = ms.interior_grid(kind, n, 3)
        v = n + 1 if kind is MeasureKind.C_LINEAR_GE else n
        # reference: every point's pair constraints read directly off the first
        # v columns of one monolithic (samples, ORACLE_N_MAX + 1) draw from the
        # samplers' seeded generator
        e = mc._seeded_rng(7).standard_exponential((samples, mc.ORACLE_N_MAX + 1))[:, :v]
        expected = []
        for x in xs:
            total_sum = float(x) + v
            bound = e.sum(axis=1) * (2.0 / total_sum)
            ok = np.ones(samples, dtype=bool)
            for i, j in mc._constraint_pairs(kind, n):
                if kind in (MeasureKind.F_LINEAR, MeasureKind.A_CYCLIC):
                    ok &= e[:, i] + e[:, j] <= bound
                else:
                    ok &= e[:, i] + e[:, j] >= bound
            expected.append(int(ok.sum()))
        # at n = 2 every grid point is a hit; at n = 5 some points are not
        assert n == 2 or any(0 < h < samples for h in expected)
        default = mc.density_oracle(kind, n, xs, samples, seed=7)
        monkeypatch.setattr(mc, "_ORACLE_CHUNK", 1000)
        assert mc.density_oracle(kind, n, xs, samples, seed=7) == default
        volumes = [(float(x) + v) ** (v - 1) / math.factorial(v - 1) for x in xs]
        assert [est.value for est in default] == [h / samples * vol for h, vol in zip(expected, volumes)]

    @pytest.mark.parametrize("kind", list(MeasureKind))
    def test_grid_entry_equals_the_one_point_call(self, kind):
        xs = ms.interior_grid(kind, 4, 5)
        grid = mc.density_oracle(kind, 4, xs, 100_000, seed=3)
        assert grid == [_one_point(kind, 4, x, 100_000, seed=3) for x in xs]


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(25))
def test_oracle_report_passes_at_every_seed(seed):
    report, _ = mc.oracle_report(5, 10**6, seed=seed, z_max=4.0)
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
        est = _one_point(MeasureKind.C_LINEAR_GE, 2, 1.0, samples=400_000, seed=123)
        assert abs(est.value - 8.0) <= 4 * est.std_error


def test_oracle_rows_structure():
    rows = mc.oracle_rows(n_max=2, samples=100_000, seed=9, points=3)
    assert len(rows) == 4 * 3
    assert {r["kind"] for r in rows} == {"f", "a", "b", "c"}
    assert all(r["std_err"] > 0 for r in rows)


def test_rows_depend_only_on_their_own_kind_and_n():
    # one draw of ORACLE_N_MAX + 1 columns whatever n_max is: a larger n_max adds rows and changes none
    small = mc.oracle_rows(n_max=3, samples=100_000, seed=9)
    large = mc.oracle_rows(n_max=5, samples=100_000, seed=9)
    assert small == [r for r in large if r["n"] <= 3]


@pytest.mark.parametrize("args", [(7, 100_000, 0), (1, 100_000, 0), (5, 10, 0), (5, 100_000, -1)],
                         ids=["n_max_7", "n_max_1", "samples_10", "seed_-1"])
def test_oracle_rows_checks_its_arguments_before_drawing(monkeypatch, args):
    monkeypatch.setattr(mc, "_chunked_count", lambda *a: pytest.fail("drew samples"))
    with pytest.raises(DomainError):
        mc.oracle_rows(*args)


def test_verify_measures_draws_once(monkeypatch, capsys):
    from scanstat import cli

    calls = []
    real = mc._chunked_count
    monkeypatch.setattr(mc, "_chunked_count", lambda *a: calls.append(a) or real(*a))
    assert cli.main(["verify-measures", "--n-max", "5", "--samples", "100000", "--format", "json"]) == 0
    capsys.readouterr()
    # every (kind, n) cell reads the first v columns of one draw
    assert len(calls) == 1


def test_rows_ignore_block_size(monkeypatch):
    # four blocks at the default size, the last partial, and at least the
    # oracle's 10^5 samples; 107 blocks at 1000 rows
    samples = 3 * mc._ORACLE_CHUNK + 8_193
    default = mc.oracle_rows(5, samples, seed=7)
    monkeypatch.setattr(mc, "_ORACLE_CHUNK", 1000)
    assert mc.oracle_rows(5, samples, seed=7) == default


@pytest.mark.parametrize("kind, n", [(MeasureKind.C_LINEAR_GE, 5), (MeasureKind.B_CYCLIC_GE, 3)], ids=["c5", "b3"])
def test_gate_fails_on_one_cell_scaled_by_one_percent(monkeypatch, kind, n):
    # negative control: every row shares one draw, so the gate must still single
    # out one wrong cell; a row whose hit fraction is 0 or 1 would trip on any
    # change, so the cell is one whose fraction lies strictly inside (0, 1)
    x = ms.interior_grid(kind, n, 10)[4]
    v = mc._variables(kind, n)
    fraction = ms.closed_measure(kind, n, x) / ((x + v) ** (v - 1) / math.factorial(v - 1))
    assert 0.1 < fraction < 0.9
    real = mc.closed_measure

    def scaled(k, m, y):
        return real(k, m, y) * F(101, 100) if (k, m, y) == (kind, n, x) else real(k, m, y)

    monkeypatch.setattr(mc, "closed_measure", scaled)
    report, rows = mc.oracle_report(5, 10**6, seed=42)
    assert not report.passed
    assert [(r["kind"], r["n"], r["x"]) for r in rows if abs(r["z"]) > 4.0] == [(kind.value, n, str(x))]


def test_oracle_memory_stays_within_one_block():
    # numpy reports its buffers to tracemalloc; the draw, column and pair
    # buffers persist across blocks but are sized to one block (about 6 MiB
    # here), while a design that holds every block's buffers at once peaks
    # near 43 MiB
    tracemalloc.start()
    try:
        mc.oracle_rows(5, 250_000, seed=42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 25 * 2**20
