"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import contextlib
import io
import json
import math
import time
from fractions import Fraction

import scanstat.cli as cli
import scanstat.genseries as gs
import scanstat.measures as ms
import scanstat.montecarlo as mc
import scanstat.scanprob as sp
from scanstat.scanprob import ScanKind

F = Fraction

GRID_51 = [F(j, 51) for j in range(1, 51)]
N_SWEEP = list(range(3, 41))


def _announce(num, desc):
    print(f"\nACCEPTANCE criterion {num}: PASS - {desc}")


def test_criterion_1_exact_small_n_identities():
    t0 = time.time()
    for w in (F(1, 10), F(1, 6), F(1, 4), F(3, 10)):
        assert sp.pc_nm1(3, w).p == 1 - (1 - 3 * w) ** 2
    for w in (F(1, 10), F(1, 5), F(2, 5)):
        assert sp.pc_3(3, w).p == 3 * w**2
    for w in (F(11, 20), F(3, 5)):
        assert sp.pc_3(3, w).p == 1 - (2 - 3 * w) ** 2
    for w in (F(1, 4), F(1, 2), F(3, 5), F(9, 10)):
        assert sp.p_lin_3(3, w).p == 3 * w**2 - 2 * w**3
    for j in range(1, 21):
        w = F(j, 42)
        assert sp.pc_nm1(4, w).p == sp.pc_3(4, w).p
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _announce(1, f"small-N identities and N=4 overlap, exact ({elapsed:.2f}s)")


def test_criterion_2_threshold_saturation():
    for N in range(4, 13):
        w = 1 - F(2, N)
        assert sum(sp._pc_nm1_terms(N, w, math.floor(1 / (1 - w)))) == 0
        w = F(2, N)
        assert sum(sp._pc_3_terms(N, w, math.floor(1 / w))) == 0
        w = F(2, N - 2)
        if w <= 1:
            assert sum(sp._p_lin_3_terms(N, w, math.floor(1 / w) + 1)) == 0
        assert sp.pc_nm1(N, 1 - F(2, N)).p == 1
        assert sp.pc_3(N, F(2, N)).p == 1
    _announce(2, "formulas evaluate to exactly 1 at their thresholds, N=4..12")


def test_criterion_3_series_verification():
    t0 = time.time()
    order = 10
    f = gs.riccati_solution(order)
    for n in range(2, order + 1):
        assert gs.f_tilde_recursive(n) == f.coef(n), f"recursion != closed form at n={n}"
    assert gs.verify_riccati(order).passed
    assert gs.verify_identities(order).passed
    assert gs.verify_lagrange(12, samples=150, seed=7).passed
    assert gs.extraction_exponent_report(order).passed
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _announce(3, f"recursion == closed form to t^10; all identities exact ({elapsed:.1f}s)")


def test_criterion_4_measure_oracles():
    t0 = time.time()
    assert ms.a_closed(2, -1) == 1
    assert ms.b_closed(2, 1) == 3
    report, rows = mc.oracle_report(n_max=5, samples=10**6, seed=42, z_max=4.0)
    assert report.passed, report.first_failure().detail
    elapsed = time.time() - t0
    assert elapsed < 300.0
    worst = max(abs(r["z"]) for r in rows)
    _announce(4, f"{len(rows)} oracle cells within 4 sigma (worst |z|={worst:.2f}, {elapsed:.0f}s)")


MC_CASES = {
    (ScanKind.PC_NM1, 5): [F(3, 20), F(3, 10), F(9, 20)],
    (ScanKind.PC_NM1, 8): [F(3, 16), F(3, 8), F(9, 16)],
    (ScanKind.PC_NM1, 12): [F(5, 24), F(5, 12), F(5, 8)],
    (ScanKind.PC_3, 5): [F(1, 10), F(1, 5), F(3, 10)],
    (ScanKind.PC_3, 8): [F(1, 16), F(1, 8), F(3, 16)],
    (ScanKind.PC_3, 12): [F(1, 24), F(1, 12), F(1, 8)],
    (ScanKind.P_3, 5): [F(1, 6), F(1, 3), F(1, 2)],
    (ScanKind.P_3, 8): [F(1, 12), F(1, 6), F(1, 4)],
    (ScanKind.P_3, 12): [F(1, 20), F(1, 10), F(3, 20)],
}


def test_criterion_5_monte_carlo_agreement():
    t0 = time.time()
    samples = 10**6
    checked = 0
    for (kind, N), w_list in MC_CASES.items():
        k = N - 1 if kind is ScanKind.PC_NM1 else 3
        flavor = "linear" if kind is ScanKind.P_3 else "circular"
        cfg = mc.SimConfig(N=N, k=k, samples=samples, seed=1000 + N + 17 * k)
        for est, w in zip(mc.empirical_cdf(cfg, flavor, [float(w) for w in w_list]), sorted(w_list)):
            exact = float(sp._cdf(kind, N, w).p)
            lo, hi = mc.wilson_interval(round(est.p_hat * samples), samples, z=4.0)
            assert lo <= exact <= hi, (kind, N, w, est.p_hat, exact)
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _announce(5, f"{checked} empirical cells bracket the exact CDF at 4-sigma Wilson ({elapsed:.0f}s)")


def test_criterion_6_coverage_duality():
    t0 = time.time()
    samples = 10**6
    for N, k, w in ((3, 3, F(1, 5)), (4, 3, F(1, 4)), (8, 7, F(1, 10))):
        survival = 1 - float(sp.pc_3(N, w).p if k == 3 else sp.pc_nm1(N, w).p)
        cov = mc.coverage_dual(N, k, float(w), samples, seed=60 + N)
        cdf = mc.empirical_cdf(mc.SimConfig(N, k, samples, seed=80 + N), "circular", [float(w)])[0]
        se_cov = max(math.sqrt(cov.p_hat * (1 - cov.p_hat) / samples), 1 / samples)
        se_cdf = max(math.sqrt(cdf.p_hat * (1 - cdf.p_hat) / samples), 1 / samples)
        assert abs(cov.p_hat - survival) <= 4 * se_cov
        assert abs((1 - cdf.p_hat) - survival) <= 4 * se_cdf
        assert abs(cov.p_hat - (1 - cdf.p_hat)) <= 4 * math.hypot(se_cov, se_cdf)
    elapsed = time.time() - t0
    _announce(6, f"coverage dual == circular survival == 1-P_c at 4 sigma ({elapsed:.0f}s)")


def _cdf_matrix():
    values = {}
    for kind in ScanKind:
        for N in N_SWEEP:
            for w in GRID_51:
                values[(kind, N, w)] = sp._cdf(kind, N, w).p
    return values


def test_criterion_7_property_sweeps():
    t0 = time.time()
    values = _cdf_matrix()
    for p in values.values():
        assert 0 <= p <= 1
    for kind in ScanKind:
        for N in N_SWEEP:
            ps = [values[(kind, N, w)] for w in GRID_51]
            assert all(a <= b for a, b in zip(ps, ps[1:])), f"w-monotonicity {kind} N={N}"
    for w in GRID_51:
        for kind in (ScanKind.PC_3, ScanKind.P_3):
            ps = [values[(kind, N, w)] for N in N_SWEEP]
            assert all(a <= b for a, b in zip(ps, ps[1:])), f"N-monotonicity {kind} w={w}"
        # k = N-1 grows with N, so this family is monotone the other way
        ps = [values[(ScanKind.PC_NM1, N, w)] for N in N_SWEEP]
        assert all(a >= b for a, b in zip(ps, ps[1:])), f"N-monotonicity pc-nm1 w={w}"
    for N in N_SWEEP:
        for w in GRID_51:
            assert values[(ScanKind.PC_3, N, w)] >= values[(ScanKind.P_3, N, w)]
    junctions = 0
    for kind in ScanKind:
        for N in N_SWEEP:
            for j in range(2, 2 * N + 2):
                if 0 < sp._piece(kind, F(1, j)) < sp.threshold(kind, N):
                    assert sp.floor_boundary_gap(kind, N, j) == 0, (kind, N, j)
                    junctions += 1
    assert junctions == 2925
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _announce(7, f"range/monotonicity/dominance on {len(values)} cells, {junctions} piece junctions exact ({elapsed:.0f}s)")


def test_criterion_8_pathway_equivalence():
    checks = {c.name: c for c in sp.cross_check_report(12, 20).checks}
    for kind in ScanKind:
        check = checks[f"pathway_equivalence_{kind.value}"]
        print(f"  pathway {kind.value}: {check.detail} (N<=12, 20 widths each)")
        assert check.passed, check.detail
    _announce(8, "normalized-measure pathway reproduces all three formulas exactly")


def test_criterion_9_float_exact_consistency():
    # every p_float that eval and table print on the sweep grid is the exact
    # value rounded once to float64
    t0 = time.time()
    w_arg = ",".join(str(w) for w in GRID_51)
    n_arg = ",".join(str(N) for N in N_SWEEP)
    rows = 0
    for kind in ScanKind:
        for row in _cli_json("table", "--stat", kind.value, "--N", n_arg, "--w", w_arg)["rows"]:
            assert row["p_float"] == float(F(row["p_exact"])), row
            rows += 1
        for N in N_SWEEP:
            for w in GRID_51:
                out = _cli_json("eval", "--stat", kind.value, "--N", str(N), "--w", str(w))
                assert out["p_float"] == float(F(out["p"])), out
                rows += 1
    elapsed = time.time() - t0
    _announce(9, f"p_float == float(exact) on all {rows} eval and table rows of the sweep grid ({elapsed:.0f}s)")


def _cli_json(*argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main([*argv, "--format", "json"]) == cli.EXIT_OK
    return json.loads(buf.getvalue())
