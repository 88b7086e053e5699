"""Self-tests for the benchmark; run with `python3 -m pytest bench`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", wl.EVAL_WORKLOADS)
def test_inputs_deterministic_distinct_and_in_range(workload):
    a = wl.eval_inputs(workload, 7)
    assert a == wl.eval_inputs(workload, 7)
    assert a != wl.eval_inputs(workload, 8)
    assert len(set(a)) == len(a)
    for stat, N, w in a:
        assert 0 < w < wl.upper(stat, N) and w < wl.threshold(stat, N)
    for N, n_nm1, n_three in wl.cell_counts(workload):
        per_stat = {stat: sum(1 for s, n, _ in a if (s, n) == (stat, N)) for stat in ("pc-nm1", "pc-3", "p-3")}
        assert per_stat["pc-nm1"] == n_nm1 and per_stat["pc-3"] == n_three and per_stat["p-3"] > n_three


@pytest.mark.parametrize("workload", wl.EVAL_WORKLOADS)
def test_inputs_cover_the_whole_unsaturated_range(workload):
    """One width per equal stratum of (0, upper), so the all-terms regime gets its share."""
    a = wl.eval_inputs(workload, 3)
    for N, n_nm1, n_three in wl.cell_counts(workload):
        for stat, count in (("pc-nm1", n_nm1), ("pc-3", n_three)):
            ws = [w for s, n, w in a if (s, n) == (stat, N)]
            assert sorted(int(w / wl.upper(stat, N) * count) for w in ws) == list(range(count))
        top = wl.upper("pc-3", N)
        assert any(top <= w for s, n, w in a if (s, n) == ("p-3", N))
        if workload == "eval-large":
            assert any(wl.term_band(s, n, w) == "all" for s, n, w in a if (s, n) == ("p-3", N))
    shares = wl.band_shares(a)
    grid = wl.band_shares(wl.acceptance_grid(workload))
    for stat in shares:
        assert abs(shares[stat]["all"] - grid[stat]["all"]) < 0.15


def test_term_counts_do_not_depend_on_seed():
    from scanstat import scanprob

    kinds = {k.value: k for k in scanprob.ScanKind}

    def terms(seed):
        return sorted((stat, N, scanprob.evaluate(scanprob.ScanQuery(kinds[stat], N, w)).active_terms)
                      for stat, N, w in wl.eval_inputs("eval-small", seed) if N <= 20)

    assert terms(1) == terms(2)

    def loops(seed):
        return sorted((s, N, wl.loop_terms(s, N, w), w.denominator) for s, N, w in wl.eval_inputs("eval-large", seed))

    assert loops(1) == loops(2)


def test_sampled_widths_deterministic_and_unsaturated():
    grid, cw = wl.sampled_widths(3)
    assert (grid, cw) == wl.sampled_widths(3)
    assert len(set(grid)) == wl.SIM_POINTS
    assert all(0 < w < Fraction(2, wl.SIM_N) for w in grid)
    assert Fraction(1, 2) < cw < wl.threshold("pc-nm1", wl.SIM_N)


def test_checker_flags_perturbed_results():
    from scanstat import scanprob

    inputs = [t for t in wl.eval_inputs("eval-small", 1) if t[1] <= 12]
    kinds = {k.value: k for k in scanprob.ScanKind}
    ps = [scanprob.evaluate(scanprob.ScanQuery(kinds[s], N, w)).p for s, N, w in inputs]
    refs = wl.eval_references(scanprob, inputs)
    assert wl.failed_evals(inputs, ps, refs) == set()

    off = list(ps)
    off[5] += Fraction(1, 2**200)
    assert 5 in wl.failed_evals(inputs, off, refs)

    # a value that matches its (equally wrong) reference still breaks monotonicity or the pc-3 >= p-3 order
    i = next(k for k, (s, _, _) in enumerate(inputs) if s == "pc-3")
    low, low_refs = list(ps), list(refs)
    low[i] = low_refs[i] = Fraction(0)
    assert wl.failed_evals(inputs, low, low_refs)


def test_sampled_and_report_checks_flag_failures():
    assert wl.brackets(0.25, 10**6, Fraction(1, 4))
    assert not wl.brackets(0.26, 10**6, Fraction(1, 4))
    passed = json.dumps({"report": {"passed": True, "checks": [{}]}})
    assert wl.check_report(0, passed)[0]
    assert not wl.check_report(3, passed)[0]
    assert not wl.check_report(0, json.dumps({"report": {"passed": False}}))[0]
    assert not wl.check_report(0, "not json")[0]


def test_digest_distinguishes_close_values():
    p = Fraction(3**500, 2**900)
    assert wl.digest(p) == wl.digest(Fraction(3**500, 2**900))
    assert wl.digest(p) != wl.digest(p + Fraction(1, 2**2000))


def test_span_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("cli", "outer"):
        with tracer.span("scanprob", "inner"):
            pass
    (inner, outer) = (tracer.spans[1], tracer.spans[0])
    assert outer[4] == -1 and inner[4] == 0
    outer_ns, inner_ns = outer[3] - outer[2], inner[3] - inner[2]
    assert tracer.self_ns["cli"] == outer_ns - inner_ns
    assert tracer.self_ns["scanprob"] == inner_ns


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_reported_with_its_unit(trace, key):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "eval-small", "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: (m["unit"]) for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC[key]}
    for name, metric in result["metrics"].items():
        assert metric["value"] == metric["value"], name  # not NaN
        if key == "end_to_end":
            assert metric["value"] > 0, name


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "eval-small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
