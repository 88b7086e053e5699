import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import scanstat.cli as cli
from scanstat.exactnum import DomainError, format_rational
from scanstat.scanprob import pc_nm1
from scanstat.report import Report


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_range_cdf_value(self, capsys):
        code, out, _ = run(capsys, "eval", "--stat", "p-3", "--N", "3", "--w", "1/2")
        assert code == 0
        assert "P = 1/2" in out

    def test_saturated_json(self, capsys):
        code, out, _ = run(capsys, "eval", "--stat", "pc-3", "--N", "10", "--w", "1/5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 3
        assert payload["p"] == "1"
        assert payload["regime"] == "saturated"

    def test_spacing_value(self, capsys):
        code, out, _ = run(capsys, "eval", "--stat", "pc-nm1", "--N", "3", "--w", "1/6")
        assert code == 0
        assert "P = 3/4" in out

    def test_decimal_width_is_exact(self, capsys):
        code, out, _ = run(capsys, "eval", "--stat", "pc-3", "--N", "4", "--w", "0.25", "--format", "json")
        assert code == 0
        assert json.loads(out)["p"] == "1/2"

    def test_float_mode(self, capsys):
        code, out, _ = run(capsys, "eval", "--stat", "p-3", "--N", "3", "--w", "3/5", "--format", "json")
        assert code == 0
        assert json.loads(out)["p_float"] == float(Fraction(81, 125))

    def test_exact_value_past_the_str_digit_limit(self, capsys):
        # p has over 4300 digits a part, CPython's default str(int) cap
        code, out, err = run(capsys, "eval", "--stat", "pc-nm1", "--N", "3000", "--w", "1/1000")
        assert code == 0, err
        p = next(line for line in out.splitlines() if line.strip().startswith("P = "))
        assert p.split()[2] == format_rational(pc_nm1(3000, Fraction(1, 1000)).p)
        assert len(p) > 2 * 4300


class TestErrors:
    def test_bad_n(self, capsys):
        code, _, err = run(capsys, "eval", "--stat", "p-3", "--N", "2", "--w", "1/2")
        assert code == 2
        assert "N must be" in err

    def test_bad_width(self, capsys):
        code, _, err = run(capsys, "eval", "--stat", "p-3", "--N", "3", "--w", "3/2")
        assert code == 2

    def test_unparseable_width(self, capsys):
        code, _, err = run(capsys, "eval", "--stat", "p-3", "--N", "3", "--w", "abc")
        assert code == 2
        assert "rational" in err

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--stat", "bogus", "--N", "3", "--w", "1/2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("table", "--stat", "p-3", "--N", "3,,5", "--w", "1/5"),
            ("table", "--stat", "p-3", "--N", "3.5", "--w", "1/5"),
            ("table", "--stat", "p-3", "--N", "3", "--w", "1/5,"),
            ("simulate", "--kind", "linear", "--N", "5", "--k", "3", "--w", "1/4,x"),
        ],
    )
    def test_malformed_list_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed list") and err.count("\n") == 1

    @pytest.mark.parametrize("w", ["2", "1/4,-1/4", "1/4,3/2"])
    def test_simulate_width_outside_unit_interval(self, capsys, w):
        code, _, err = run(capsys, "simulate", "--kind", "circular", "--N", "4", "--k", "3", "--w", w,
                           "--samples", "100")
        assert code == 2
        assert "w must lie in [0, 1]" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify-measures", "--n-max", "1"),
            ("cross-check", "--n-max", "2"),
            ("cross-check", "--grid", "0"),
        ],
    )
    def test_empty_verify_range_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --n-max must be >= ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--kind", "linear", "--N", "5", "--k", "3", "--w", "1/4", "--seed", "-1"),
            ("verify-measures", "--seed", "-3000"),
            ("verify-measures", "--seed", "-1"),
        ],
    )
    def test_negative_seed_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --seed must be >= 0") and err.count("\n") == 1

    def test_out_of_memory_exits_2(self, capsys, monkeypatch):
        import scanstat.montecarlo as mc

        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr(mc, "empirical_cdf", out_of_memory)
        code, out, err = run(capsys, "simulate", "--kind", "linear", "--N", "1000000", "--k", "3", "--w", "1/2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: out of memory") and err.count("\n") == 1

    def test_verification_failure_exits_3(self, capsys):
        failing = Report("demo")
        failing.add("broken", False, detail="nope")
        assert cli._report_exit(failing, "text") == 3


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-series", "--order", "4"),
        ("cross-check", "--n-max", "4", "--grid", "2"),
        ("verify-measures", "--n-max", "2", "--samples", "100000", "--seed", "1"),
    ],
)
def test_text_report_lines_then_csv(capsys, argv):
    """Text mode prints the suite line and one line per check, then any rows as CSV, header first."""
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    checks, rows = payload["report"]["checks"], payload.get("rows", [])
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == f"[PASS] suite {payload['command']}"
    report, table = lines[1 : 1 + len(checks)], lines[1 + len(checks) :]
    assert [line.split()[1] for line in report] == [c["name"] for c in checks]
    assert all(line.startswith("  [pass] ") for line in report)
    assert len(table) == (1 + len(rows) if rows else 0)
    if rows:
        assert sorted(table[0].split(",")) == sorted(rows[0])  # JSON sorts its keys


def test_exact_commands_load_no_numpy():
    # only the sampling commands import montecarlo, and with it numpy; the
    # benchmark tracer looks measures and genseries up in sys.modules
    code = (
        "import contextlib, io, sys\n"
        "import scanstat, scanstat.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['eval', '--stat', 'p-3', '--N', '40', '--w', '1/50']) == 0\n"
        "assert 'numpy' not in sys.modules\n"
        "assert 'scanstat.montecarlo' not in sys.modules\n"
        "assert {'scanstat.measures', 'scanstat.genseries'} <= set(sys.modules)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestTable:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "table", "--stat", "p-3", "--N", "3", "--w", "1/4,1/2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("kind,N,w")
        assert "5/32" in lines[1]
        assert "1/2" in lines[2]

    def test_float_column_is_rounded_exact(self, capsys):
        code, out, _ = run(capsys, "table", "--stat", "p-3", "--N", "3", "--w", "1/5")
        assert code == 0
        assert out.splitlines()[1] == "p-3,3,1/5,13/125,0.104,below_threshold,2"

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "table", "--stat", "pc-3", "--N", "4,5", "--w", "1/5,1/2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert json.dumps(payload, indent=2, sort_keys=True) == out.strip()
        assert len(payload["rows"]) == 4


class TestSimulate:
    def test_rows(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--kind", "circular", "--N", "4", "--k", "3",
            "--w", "1/4", "--samples", "20000", "--seed", "5",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("w,p_hat,ci_low,ci_high")
        p_hat = float(row.split(",")[1])
        assert 0.45 < p_hat < 0.55

    def test_reproducible(self, capsys):
        args = ["simulate", "--kind", "linear", "--N", "5", "--k", "2", "--w", "1/10",
                "--samples", "5000", "--seed", "11"]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestVerifyCommands:
    def test_verify_series(self, capsys):
        code, out, _ = run(capsys, "verify-series", "--order", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["passed"] is True

    def test_verify_measures_fast(self, capsys):
        code, out, _ = run(
            capsys, "verify-measures", "--n-max", "2", "--samples", "100000",
            "--seed", "6", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["passed"] is True
        assert payload["rows"]

    def test_cross_check(self, capsys):
        code, out, _ = run(capsys, "cross-check", "--n-max", "6", "--grid", "8", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        names = {c["name"]: c["passed"] for c in payload["report"]["checks"]}
        assert names["overlap_pc_nm1_equals_pc_3_at_N4"]
        assert names["pathway_equivalence_p-3"]

    def test_cross_check_pathway_walks_the_grid(self, capsys, monkeypatch):
        sp = cli.scanprob
        calls = []
        real = sp.measure_to_probability
        monkeypatch.setattr(sp, "measure_to_probability", lambda *a: calls.append(a) or real(*a))
        code, _, _ = run(capsys, "cross-check", "--n-max", "4", "--grid", "2", "--format", "json")
        assert code == 0
        # --grid 2 gives the widths upper/3 and 2*upper/3, upper = min(threshold, 1)
        want = [(kind, N, min(sp.threshold(kind, N), 1) * Fraction(j, 3))
                for kind in sp.ScanKind for N in (3, 4) for j in (1, 2)]
        assert calls == want

    @pytest.mark.parametrize("n_max, junction_n_max", [("6", "6"), ("12", "10")])
    def test_cross_check_names_junction_cap(self, capsys, n_max, junction_n_max):
        code, out, _ = run(capsys, "cross-check", "--n-max", n_max, "--grid", "2", "--format", "json")
        assert code == 0
        checks = {c["name"]: c for c in json.loads(out)["report"]["checks"]}
        params = checks["piece_boundary_continuity"]["params"]
        assert params == {"n_max": n_max, "junction_n_max": junction_n_max}


def test_parser_built_once_per_process(capsys):
    cli.build_parser.cache_clear()
    for _ in range(2):
        run(capsys, "eval", "--stat", "p-3", "--N", "3", "--w", "1/2")
    assert cli.build_parser.cache_info().misses == 1


def test_parse_rational():
    assert cli.parse_rational("1/6") == Fraction(1, 6)
    assert cli.parse_rational("0.25") == Fraction(1, 4)
    with pytest.raises(DomainError):
        cli.parse_rational("1/0")
