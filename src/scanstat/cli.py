"""Command-line front end.

Commands: eval, table, simulate, verify-series, verify-measures, cross-check.
Widths are accepted only as exact rational strings ("1/6", "0.25"), never as
binary floats, so the exact path never inherits parser rounding.  Only
simulate and verify-measures import the samplers, and with them numpy.  Exit
codes: 0 success, 2 usage, domain or out-of-memory error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction

from . import genseries, measures, scanprob
from .exactnum import DomainError, format_rational

SCHEMA = 3

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3

# cross-check tests piece-junction continuity up to this N; the report names the cap
_JUNCTION_N_MAX = 10

_KINDS = {k.value: k for k in scanprob.ScanKind}


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not an exact rational: {text!r}") from exc


def parse_list(text: str, item=parse_rational) -> list:
    """A comma-separated list read item by item; a malformed item raises DomainError."""
    out = []
    for s in text.split(","):
        try:
            out.append(item(s))
        except ValueError as exc:
            raise DomainError(f"malformed list {text!r}: bad item {s!r}") from exc
    return out


def _emit_json(payload: dict) -> None:
    payload = {"schema": SCHEMA, **payload}
    print(json.dumps(payload, indent=2, sort_keys=True))


def _emit_csv(rows: list[dict]) -> None:
    if not rows:
        return
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_eval(args) -> int:
    query = scanprob.ScanQuery(_KINDS[args.stat], args.N, parse_rational(args.w))
    value = scanprob.evaluate(query)
    payload = {
        "command": "eval",
        "stat": args.stat,
        "N": args.N,
        "w": format_rational(query.w),
        "p": format_rational(value.p),
        "p_float": float(value.p),
        "survival": format_rational(value.survival),
        "regime": value.regime.value,
        "active_terms": value.active_terms,
    }
    if args.format == "json":
        _emit_json(payload)
    else:
        print(f"{args.stat}  N={args.N}  w={format_rational(query.w)}")
        print(f"  P = {payload['p']}  (~{payload['p_float']:.12g})")
        print(f"  survival = {payload['survival']}  regime = {payload['regime']}")
    return EXIT_OK


def _cmd_table(args) -> int:
    n_list = parse_list(args.N, int)
    w_grid = parse_list(args.w)
    rows = scanprob.tabulate(_KINDS[args.stat], n_list, w_grid)
    if args.format == "json":
        _emit_json({"command": "table", "rows": rows})
    else:
        _emit_csv(rows)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    from . import montecarlo

    config = montecarlo.SimConfig(args.N, args.k, args.samples, args.seed)
    estimates = montecarlo.empirical_cdf(config, args.kind, parse_list(args.w))
    rows = [vars(e) for e in estimates]
    for row in rows:
        row.update(N=args.N, k=args.k, kind=args.kind, seed=args.seed)
    if args.format == "json":
        _emit_json({"command": "simulate", "rows": rows})
    else:
        _emit_csv(rows)
    return EXIT_OK


def _report_exit(report, fmt: str, rows: list[dict] | None = None) -> int:
    """Print a report, then its rows if any (a CSV table after the text); exit 3 if a check failed."""
    if fmt == "json":
        payload = {"command": report.suite, "report": report.to_dict()}
        if rows is not None:
            payload["rows"] = rows
        _emit_json(payload)
    else:
        print(report.render_text())
        _emit_csv(rows or [])
    return EXIT_OK if report.passed else EXIT_VERIFY


def _cmd_verify_series(args) -> int:
    report = genseries.verify_series_suite(args.order)
    return _report_exit(report, args.format)


def _cmd_verify_measures(args) -> int:
    from . import montecarlo
    from .report import Report

    if args.n_max < 2:
        raise DomainError(f"--n-max must be >= 2, got {args.n_max}")
    combined = Report("verify-measures")
    for sub in (
        measures.continuity_report(args.n_max),
        measures.support_report(args.n_max),
        measures.transform_crosscheck_report(args.n_max),
    ):
        combined.checks.extend(sub.checks)
    oracle_rep, rows = montecarlo.oracle_report(args.n_max, args.samples, args.seed)
    combined.checks.extend(oracle_rep.checks)
    return _report_exit(combined, args.format, rows)


def _cmd_cross_check(args) -> int:
    from .report import Report

    if args.n_max < 3 or args.grid < 1:
        raise DomainError(f"--n-max must be >= 3 and --grid >= 1, got {args.n_max} and {args.grid}")
    report = Report("cross-check")
    grid = [Fraction(j, 2 * (args.grid + 1)) for j in range(1, args.grid + 1)]

    overlap_ok = all(scanprob.pc_nm1(4, w).p == scanprob.pc_3(4, w).p for w in grid)
    report.add("overlap_pc_nm1_equals_pc_3_at_N4", overlap_ok, {"points": len(grid)})

    for kind in scanprob.ScanKind:
        mismatch = None
        for N in range(3, args.n_max + 1):
            thr = scanprob.threshold(kind, N)
            upper = min(thr, Fraction(1))
            for j in range(1, args.grid + 1):
                w = upper * Fraction(j, args.grid + 1)
                if not 0 < w < thr:
                    continue
                direct = scanprob._cdf(kind, N, w).p
                via_measure = scanprob.measure_to_probability(kind, N, w).p
                if direct != via_measure:
                    mismatch = (N, str(w), str(direct), str(via_measure))
                    break
            if mismatch:
                break
        report.add(
            f"pathway_equivalence_{kind.value}",
            mismatch is None,
            {"n_max": args.n_max},
            "exact agreement" if mismatch is None else f"discrepancy {mismatch}",
        )

    junction_n_max = min(args.n_max, _JUNCTION_N_MAX)
    boundary_ok = True
    for kind in scanprob.ScanKind:
        for N in range(3, junction_n_max + 1):
            for j in range(2, 2 * N):
                try:
                    gap = scanprob.floor_boundary_gap(kind, N, j)
                except DomainError:
                    continue
                if gap != 0:
                    boundary_ok = False
    report.add("piece_boundary_continuity", boundary_ok, {"n_max": args.n_max, "junction_n_max": junction_n_max})
    return _report_exit(report, args.format)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scanstat",
        description="Exact distributions of continuous linear and circular scan statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate one CDF value exactly")
    p.add_argument("--stat", choices=sorted(_KINDS), required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--w", required=True, help='exact rational width, e.g. "1/6" or "0.25"')
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("table", help="tabulate a CDF over N and w grids")
    p.add_argument("--stat", choices=sorted(_KINDS), required=True)
    p.add_argument("--N", required=True, help="comma-separated list, e.g. 3,5,8")
    p.add_argument("--w", required=True, help="comma-separated rationals, e.g. 1/10,1/5")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("simulate", help="empirical CDF of the window statistic")
    p.add_argument("--kind", choices=["linear", "circular"], required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--w", required=True, help="comma-separated rationals")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("verify-series", help="run the symbolic identity suites")
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=_cmd_verify_series)

    p = sub.add_parser("verify-measures", help="closed forms vs sampling oracles")
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=_cmd_verify_measures)

    p = sub.add_parser("cross-check", help="probability-level identities and pathways")
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--grid", type=int, default=20)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=_cmd_cross_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise DomainError(f"--seed must be >= 0, got {args.seed}")
        return args.fn(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory for this input", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
