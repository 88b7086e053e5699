"""Command-line front end.

Commands: eval, table, simulate, verify-series, verify-measures, cross-check.
Widths are accepted only as exact rational strings ("1/6", "0.25"), never as
binary floats, so the exact path never inherits parser rounding.  Only
simulate and verify-measures import the samplers, and with them numpy.  Exit
codes: 0 success, 1 stdout closed before the output was written (`| head`),
2 usage, domain or out-of-memory error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from fractions import Fraction

from . import genseries, measures, scanprob
from .exactnum import DomainError, format_rational

SCHEMA = 3

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3

_KINDS = {k.value: k for k in scanprob.ScanKind}


def _echo(text: str, chars: int = 40) -> str:
    """repr(text) for an error line, cut to its first `chars` characters."""
    return repr(text) if len(text) <= chars else f"{text[:chars]!r}... ({len(text)} characters)"


def _digit_limit(text: str) -> str:
    """A note naming the interpreter's int-string limit when text has more digits than it allows."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit and sum(c.isdigit() for c in text) > limit:
        return f"; the interpreter limits integers to {limit} digits"
    return ""


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not an exact rational: {_echo(text)}{_digit_limit(text)}") from exc


def parse_list(text: str, item=parse_rational) -> list:
    """A comma-separated list read item by item; a malformed item raises DomainError."""
    out = []
    for s in text.split(","):
        try:
            out.append(item(s))
        except ValueError as exc:
            raise DomainError(f"malformed list {_echo(text)}: bad item {_echo(s)}{_digit_limit(s)}") from exc
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
    return _report_exit(genseries.verify_series_suite(args.order), args.format)


def _cmd_verify_measures(args) -> int:
    from . import montecarlo
    from .report import Report

    # the oracle checks --n-max, --samples and --seed before any check runs
    oracle_rep, rows = montecarlo.oracle_report(args.n_max, args.samples, args.seed)
    combined = Report("verify-measures")
    for sub in (
        measures.continuity_report(args.n_max),
        measures.support_report(args.n_max),
        measures.transform_crosscheck_report(args.n_max),
        oracle_rep,
    ):
        combined.checks.extend(sub.checks)
    return _report_exit(combined, args.format, rows)


def _cmd_cross_check(args) -> int:
    return _report_exit(scanprob.cross_check_report(args.n_max, args.grid), args.format)


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
    stdout = sys.stdout
    if isinstance(getattr(stdout, "buffer", None), io.RawIOBase):
        # unbuffered stdout (python -u, PYTHONUNBUFFERED) writes through to a raw
        # file, which drops what a short pipe write leaves over; a buffered writer
        # writes the rest, and raises BrokenPipeError once the reader has gone
        sys.stdout = open(stdout.fileno(), "w", encoding=stdout.encoding, errors=stdout.errors, closefd=False)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (`scanstat ... | head`): send the rest
        # of the output to devnull so the exit flush cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory for this input", file=sys.stderr)
        return EXIT_USAGE
    finally:
        sys.stdout = stdout


if __name__ == "__main__":
    sys.exit(main())
