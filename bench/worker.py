"""One benchmark worker process: import scanstat, build the inputs, run one pass, check it.

run.py starts one worker per pass so that every pass is cold, as a user's
process is.  Usage:

    python3 bench/worker.py '{"workload": "eval-small", "seed": 1, "mode": "pass",
                              "reference": true, "trace_path": null}'

mode "setup" stops once the inputs are built.  A reference pass also checks
every result against the independent oracles; other passes report digests
that run.py compares with the reference pass.  A trace_path turns on the
tracer and receives the spans.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import json
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(cfg: dict) -> dict:
    import numpy
    import scanstat
    from scanstat import cli, montecarlo, scanprob

    if not Path(scanstat.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"scanstat was imported from {scanstat.__file__}, not from this checkout's src/")

    import workloads as wl
    from tracer import NullTracer, Tracer

    workload, seed = cfg["workload"], cfg["seed"]
    inputs = wl.eval_inputs(workload, seed) if workload in wl.EVAL_WORKLOADS else None
    out = {"ready": time.perf_counter()}
    if cfg["mode"] == "setup":
        return out

    trace_path = cfg.get("trace_path")
    tracer = Tracer() if trace_path else NullTracer()
    if trace_path:
        tracer.install()
    t0 = time.perf_counter_ns()
    with tracer.span("bench", "pass"):
        if inputs is not None:
            outputs, latencies = wl.run_evals(scanprob, inputs, tracer)
        elif workload == "verify-exact":
            outputs, latencies = wl.run_verify_exact(cli, tracer)
        else:
            outputs, latencies = wl.run_verify_sampled(cli, montecarlo, seed, tracer)
    elapsed = time.perf_counter_ns() - t0
    layers = tracer.layer_metrics() if trace_path else {}  # taken before the checks call scanstat too
    out["wall_s"] = elapsed / 1e9
    # a call is one evaluate, one CLI command or the coverage_dual call
    out["latencies_ms"] = [ns / 1e6 for ns in latencies]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # counts read off the results; a workload that bypasses a layer reports 0
    extras = {"scanprob.terms": 0, "scanprob.result_bits": 0, "report.checks": 0,
              **{f"report.{c.replace('-', '_')}_checks": 0 for c in ("verify-series", "cross-check", "verify-measures")},
              "measures.oracle_rel_se_p50": 0.0, "measures.oracle_max_abs_z": 0.0}
    if inputs is not None:
        _check_evals(wl, scanprob, inputs, outputs, cfg["reference"], out, extras)
    elif workload == "verify-exact":
        _check_verify_exact(wl, outputs, out, extras)
    else:
        _check_verify_sampled(wl, scanprob, seed, outputs, out, extras)

    if cfg["reference"]:
        out["inputs"] = wl.input_properties(workload, seed, inputs)
        out["env"] = {"python": platform.python_version(), "numpy": numpy.__version__,
                      "platform": platform.platform()}
    if trace_path:
        terms = extras["scanprob.terms"]
        layers["scanprob.ns_per_term"] = layers["scanprob.evaluate_s"] * 1e9 / terms if terms else 0.0
        extras.update(layers)
        tracer.write(trace_path)
    out["layers"] = extras
    return out


def _check_evals(wl, scanprob, inputs, values, reference, out, extras) -> None:
    ps = [v.p for v in values]
    terms = [v.active_terms for v in values]
    bits = [wl.result_bits(p) for p in ps]
    out["work"] = len(ps)
    out["attempted"] = len(ps)
    out["digests"] = [wl.digest(p) for p in ps]
    extras["scanprob.terms"] = sum(terms)
    extras["scanprob.result_bits"] = sum(bits)
    if not reference:
        out["failed"] = 0  # run.py compares the digests with the reference pass
        out["control_ok"] = True
        return
    refs = wl.eval_references(scanprob, inputs)
    bad = wl.failed_evals(inputs, ps, refs)
    out["failed"] = len(bad)
    out["terms"] = wl.distribution(terms)
    out["result_bits"] = wl.distribution(bits)
    # negative control: one corrupted value must be counted as failed
    k = next((i for i in range(len(ps)) if i not in bad), None)
    if k is None:
        out["control_ok"] = True
        return
    corrupted = list(ps)
    corrupted[k] = ps[k] - Fraction(1, 2**200) if ps[k] else Fraction(1, 2**200)
    out["control_ok"] = k in wl.failed_evals(inputs, corrupted, refs)


def _check_verify_exact(wl, outputs, out, extras) -> None:
    checks = failed = 0
    for argv, code, text in outputs:
        ok, payload = wl.check_report(code, text)
        failed += not ok
        count = len(payload.get("report", {}).get("checks", []))
        extras[f"report.{argv[0].replace('-', '_')}_checks"] = count
        checks += count
    out["work"] = checks
    out["attempted"] = len(outputs)
    out["failed"] = failed
    extras["report.checks"] = checks
    # negative control: a failing exit code and a failed report must both be caught
    text = outputs[0][2]
    out["control_ok"] = not wl.check_report(3, text)[0] and not wl.check_report(
        0, json.dumps({"report": {"passed": False, "checks": []}}))[0]


def _check_verify_sampled(wl, scanprob, seed, outputs, out, extras) -> None:
    verdicts = wl.sampled_checks(scanprob, seed, outputs)
    # the work done and the oracle figures count whether or not verify-measures passed its gate
    payload = wl.parse_json(outputs[0][2])
    rows = payload.get("rows", [])
    out["work"] = (len(rows) + 3) * wl.SAMPLES  # oracle rows, two simulate runs, coverage_dual
    out["attempted"] = len(verdicts)
    out["failed"] = verdicts.count(False)
    extras["report.checks"] = extras["report.verify_measures_checks"] = len(payload.get("report", {}).get("checks", []))
    rel = [r["std_err"] / r["oracle"] for r in rows if r["oracle"] > 0]
    extras["measures.oracle_rel_se_p50"] = statistics.median(rel) if rel else 0.0
    extras["measures.oracle_max_abs_z"] = max((abs(r["z"]) for r in rows), default=0.0)
    # negative control: a coverage estimate moved by 0.05 (about 100 sigma) must be caught
    name, p_hat, samples = outputs[-1]
    corrupted = outputs[:-1] + [(name, p_hat + 0.05 if p_hat < 0.5 else p_hat - 0.05, samples)]
    out["control_ok"] = not wl.sampled_checks(scanprob, seed, corrupted)[-1]


def main() -> int:
    cfg = json.loads(sys.argv[1])
    print(json.dumps(_run(cfg)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
