"""scanstat benchmark: runs each workload in fresh single-threaded worker processes.

    python3 bench/run.py --workload eval-small --seed 1 --seconds 20 --trace 0
    python3 bench/run.py            # every workload, one after another

A run starts one warm-up worker, whose time is dropped, and then timed
passes, one cold worker each, until there are MIN_PASSES of them and the
timed phases add up to --seconds.  Before each pass it starts one worker
that only imports scanstat and builds the inputs, and after the last pass
more of them until there are SETUP_RUNS.  setup_s is the median set-up time
of all these workers and the passes, wall_s the mean time of a pass.  The
first pass also checks every result against independent oracles; later eval
passes must reproduce its results bit for bit.  With --trace 1 the run makes a
traced pass between two untraced ones and reports the per-layer metrics
instead.

Metrics are listed with their units in BENCHMARK.json.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.  A run
record with the environment and the input properties is written under
bench/out/.  Exit code 2 means the benchmark could not run here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_RUNS = 5
MIN_PASSES = 2
RUN_LIMIT_S = 170  # a run must end within 180 s

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run in this directory or a worker failed."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every worker
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(cfg: dict, deadline: float) -> dict:
    """Run one worker to completion; setup_s runs from launch to inputs built.

    The worker reports time.perf_counter(), which on Linux reads the same
    system-wide monotonic clock as this process.
    """
    launched = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - launched),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker for {cfg['workload']} ran past the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker for {cfg['workload']} exited {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result.pop("ready") - launched
    return result


def run_timed(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict, dict]:
    """Untraced run: cold passes until `seconds` of timed work, set-up samples spread between them."""
    setup_cfg = {"workload": workload, "seed": seed, "mode": "setup"}
    start_worker(setup_cfg, deadline)  # warm-up: it alone pays for a cold file cache
    setups, passes = [], []
    while len(passes) < MIN_PASSES or sum(p["wall_s"] for p in passes) < seconds:
        setups.append(start_worker(setup_cfg, deadline)["setup_s"])
        passes.append(start_worker(
            {"workload": workload, "seed": seed, "mode": "pass", "reference": not passes}, deadline))
    while len(setups) < SETUP_RUNS:
        setups.append(start_worker(setup_cfg, deadline)["setup_s"])
    setups += [p["setup_s"] for p in passes]
    latencies = [ms for p in passes for ms in p["latencies_ms"]]
    timed = sum(p["wall_s"] for p in passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": timed / len(passes),
        "work_per_s": sum(p["work"] for p in passes) / timed,
        "call_p50_ms": statistics.median(latencies),
        "call_p90_ms": wl.p90(latencies),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    facts = {"pass_wall_s": [p["wall_s"] for p in passes], "calls": len(latencies), "setup_s": setups}
    return metrics, summarize(passes), facts


def run_traced(workload: str, seed: int, deadline: float, trace_path: Path) -> tuple[dict, dict, dict]:
    """A traced cold pass between two untraced ones; per-layer metrics from the traced one.

    The tracing overhead is the traced wall_s minus the mean untraced wall_s,
    so that a drift of the host's speed during the run mostly cancels.
    """
    cfg = {"workload": workload, "seed": seed}
    start_worker({**cfg, "mode": "setup"}, deadline)  # warm-up, as in the untraced run
    before = start_worker({**cfg, "mode": "pass", "reference": True}, deadline)
    traced = start_worker({**cfg, "mode": "pass", "reference": False, "trace_path": str(trace_path)}, deadline)
    after = start_worker({**cfg, "mode": "pass", "reference": False}, deadline)
    untraced = (before["wall_s"] + after["wall_s"]) / 2
    layers = dict(traced["layers"])
    layers["trace.wall_s"] = traced["wall_s"]
    layers["trace.untraced_wall_s"] = untraced
    layers["trace.overhead_s"] = traced["wall_s"] - untraced
    facts = {"passes": 3, "untraced_wall_s": [before["wall_s"], after["wall_s"]],
             "trace_file": str(trace_path.relative_to(ROOT))}
    return layers, summarize([before, traced, after]), facts


def summarize(passes: list) -> dict:
    """Correctness over all passes; later passes must match the reference digests."""
    ref = passes[0]
    attempted = failed = 0
    for p in passes:
        attempted += p["attempted"]
        failed += p["failed"]
        if "digests" in p and p is not ref:
            failed += sum(a != b for a, b in zip(p["digests"], ref["digests"]))
            failed += abs(len(p["digests"]) - len(ref["digests"]))
    controls_ok = all(p["control_ok"] for p in passes)
    return {
        "correct": failed == 0 and controls_ok,
        "attempted": attempted,
        "failed": failed,
        "controls_ok": controls_ok,
        "env": ref["env"],
        "inputs": {**ref["inputs"], **{k: ref[k] for k in ("terms", "result_bits") if k in ref}},
        "counts": ref["layers"],
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of this checkout; None when it is not a git work tree of its own."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None if proc.returncode == 0 else None


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload, write its run record and return it."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    if trace:
        values, check, facts = run_traced(workload, seed, deadline, path.with_suffix(".spans.jsonl"))
        declared = spec["per_layer"]
    else:
        values, check, facts = run_timed(workload, seed, seconds, deadline)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {k: check[k] for k in ("correct", "attempted", "failed")}
    result["metrics"] = metrics
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload)
    record = {
        "workload": workload, "why": why, "seed": seed, "seconds": seconds, "trace": trace,
        "env": {"commit": git_commit(), "source_sha256": source_digest(), "nproc": os.cpu_count(),
                "cpus_usable": len(os.sched_getaffinity(0)), **check["env"]},
        "inputs": check["inputs"], "exact_counts": check["counts"], "run": facts,
        "controls_ok": check["controls_ok"], "fail_ratio": check["failed"] / check["attempted"],
        "result": result, "path": str(path.relative_to(ROOT)),
    }
    path.write_text(json.dumps(record, indent=2) + "\n")
    return record


def print_record(record: dict) -> None:
    result = record["result"]
    print(f"== {record['workload']} (seed {record['seed']}, trace {int(record['trace'])}): {record['why']}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'fail_ratio':34s} {record['fail_ratio']:>16.6g} ({result['failed']}/{result['attempted']}),"
          f" negative controls {'caught' if record['controls_ok'] else 'MISSED'}")
    print(f"  run record: {record['path']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="timed work per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        if not (ROOT / "src" / "scanstat" / "__init__.py").is_file():
            raise BenchError(f"no scanstat source tree under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
        records = []
        for name in names:
            records.append(run_workload(spec, name, args.seed, seconds, bool(args.trace)))
            print_record(records[-1])
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(records) == 1:
        print(json.dumps(records[0]["result"]))
    else:
        results = [r["result"] for r in records]
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "workloads": {r["workload"]: r["result"]["metrics"] for r in records},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
