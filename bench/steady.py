"""Run-to-run spread of the end-to-end metrics: run.py once per seed, one run at a time.

    python3 bench/steady.py --workloads eval-large verify-sampled --seeds 1 2 3 4 5

For each workload and metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread, (q3 - q1) / median, next
to the metric's bound from BENCHMARK.json; a spread under a third of the
bound counts as steady.  Exact counts are not timed, so only their identity
across seeds is reported by run.py's run records.  The summary is also
written to bench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    args = parser.parse_args(argv)

    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=200,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}",
                  flush=True)
        rows = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": m["bound"],
                               "steady": spread < m["bound"] / 3, "values": values}
            print(f"  {m['name']:14s} median {med:12.6g} {m['unit']:5s} spread {spread:7.4f}"
                  f"  bound {m['bound']:.2f}  {'ok' if spread < m['bound'] / 3 else 'WIDE'}", flush=True)
        summary[workload] = {"seeds": args.seeds, "all_correct": all(r["correct"] for r in runs), "metrics": rows}
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steady.json").write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
