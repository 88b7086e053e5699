"""The four benchmark workloads: seeded inputs, one timed pass each, and the checks.

This module runs inside a worker process (see worker.py).  Input generation
is plain Python and needs nothing from scanstat; everything that calls the
package receives the imported modules as arguments.

Exact values are compared as Fractions and recorded only as digests of their
integer bytes, never through str(): results near N = 1000 carry about 3500
decimal digits per part, close to CPython's 4300-digit conversion limit.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import math
import random
import statistics
import time
from fractions import Fraction

EVAL_WORKLOADS = ("eval-small", "eval-large")
VERIFY_WORKLOADS = ("verify-exact", "verify-sampled")
WORKLOADS = EVAL_WORKLOADS + VERIFY_WORKLOADS

# eval-small: every N in 3..60, this many widths per (stat, N)
SMALL_N = range(3, 61)
SMALL_PER_CELL = 17
# eval-large: the big-integer regime up to the ROADMAP target N = 1000.  An
# all-terms p-3 call costs about N^3, 1.8 s at N = 1000, so the three-point
# statistics get fewer widths as N grows; pc-nm1 costs at most 0.03 s a call
LARGE_N = {200: 10, 300: 8, 500: 6, 1000: 3}
LARGE_PC_NM1 = 10
# at least this many candidate widths around each stratum midpoint
W_STEPS = 1009
# the acceptance sweeps evaluate w = upper * j / ACCEPT_GRID for j = 1 .. ACCEPT_GRID - 1
ACCEPT_GRID = 21

VERIFY_EXACT_COMMANDS = (
    ("verify-series", "--order", "16", "--format", "json"),
    ("cross-check", "--n-max", "40", "--format", "json"),
)
SIM_N = 8
SIM_K = 3
SIM_POINTS = 5
SAMPLES = 1_000_000
Z_CHECK = 4.0


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def threshold(stat: str, N: int) -> Fraction:
    """Width at and beyond which the CDF is identically 1."""
    if stat == "pc-nm1":
        return 1 - Fraction(2, N)
    if stat == "pc-3":
        return Fraction(2, N)
    return Fraction(2, N - 2)


def upper(stat: str, N: int) -> Fraction:
    """Top of the non-saturated width range, capped at the domain edge w = 1."""
    return min(threshold(stat, N), Fraction(1))


def _cuts(stat: str, N: int, lo: Fraction, hi: Fraction) -> list[Fraction]:
    """lo, hi and every width between them at which the kernel's term set changes.

    The kernels sum over p up to floor(1/(1-w)) (pc-nm1) or floor(1/w) (plus
    one for p-3).  The three-point binomials vanish beyond p = (2N+1)/3, so
    below 1/((2N)//3 + 2) every term is active and nothing changes.
    """
    if stat == "pc-nm1":
        pts = (1 - Fraction(1, j) for j in range(2, N // 2 + 2))
    else:
        pts = (Fraction(1, j) for j in range(max(1, N // 2), (2 * N) // 3 + 3))
    return sorted({lo, hi, *(x for x in pts if lo < x < hi)})


def loop_terms(stat: str, N: int, w: Fraction) -> int:
    """Kernel loop terms with a nonzero binomial at (N, w), read off the summation limits."""
    if stat == "pc-nm1":
        return math.floor(1 / (1 - w))
    p_max = min(N, math.floor(1 / w) + (stat == "p-3"))
    offsets = (-1, 0, 1) if stat == "p-3" else (0,)
    return sum(0 <= 3 * p - N + d <= N for p in range((N + 2) // 2, p_max + 1) for d in offsets)


def term_band(stat: str, N: int, w: Fraction) -> str:
    """How many of the loop terms this statistic can have at N are active at w."""
    if stat == "pc-nm1":
        most = loop_terms(stat, N, threshold(stat, N) - Fraction(1, N * N))
    else:
        most = loop_terms(stat, N, Fraction(1, N))
    t = loop_terms(stat, N, w)
    if t == 0:
        return "none"
    if t >= most:
        return "all"
    return "under_half" if 2 * t < most else "half_or_more"


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; these bases are exact for n < 3.4e14."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17)
    if n in bases:
        return True
    if any(n % b == 0 for b in bases):
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _widths(rng: random.Random, stat: str, N: int, lo: Fraction, hi: Fraction, count: int) -> list[Fraction]:
    """`count` distinct widths in (lo, hi), one in each of `count` equal strata.

    Each width lies next to its stratum's midpoint, at a seeded position
    inside the stretch of constant term set that holds the midpoint: a/q,
    with q the first prime above W_STEPS / (length of that stretch).  So the
    inputs follow the uniform sweep w = upper * j / 21 of the acceptance
    tests, while the term count and the denominator of every w, and with
    them the work of a pass, do not depend on the seed.
    """
    cuts = _cuts(stat, N, lo, hi)
    out = []
    for k in range(count):
        s_lo, s_hi = lo + (hi - lo) * Fraction(k, count), lo + (hi - lo) * Fraction(k + 1, count)
        i = bisect.bisect_right(cuts, (s_lo + s_hi) / 2)
        a_lo, a_hi = max(cuts[i - 1], s_lo), min(cuts[i], s_hi)
        q = math.ceil(W_STEPS / (a_hi - a_lo))
        while not _is_prime(q):
            q += 1
        out.append(Fraction(rng.randrange(math.floor(a_lo * q) + 1, math.ceil(a_hi * q)), q))
    return out


def cell_counts(workload: str) -> list[tuple[int, int, int]]:
    """(N, pc-nm1 widths, three-point widths) for each N of an eval workload."""
    if workload == "eval-small":
        return [(N, SMALL_PER_CELL, SMALL_PER_CELL) for N in SMALL_N]
    return [(N, LARGE_PC_NM1, count) for N, count in LARGE_N.items()]


def eval_inputs(workload: str, seed: int) -> list[tuple[str, int, Fraction]]:
    """Shuffled (stat, N, w) triples; no triple repeats.

    Below 2/N, where pc-3 saturates, pc-3 and p-3 get the same widths, so
    that pc-3 >= p-3 can be checked pairwise.  p-3 also gets widths in
    [2/N, its own upper end), as many as that band's share of its range.
    """
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for N, n_nm1, n_three in cell_counts(workload):
        out += [("pc-nm1", N, w) for w in _widths(rng, "pc-nm1", N, Fraction(0), upper("pc-nm1", N), n_nm1)]
        top = upper("pc-3", N)
        shared = _widths(rng, "pc-3", N, Fraction(0), top, n_three)
        out += [(stat, N, w) for stat in ("pc-3", "p-3") for w in shared]
        p3_top = upper("p-3", N)
        extra = math.ceil(n_three * (p3_top - top) / p3_top)
        out += [("p-3", N, w) for w in _widths(rng, "p-3", N, top, p3_top, extra)]
    rng.shuffle(out)
    return out


def band_shares(triples) -> dict:
    """Share of the (stat, N, w) triples in each term band, per statistic."""
    shares = {}
    for stat in ("pc-nm1", "pc-3", "p-3"):
        bands = [term_band(s, N, w) for s, N, w in triples if s == stat]
        shares[stat] = {b: round(bands.count(b) / len(bands), 4) for b in ("none", "under_half", "half_or_more", "all")}
    return shares


def acceptance_grid(workload: str) -> list[tuple[str, int, Fraction]]:
    """The acceptance sweep's widths, w = upper * j / 21, at this workload's N values."""
    return [
        (stat, N, upper(stat, N) * Fraction(j, ACCEPT_GRID))
        for N, _, _ in cell_counts(workload)
        for stat in ("pc-nm1", "pc-3", "p-3")
        for j in range(1, ACCEPT_GRID)
    ]


def sampled_widths(seed: int) -> tuple[list[Fraction], Fraction]:
    """The simulate grid, below 2/SIM_N where both 3-point CDFs are not saturated,
    and one coverage width in the upper half of pc-nm1's non-saturated range."""
    rng = random.Random(f"verify-sampled:{seed}")
    top = Fraction(2, SIM_N)
    grid = sorted(
        top * Fraction(k * W_STEPS + rng.randrange(1, W_STEPS), SIM_POINTS * W_STEPS) for k in range(SIM_POINTS)
    )
    thr = threshold("pc-nm1", SIM_N)
    coverage_w = Fraction(1, 2) + (thr - Fraction(1, 2)) * Fraction(rng.randrange(1, W_STEPS), W_STEPS)
    return grid, coverage_w


def input_properties(workload: str, seed: int, inputs) -> dict:
    """What a cache or kernel change depends on, for the run record."""
    if workload not in EVAL_WORKLOADS:
        if workload == "verify-exact":
            return {"commands": [list(c) for c in VERIFY_EXACT_COMMANDS], "seed_used": False}
        _, cw = sampled_widths(seed)
        return {
            "commands": [list(c) for c in sampled_commands(seed)],
            "coverage_dual": {"N": SIM_N, "k": SIM_N - 1, "w": float(cw), "samples": SAMPLES, "seed": seed},
        }
    seen, reuse = set(), 0
    for _, N, _ in inputs:
        reuse += N in seen
        seen.add(N)
    dens = [w.denominator.bit_length() for _, _, w in inputs]
    return {
        "evaluations": len(inputs),
        "distinct_N": len(seen),
        "share_reusing_seen_N": reuse / len(inputs),
        "w_denominator_bits": {"min": min(dens), "max": max(dens)},
        "term_band_share": band_shares(inputs),
        "acceptance_grid_term_band_share": band_shares(acceptance_grid(workload)),
    }


def p90(values) -> float:
    """The 90th percentile, interpolated between the samples (never past the largest)."""
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def distribution(values) -> dict:
    values = sorted(values)
    return {
        "min": values[0],
        "p50": statistics.median(values),
        "p90": p90(values),
        "max": values[-1],
        "sum": sum(values),
    }


# ---------------------------------------------------------------------------
# Timed passes
# ---------------------------------------------------------------------------


def run_evals(scanprob, inputs, tracer) -> tuple[list, list[int]]:
    """One exact evaluation per input, each timed on its own: (values, ns per call)."""
    kinds = {k.value: k for k in scanprob.ScanKind}
    queries = [(kinds[stat], N, w) for stat, N, w in inputs]
    evaluate, ScanQuery = scanprob.evaluate, scanprob.ScanQuery
    values, latencies = [], []
    clock = time.perf_counter_ns
    for kind, N, w in queries:
        t0 = clock()
        with tracer.span("scanprob", "evaluate"):
            value = evaluate(ScanQuery(kind, N, w))
        latencies.append(clock() - t0)
        values.append(value)
    return values, latencies


def call_cli(cli, argv, tracer) -> tuple[tuple, int]:
    """Run one CLI command in-process: ((argv, exit code, stdout), ns), parsed after timing."""
    buf = io.StringIO()
    t0 = time.perf_counter_ns()
    with tracer.span("cli", argv[0]), contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    elapsed = time.perf_counter_ns() - t0
    return (argv, code, buf.getvalue()), elapsed


def sampled_commands(seed: int):
    """verify-measures, then simulate on the linear and circular grids, all at the workload seed."""
    grid, _ = sampled_widths(seed)
    w_arg = ",".join(f"{w.numerator}/{w.denominator}" for w in grid)
    measures = ("verify-measures", "--n-max", "5", "--samples", str(SAMPLES), "--seed", str(seed), "--format", "json")
    return (measures,) + tuple(
        ("simulate", "--kind", kind, "--N", str(SIM_N), "--k", str(SIM_K), "--w", w_arg,
         "--samples", str(SAMPLES), "--seed", str(seed), "--format", "json")
        for kind in ("linear", "circular")
    )


def run_verify_exact(cli, tracer) -> tuple[list, list[int]]:
    """The two exact verify commands: (outputs, ns per command)."""
    calls = [call_cli(cli, argv, tracer) for argv in VERIFY_EXACT_COMMANDS]
    return [out for out, _ in calls], [ns for _, ns in calls]


def run_verify_sampled(cli, montecarlo, seed: int, tracer) -> tuple[list, list[int]]:
    """The three sampling commands, then coverage_dual, which has no CLI command."""
    calls = [call_cli(cli, argv, tracer) for argv in sampled_commands(seed)]
    _, cw = sampled_widths(seed)
    t0 = time.perf_counter_ns()
    est = montecarlo.coverage_dual(SIM_N, SIM_N - 1, float(cw), SAMPLES, seed=seed)
    calls.append((("coverage_dual", est.p_hat, est.samples), time.perf_counter_ns() - t0))
    return [out for out, _ in calls], [ns for _, ns in calls]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _int_bytes(n: int) -> bytes:
    return n.to_bytes(n.bit_length() // 8 + 1, "big", signed=True)


def digest(p: Fraction) -> str:
    """A short fingerprint of an exact value, built from its integer bytes."""
    h = hashlib.sha256(_int_bytes(p.numerator) + b"/" + _int_bytes(p.denominator))
    return h.hexdigest()[:24]


def result_bits(p: Fraction) -> int:
    return p.numerator.bit_length() + p.denominator.bit_length()


def failed_evals(inputs, ps, refs) -> set[int]:
    """Indices of evaluations that break a check.

    Each p must equal the measure-pathway value exactly and lie in [0, 1];
    within one (stat, N) the CDF must not decrease in w; and at the same
    (N, w), pc-3 >= p-3.
    """
    bad = {i for i, (p, ref) in enumerate(zip(ps, refs)) if p != ref or not 0 <= p <= 1}
    cells: dict = {}
    for i, (stat, N, w) in enumerate(inputs):
        cells.setdefault((stat, N), []).append((w, i))
    for members in cells.values():
        members.sort()
        for (_, i), (_, j) in zip(members, members[1:]):
            if ps[j] < ps[i]:
                bad.add(j)
    index = {(stat, N, w): i for i, (stat, N, w) in enumerate(inputs)}
    for (stat, N, w), i in index.items():
        if stat == "pc-3":
            j = index.get(("p-3", N, w))
            if j is not None and ps[i] < ps[j]:
                bad.add(i)
    return bad


def eval_references(scanprob, inputs) -> list[Fraction]:
    """The same CDFs through the independent measure-normalization pathway."""
    kinds = {k.value: k for k in scanprob.ScanKind}
    return [scanprob.measure_to_probability(kinds[stat], N, w).p for stat, N, w in inputs]


def wilson(count: int, n: int, z: float) -> tuple[float, float]:
    """Wilson score interval for count successes out of n."""
    p = count / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return center - half, center + half


def brackets(p_hat: float, samples: int, exact: Fraction) -> bool:
    """The exact value lies in the Z_CHECK-sigma Wilson interval of the estimate."""
    lo, hi = wilson(round(p_hat * samples), samples, Z_CHECK)
    return lo <= float(exact) <= hi


def parse_json(text: str) -> dict:
    """A command's JSON output; empty when it printed something else."""
    try:
        payload = json.loads(text)
    except ValueError:
        return {}
    return payload if isinstance(payload, dict) else {}


def _payload(code: int, text: str) -> dict:
    """A command's JSON output; empty when it failed or printed something else."""
    return parse_json(text) if code == 0 else {}


def check_report(code: int, text: str) -> tuple[bool, dict]:
    """A verify command passes when it exits 0 and its report says passed."""
    payload = _payload(code, text)
    return code == 0 and payload.get("report", {}).get("passed") is True, payload


def sampled_checks(scanprob, seed: int, outputs) -> list[bool]:
    """One verdict per verify-measures report, simulate estimate and coverage estimate."""
    kinds = {k.value: k for k in scanprob.ScanKind}

    def exact(stat, w):
        return scanprob.evaluate(scanprob.ScanQuery(kinds[stat], SIM_N, w))

    grid, cw = sampled_widths(seed)
    verdicts = []
    for out in outputs:
        if out[0] == "coverage_dual":
            _, p_hat, samples = out
            verdicts.append(brackets(p_hat, samples, exact("pc-nm1", cw).survival))
            continue
        argv, code, text = out
        if argv[0] == "verify-measures":
            verdicts.append(check_report(code, text)[0])
            continue
        stat = "p-3" if argv[argv.index("--kind") + 1] == "linear" else "pc-3"
        rows = _payload(code, text).get("rows", [])
        if len(rows) != len(grid):
            verdicts += [False] * len(grid)
            continue
        for w, row in zip(grid, rows):
            verdicts.append(row["w"] == float(w) and brackets(row["p_hat"], row["samples"], exact(stat, w).p))
    return verdicts
