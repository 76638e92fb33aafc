#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark between two git revisions.

    python3 scripts/ab_pairs.py <base-rev> <change-rev> [--pairs N]
        [--workload W] [--seed S] [--seconds T] [--trace 0|1]
        [--scratch DIR]
    python3 scripts/ab_pairs.py --selftest

Exports each revision's committed files (git archive) into its own
directory under --scratch, builds the benchmark there once, then runs
`perfbench/run.py` with identical arguments on both sides, N times each,
alternating which side goes first in each pair. Host drift between runs
then hits both sides alike instead of biasing one.

Prints every pair as it finishes, then per workload and metric: the median
and quartiles of each side, the median of the per-pair change/base ratios
with a bootstrap 95% interval, how many pairs the change wins (by the
metric's direction in BENCHMARK.json), a two-sided sign-test p-value, and
whether the median difference exceeds the base side's interquartile range.
Standard library only. --selftest checks the statistics on fixed inputs.
"""
import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BOOTSTRAP_RESAMPLES = 10000


# ---- statistics ----

def quartiles(xs):
    """(q1, median, q3) of xs, inclusive method (a single value repeats)."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def sign_test_p(wins, losses):
    """Two-sided exact sign test: probability, under a fair coin, of a split
    at least as lopsided as wins:losses (ties are left out by the caller)."""
    n = wins + losses
    if n == 0:
        return 1.0
    k = min(wins, losses)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2 ** n
    return min(1.0, 2 * tail)


def bootstrap_median_ci(xs, resamples=BOOTSTRAP_RESAMPLES, seed=1):
    """Percentile bootstrap 95% interval of the median of xs (fixed seed, so
    the same inputs always print the same interval)."""
    rng = random.Random(seed)
    n = len(xs)
    meds = sorted(statistics.median(rng.choices(xs, k=n))
                  for _ in range(resamples))
    return meds[int(0.025 * resamples)], meds[int(0.975 * resamples) - 1]


def summarize(base, change, better):
    """Paired comparison of two equally long sample lists. `better` is
    "lower" or "higher". Returns a dict of the printed statistics."""
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    sign = -1 if better == "lower" else 1
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    losses = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    ratios = [c / b for b, c in zip(base, change) if b != 0]
    out = {
        "base": (bq1, bmed, bq3), "change": (cq1, cmed, cq3),
        "wins": wins, "losses": losses, "pairs": len(base),
        "sign_p": sign_test_p(wins, losses),
        "ratio": statistics.median(ratios) if ratios else None,
        "ratio_ci": bootstrap_median_ci(ratios) if ratios else None,
        # The change moved the median further than the base side spreads.
        "beyond_base_iqr": abs(cmed - bmed) > (bq3 - bq1),
    }
    return out


# ---- running ----

def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def export(rev, scratch):
    """The directory holding `rev`'s committed files; exported on first use
    (later invocations reuse it, and with it its benchmark build)."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    d = os.path.join(scratch, sha[:12])
    if not os.path.isdir(d):
        os.makedirs(d + ".part", exist_ok=True)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", d + ".part"], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            sys.exit(f"ab_pairs: git archive {rev} failed")
        os.rename(d + ".part", d)
    return sha, d


def build(d):
    """Builds the benchmark with the checkout's own run.py, so no pair
    pays for compilation."""
    code = ("import sys; sys.path.insert(0, 'perfbench'); import run; "
            "sys.exit(0 if run.build() else 1)")
    if subprocess.run([sys.executable, "-c", code], cwd=d,
                      stdout=sys.stderr).returncode != 0:
        sys.exit(f"ab_pairs: benchmark build failed in {d}")


def run_once(d, args):
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    done = subprocess.run(cmd, cwd=d, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"ab_pairs: no JSON result from {d} (exit "
                 f"{done.returncode})\n{done.stderr[-2000:]}")
    if done.returncode != 0 or not result.get("correct", False):
        sys.exit(f"ab_pairs: run failed in {d} (exit {done.returncode})")
    metrics = result["metrics"]
    if args.workload != "all":
        metrics = {f"{args.workload}.{k}": v for k, v in metrics.items()}
    values = {k: v["value"] for k, v in metrics.items()}
    values["fail_frac"] = result["failed"] / max(1, result["attempted"])
    return values


def directions():
    """metric name -> "lower"/"higher" from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    out = {"fail_frac": "lower"}
    for group in ("end_to_end", "per_layer"):
        for m in bench.get(group, []):
            out[m["name"]] = m["better"]
    return out


def fmt(x):
    return "-" if x is None else f"{x:.6g}"


def report(runs, better):
    rows = [("metric", "base med [q1, q3]", "change med [q1, q3]",
             "ratio [95% CI]", "wins", "sign p", "> base IQR")]
    for name in sorted(runs["base"][0]):
        base = [r[name] for r in runs["base"]]
        change = [r[name] for r in runs["change"]]
        # Keys are "<workload>.<metric>"; BENCHMARK.json names the metric.
        metric = name.split(".", 1)[-1]
        s = summarize(base, change, better.get(metric, "lower"))
        b, c, ci = s["base"], s["change"], s["ratio_ci"]
        rows.append((
            name, f"{fmt(b[1])} [{fmt(b[0])}, {fmt(b[2])}]",
            f"{fmt(c[1])} [{fmt(c[0])}, {fmt(c[2])}]",
            "-" if s["ratio"] is None else
            f"{s['ratio']:.3f} [{ci[0]:.3f}, {ci[1]:.3f}]",
            f"{s['wins']}/{s['pairs']}", f"{s['sign_p']:.4f}",
            "yes" if s["beyond_base_iqr"] else "no"))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    print()
    for r in rows:
        print("  ".join(cell.ljust(w) if i == 0 else cell.rjust(w)
                        for i, (cell, w) in enumerate(zip(r, widths))))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", default="native-url-store")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--scratch",
                    default=os.path.join(tempfile.gettempdir(), "ab_pairs"))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.base is None or args.change is None or args.pairs < 1:
        ap.error("need <base-rev> <change-rev> and --pairs >= 1")

    sides = {}
    for side, rev in (("base", args.base), ("change", args.change)):
        sides[side] = export(rev, args.scratch)
        print(f"{side}: {rev} = {sides[side][0]} in {sides[side][1]}",
              flush=True)
        build(sides[side][1])
    runs = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(run_once(sides[side][1], args))
        key = next((k for k in runs["base"][-1]
                    if k.endswith("latency_p50_ns")), None)
        shown = "" if key is None else (
            f"  {key}: base {fmt(runs['base'][-1][key])}"
            f"  change {fmt(runs['change'][-1][key])}")
        print(f"pair {i + 1:2}/{args.pairs} ({order[0]} first){shown}",
              flush=True)
    for i in range(args.pairs):
        print(f"pair {i + 1:2} base   " + json.dumps(runs["base"][i],
                                                     sort_keys=True))
        print(f"pair {i + 1:2} change " + json.dumps(runs["change"][i],
                                                     sort_keys=True))
    report(runs, directions())
    return 0


def selftest():
    def check(cond, what):
        if not cond:
            raise AssertionError(what)

    check(quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9]) == (3, 5, 7), "quartiles")
    check(quartiles([4.0]) == (4.0, 4.0, 4.0), "single-sample quartiles")
    check(abs(sign_test_p(10, 0) - 2 / 1024) < 1e-15, "sign p 10:0")
    check(abs(sign_test_p(9, 1) - 22 / 1024) < 1e-15, "sign p 9:1")
    check(abs(sign_test_p(1, 9) - 22 / 1024) < 1e-15, "sign p symmetric")
    check(sign_test_p(5, 5) == 1.0 and sign_test_p(0, 0) == 1.0,
          "sign p balanced/empty")
    check(bootstrap_median_ci([0.6] * 10) == (0.6, 0.6), "constant CI")
    xs = [0.55, 0.61, 0.58, 0.70, 0.52, 0.66, 0.59, 0.63, 0.57, 0.95]
    lo, hi = bootstrap_median_ci(xs)
    check(min(xs) <= lo <= statistics.median(xs) <= hi <= max(xs),
          "CI brackets the median")
    check(bootstrap_median_ci(xs) == (lo, hi), "CI is deterministic")
    base = [2800, 2700, 2900, 2600, 3000, 2750, 2850, 2650, 2950, 2800]
    change = [1600, 1700, 1550, 1650, 1800, 1500, 1620, 2900, 1580, 1610]
    s = summarize(base, change, "lower")
    check((s["wins"], s["losses"], s["pairs"]) == (9, 1, 10), "wins")
    check(abs(s["sign_p"] - 22 / 1024) < 1e-15, "summary sign p")
    check(s["beyond_base_iqr"], "drop beyond IQR")
    check(s["ratio_ci"][0] <= s["ratio"] <= s["ratio_ci"][1], "ratio in CI")
    flat = summarize(base, [b + 1 for b in base], "higher")
    check(flat["wins"] == 10 and not flat["beyond_base_iqr"],
          "higher-is-better wins, shift inside IQR")
    print("ab_pairs selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
