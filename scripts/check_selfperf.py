#!/usr/bin/env python3
"""Perf-regression gate over BENCH_sim_selfperf.json.

Compares the self-perf artifact sim_selfperf wrote against the checked-in
budget (bench/selfperf_budget.json) and exits nonzero when:

  - wall_ref_ratio or obs_on_wall_ref_ratio (ns per access over the ns per
    step of a fixed host reference loop timed around each run in the same
    process) regresses more than margin_pct (default 15%) past its budget,
  - obs_overhead_pct exceeds the hard cap (the ISSUE's <25% acceptance bar),
  - the SIMD in-node search speedups fall below their floors (scalar
    dispatch via EUNO_NO_SIMD would trip this — the gate runs the real
    kernels),
  - either bit-identical tripwire (obs on/off, parallel vs sequential)
    reports false.

The ratio walls are *budgets*, not medians: they carry headroom for run
noise, and the margin sits on top. Gating on ratios rather than raw ns lets
a host slowdown, which moves the run and the reference alike, pass, while a
slower simulator, which moves only the run, fails. Tighten the budgets when
the hot path gets faster, so the gate keeps teeth. The raw ns figures are
printed for reference and not gated.

Usage: check_selfperf.py BENCH_sim_selfperf.json [budget.json]
"""

import json
import os
import sys


def fail(msg):
    print(f"check_selfperf: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {path}: {e}")


# Keys the artifact / budget must carry. Validated up front so a stale or
# truncated file produces one clear FAIL line naming the file and the keys,
# never a KeyError traceback from the comparison or summary code below.
REQUIRED_BENCH_KEYS = (
    "wall_ns_per_access",
    "obs_on_wall_ns_per_access",
    "wall_ref_ratio",
    "obs_on_wall_ref_ratio",
    "obs_overhead_pct",
    "simd_speedup_count_le",
    "simd_speedup_find_eq",
    "obs_bit_identical",
    "parallel_bit_identical",
)
REQUIRED_BUDGET_KEYS = (
    "wall_ref_ratio",
    "obs_on_wall_ref_ratio",
    "simd_speedup_count_le_min",
    "simd_speedup_find_eq_min",
)


def require_keys(doc, path, keys):
    if not isinstance(doc, dict):
        fail(f"{path}: expected a JSON object, got {type(doc).__name__}")
    missing = [k for k in keys if k not in doc]
    if missing:
        fail(f"{path}: missing required key(s): {', '.join(missing)}")


def main():
    if len(sys.argv) not in (2, 3):
        fail(f"usage: {sys.argv[0]} BENCH_sim_selfperf.json [budget.json]")
    bench_path = sys.argv[1]
    bench = load(bench_path)
    budget_path = (
        sys.argv[2]
        if len(sys.argv) == 3
        else os.path.join(
            os.path.dirname(os.path.abspath(__file__)),
            "..",
            "bench",
            "selfperf_budget.json",
        )
    )
    budget = load(budget_path)
    require_keys(bench, bench_path, REQUIRED_BENCH_KEYS)
    require_keys(budget, budget_path, REQUIRED_BUDGET_KEYS)

    errors = []
    margin = 1.0 + budget.get("margin_pct", 15) / 100.0

    for key in ("wall_ref_ratio", "obs_on_wall_ref_ratio"):
        got, limit = bench[key], budget[key]
        ceiling = limit * margin
        if got > ceiling:
            errors.append(
                f"{key}: {got:.3f} exceeds budget {limit} "
                f"(+{budget.get('margin_pct', 15)}% margin = {ceiling:.3f})"
            )

    cap = budget.get("obs_overhead_pct_max", 25)
    overhead = bench["obs_overhead_pct"]
    if overhead > cap:
        errors.append(f"obs_overhead_pct: {overhead:.1f}% exceeds cap {cap}%")

    for key, floor_key in (
        ("simd_speedup_count_le", "simd_speedup_count_le_min"),
        ("simd_speedup_find_eq", "simd_speedup_find_eq_min"),
    ):
        got, floor = bench[key], budget[floor_key]
        if got < floor:
            errors.append(
                f"{key}: {got:.2f}x below floor {floor}x "
                f"(kernel: {bench.get('simd_kernel', '?')})"
            )

    for key in ("obs_bit_identical", "parallel_bit_identical"):
        if bench.get(key) is not True:
            errors.append(f"{key}: expected true, got {bench.get(key)!r}")

    if errors:
        for e in errors:
            print(f"check_selfperf: FAIL: {e}", file=sys.stderr)
        sys.exit(1)

    print(
        "check_selfperf: OK: "
        f"wall {bench['wall_ref_ratio']:.3f}x ref "
        f"({bench['wall_ns_per_access']:.1f} ns/access), "
        f"obs on {bench['obs_on_wall_ref_ratio']:.3f}x ref "
        f"({bench['obs_on_wall_ns_per_access']:.1f} ns, "
        f"{bench['obs_overhead_pct']:.1f}% overhead), "
        f"SIMD {bench.get('simd_kernel', '?')} "
        f"count_le {bench['simd_speedup_count_le']:.2f}x / "
        f"find_eq {bench['simd_speedup_find_eq']:.2f}x"
    )


if __name__ == "__main__":
    main()
