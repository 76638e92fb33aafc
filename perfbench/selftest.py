#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Builds the benchmark, then runs all three workloads at quick size and checks
that
  - every run passes its output checks and exits 0;
  - every named metric of a workload is printed with its unit, and the JSON
    line carries every BENCHMARK.json end-to-end metric (--trace 0) and
    per-layer metric (--trace 1) with the unit BENCHMARK.json gives;
  - two invocations with the same seed print byte-identical simulated
    metrics;
  - a different seed changes the op stream.
Exits 0 when all checks pass.
"""
import json
import os
import re
import subprocess
import sys

import run as bench

# The workload's own end-to-end metrics and their units.
NAMED = {
    "sim-hot": {"sim_mops": "Mops", "sim_p50_cycles": "cycles",
                "sim_p999_cycles": "cycles", "sim_host_ns_per_op": "ns",
                "bytes_per_key": "B/key", "fail_frac": "ratio", "setup_s": "s"},
    "sim-store-load": {"sim_mops": "Mops", "sim_host_ns_per_op": "ns",
                       "sojourn_p50_us.lo": "us", "sojourn_p999_us.lo": "us",
                       "sojourn_p999_us.mid": "us", "sojourn_p999_us.hi": "us",
                       "max_rate_mops": "Mops", "bytes_per_key": "B/key",
                       "fail_frac": "ratio", "setup_s": "s"},
    "native-url-store": {"native_mops": "Mops", "native_p50_ns": "ns",
                         "native_p999_ns": "ns", "bytes_per_key": "B/key",
                         "fail_frac": "ratio", "setup_s": "s"},
}
# Metrics measured in host time; everything else a sim workload prints is
# simulated and must repeat exactly.
HOST_TIMED = {"setup_s", "sim_host_ns_per_op", "host_ns_per_op"}
METRIC_LINE = re.compile(r"^(metric|e2e) (\S+) = (\S+) (\S+)")

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL:", what)


def invoke(workload, seed, trace):
    cmd = [bench.BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--quick"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    check(done.returncode == 0,
          f"{workload} seed {seed} trace {trace} exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    check(result.get("correct") is True,
          f"{workload} seed {seed} trace {trace} failed its output checks")
    metrics, digest = {}, None
    for line in lines:
        m = METRIC_LINE.match(line)
        if m:
            metrics[(m.group(1), m.group(2))] = (m.group(3), m.group(4))
        if line.startswith("note opstream_digest "):
            digest = line.split()[-1]
    return result, metrics, digest


def simulated(metrics):
    return {k: v for k, v in metrics.items() if k[1] not in HOST_TIMED}


def main():
    if not bench.build():
        return 1
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for w in bench.WORKLOADS:
        print(f"== {w}", flush=True)
        first, m1, d1 = invoke(w, 1, 0)
        for name, unit in NAMED[w].items():
            got = m1.get(("metric", name))
            check(got is not None and got[1] == unit,
                  f"{w}: metric {name} missing or not in {unit}: {got}")
        for name, unit in e2e.items():
            got = first.get("metrics", {}).get(name, {})
            check(got.get("unit") == unit,
                  f"{w}: JSON end-to-end metric {name} missing or not in {unit}")
        check(set(first.get("metrics", {})) == set(e2e),
              f"{w}: JSON metrics differ from BENCHMARK.json end_to_end")

        traced, _, _ = invoke(w, 1, 1)
        for name, unit in layers.items():
            got = traced.get("metrics", {}).get(name, {})
            check(got.get("unit") == unit,
                  f"{w}: JSON per-layer metric {name} missing or not in {unit}")
        check(set(traced.get("metrics", {})) == set(layers),
              f"{w}: traced JSON metrics differ from BENCHMARK.json per_layer")

        _, m2, d2 = invoke(w, 1, 0)
        check(d1 is not None and d1 == d2,
              f"{w}: seed 1 gave two different op streams ({d1}, {d2})")
        if w.startswith("sim-"):
            check(simulated(m1) == simulated(m2),
                  f"{w}: simulated metrics differ between two invocations")
            mismatches = traced.get("metrics", {}).get("trace.sim_mismatches", {})
            check(mismatches.get("value") == 0,
                  f"{w}: traced run changed simulated metrics")

        _, _, d3 = invoke(w, 2, 0)
        check(d3 is not None and d1 != d3,
              f"{w}: seed 1 and seed 2 gave the same op stream ({d1})")

    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
