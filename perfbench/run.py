#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, Release) into .bench_build/perfbench;
later runs only rebuild what changed. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. With --workload all the
three workloads run in turn and a combined JSON line closes the output.
Exits non-zero when the build fails, an output check fails, or a run does
not finish in time.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["sim-hot", "sim-store-load", "native-url-store"]


def run_timeout_s(seconds):
    """How long one workload may run: its measured time twice over (set-ups,
    output checks and the sim cross-check come on top) plus a fixed margin;
    175 s at --seconds 20."""
    return 135 + 2 * seconds


def source_id():
    """The git commit when the checkout is a git work tree, else a digest of
    the sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return "git:" + sha.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def build():
    """Configures and builds the benchmark; returns False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs]]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env)
        except OSError as e:
            print(f"perfbench: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return False
    return True


def run_one(workload, seed, seconds, trace, source):
    """Runs one workload; returns (exit code, its JSON result or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--source", source]
    if trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, f"{workload}-seed{seed}.csv")]
    timeout = run_timeout_s(seconds)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish in {timeout} s",
              file=sys.stderr)
        return 1, None
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None and done.returncode == 0:
        return 1, None
    return done.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not build():
        return 1
    source = source_id()
    if args.workload != "all":
        code, _ = run_one(args.workload, args.seed, args.seconds, args.trace,
                          source)
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        code, result = run_one(w, args.seed, args.seconds, args.trace,
                               source)
        worst = worst or code
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = m
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
