#!/usr/bin/env bash
# CI entry point. One job per invocation:
#
#   scripts/ci.sh default   # release-ish build, full test suite + perf gate
#   scripts/ci.sh tsan      # ThreadSanitizer build, thread-heavy suites only
#   scripts/ci.sh asan      # AddressSanitizer build, fault-campaign suites
#   scripts/ci.sh ubsan     # UBSan-only build, conformance + fault suites
#
# Every job builds with `-j "$(nproc)"`: a bare `-j` lets make start
# unlimited compile jobs and oversubscribes the host.
#
# The default job re-runs the `obs-native` label explicitly (the native
# telemetry round-trip: a native bench run with --trace/--metrics-interval/
# --perf, validated by check_trace.py --expect-lanes=thread) and then renders
# the generated manifest with scripts/report.py, which exits nonzero on any
# manifest schema violation.
#
# The default job also runs the repository benchmark's self-test
# (perfbench/selftest.py): simulated metrics must be byte-identical across
# two runs and a traced run must equal an untraced one — the end-to-end
# guard for changes to the ctx retry engine and the simulator.
#
# The default job finishes with the self-perf regression gate: it runs
# bench/sim_selfperf --quick (which emits the BENCH_sim_selfperf.json
# artifact in the build directory) and checks the numbers against
# bench/selfperf_budget.json via scripts/check_selfperf.py (each timed
# figure is the median of repeated interleaved runs) — failing on a
# >15% regression of ns per access relative to a host reference loop timed
# around each run, obs-on overhead above 25%, SIMD search speedups below
# their floors, or any bit-identity tripwire.
#
# The tsan job rebuilds with -DEUNO_TSAN=ON and runs the `parallel` label
# (the OS-thread sweep runner), the `lin` label (the linearizability suite,
# whose lin_explore fixture fans runs out across threads via --jobs), and
# the `conformance` label, whose native concurrent stresses now cover the
# epoch-reclaiming rcu-bptree and announce-word three-path policies — both
# built on cross-thread handshakes TSan can audit directly.
# The asan job rebuilds with -DEUNO_ASAN=ON and runs the `fault` label (the
# HTM fault-injection campaigns, the hardened retry/fallback paths, and the
# RCU reclamation battery whose native soak makes a premature free a real
# heap use-after-free — exactly what ASan exists to catch) plus the `store`
# label, whose native multi-threaded soak drives per-shard epoch domains
# concurrently — a cross-domain reclamation bug frees memory a reader in
# another shard still holds, which ASan turns into a hard failure.
# The default, tsan and asan jobs all run the `strkey` label — the
# bytes-key-domain battery (string-native conformance with shared-prefix
# torture, the u64-codec registry sweep over the str-* trees, the SIMD
# prefix-slice equivalence cases, and the fig_scan end-to-end smokes in both
# domains). TSan audits the concurrent suffix-compare/box-swap handshakes;
# ASan turns an early box free under a concurrent reader into a hard fault.
# The asan job also runs the `lin` label: the harness owns each checked tree
# through a unique_ptr<trees::AnyTree> built by the registry's factories,
# and ASan turns a lifetime slip there (or in any checked tree under an
# adversarial schedule) into a hard failure.
# The asan and ubsan jobs also run the `sim` label (the engine battery:
# interleaving vs a linear-scan reference, HTM model, engine properties), so
# both fiber-switch primitives are covered: ASan builds switch with
# swapcontext plus the ASan fiber annotations, UBSan builds with the asm
# register-only switch the default build uses.
# The ubsan job rebuilds with -DEUNO_UBSAN=ON (UBSan alone, no ASan shadow)
# and runs the `conformance` label — the per-tree suites plus the
# registry-driven sweep over every registered structure, where layout-layer
# arithmetic (bitmask shifts, placement news, union reinterpretation) would
# surface UB — together with the `fault` and `lin` labels (the mutation
# self-tests exercise deliberately broken splice/handshake paths, the one
# place stale-pointer arithmetic is reachable on purpose).
set -euo pipefail

cd "$(dirname "$0")/.."
job="${1:-default}"

case "$job" in
  default)
    cmake -B build -S .
    cmake --build build -j "$(nproc)"
    ctest --test-dir build --output-on-failure -j "$(nproc)"
    ctest --test-dir build --output-on-failure -L obs-native
    # Store robustness battery (admission, deadlines, per-shard epoch
    # domains, open-loop determinism) — part of the full run above, re-run
    # by label so a store regression is attributable at a glance.
    ctest --test-dir build --output-on-failure -L store
    # Bytes-key-domain battery, re-run by label for attributability.
    ctest --test-dir build --output-on-failure -L strkey
    python3 scripts/report.py build/obs_native_manifest.json \
      -o build/obs_native_report.html
    python3 perfbench/selftest.py
    (cd build && ./bench/sim_selfperf --quick)
    python3 scripts/check_selfperf.py build/BENCH_sim_selfperf.json
    ;;
  tsan)
    cmake -B build-tsan -S . -DEUNO_TSAN=ON
    cmake --build build-tsan -j "$(nproc)"
    ctest --test-dir build-tsan --output-on-failure -L "parallel|lin|conformance|strkey"
    ;;
  asan)
    cmake -B build-asan -S . -DEUNO_ASAN=ON
    cmake --build build-asan -j "$(nproc)"
    ctest --test-dir build-asan --output-on-failure -L "fault|store|strkey|sim|lin"
    ;;
  ubsan)
    cmake -B build-ubsan -S . -DEUNO_UBSAN=ON
    cmake --build build-ubsan -j "$(nproc)"
    ctest --test-dir build-ubsan --output-on-failure -L "conformance|fault|lin|sim"
    ;;
  *)
    echo "usage: $0 [default|tsan|asan|ubsan]" >&2
    exit 2
    ;;
esac
