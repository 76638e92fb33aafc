// Self-performance benchmark of the experimental substrate itself: how fast
// does the *simulator* run on the host, and how fast does a figure sweep
// regenerate? Emits BENCH_sim_selfperf.json so the perf trajectory of the
// simulator hot path is tracked across PRs (the trees' simulated numbers are
// tracked by the figure benches; this tracks the harness).
//
// Metrics:
//   - wall_ns_per_access: host nanoseconds per instrumented memory access,
//     measured over a high-contention 16-thread Euno run (the hot path:
//     mem_access -> doom check -> coherence cost -> HTM protocol), with
//     observability OFF — the number PR-over-PR regression checks gate on.
//     Median of kHotRuns timed runs.
//   - obs_on_wall_ns_per_access: the same run with every obs channel ON
//     (latency + contention + trace), tracking the cost of instrumentation;
//     the sim results must stay bit-identical either way. Median of kHotRuns
//     runs, interleaved with the obs-off runs so host drift hits both alike.
//   - obs_overhead_pct: obs-on over obs-off time, the median over the
//     kHotRuns interleaved off/on pairs.
//   - switches_per_access: fiber switches (resumes) per instrumented access
//     in the hot run — how often fibers leapfrog each other there.
//   - ns_per_switch: host nanoseconds per fiber switch, measured by a
//     16-fiber charge loop in which every charge switches fibers (all clocks
//     tie, so each charge passes the next fiber's clock). Median of kHotRuns.
//     With switches_per_access this splits wall_ns_per_access into the
//     engine's switch share and everything else.
//   - ref_ns_per_step: host nanoseconds per step of a fixed reference loop
//     that runs no project code (a dependent random walk over a 256 KiB
//     table). It is timed before and after every hot run, in the same
//     process, so it sees the same host as the run it brackets.
//   - wall_ref_ratio / obs_on_wall_ref_ratio: each hot run's ns per access
//     over the mean of its two bracketing reference timings; median of
//     kHotRuns. A host slowdown moves run and reference alike and cancels;
//     a slower simulator moves only the run. scripts/check_selfperf.py
//     gates on these ratios.
//   - simd_speedup_*: scalar over SIMD in-node search time, the median of
//     kSearchRuns interleaved scalar/SIMD timing pairs.
// The JSON artifact also carries every per-run value behind each median.
//   - sweep_experiments_per_min: experiments per minute for the standard
//     quick Figure-10 sweep (4 panels x {4,16} threads x 4 trees = 32 cells),
//     sequential and — when the host has cores — with --jobs=auto.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "fig_common.hpp"
#include "obs/json.hpp"
#include "sim/engine.hpp"
#include "trees/node/simd_search.hpp"

using namespace euno;

namespace {

double wall_ms(std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// ---- in-node search kernel timing (scalar vs dispatched SIMD) ----

std::vector<std::uint64_t> search_keys(int n) {
  std::vector<std::uint64_t> keys(static_cast<std::size_t>(n));
  std::uint64_t k = 100;
  for (auto& slot : keys) slot = (k += 17);
  return keys;
}

// Alternating hit/miss probes, cycled so the branch predictor can't lock
// onto one outcome.
std::vector<std::uint64_t> search_probes(const std::vector<std::uint64_t>& keys) {
  constexpr int kProbes = 1024;
  Xoshiro256 rng(41);
  std::vector<std::uint64_t> probes(kProbes);
  for (int i = 0; i < kProbes; ++i) {
    const std::uint64_t base =
        keys[rng.next_bounded(static_cast<std::uint64_t>(keys.size()))];
    probes[static_cast<std::size_t>(i)] = (i & 1) ? base : base + 1;
  }
  return probes;
}

using SearchKernel = int (*)(const std::uint64_t*, int, std::uint64_t);

// ns/op for one kernel over prebuilt data. `sink` accumulates the results
// (printed once by the caller) to defeat dead-code elimination.
double time_search_ns(SearchKernel kern, const std::uint64_t* data, int n,
                      const std::vector<std::uint64_t>& probes,
                      std::uint64_t* sink) {
  const std::size_t mask = probes.size() - 1;
  constexpr int kIters = 2'000'000;
  std::uint64_t acc = 0;
  // Warm-up pass faults the pages in and primes the predictor.
  for (std::size_t i = 0; i < probes.size(); ++i) {
    acc += static_cast<std::uint64_t>(kern(data, n, probes[i]));
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    acc += static_cast<std::uint64_t>(
        kern(data, n, probes[static_cast<std::size_t>(i) & mask]));
  }
  const auto t1 = std::chrono::steady_clock::now();
  *sink += acc;
  return wall_ms(t0, t1) * 1e6 / kIters;
}

// ns per fiber switch: 16 fibers charge 1 cycle `charges` times each. All
// clocks tie at every step, so each charge passes the next fiber's clock and
// hands off to it — the loop is switch-bound by construction.
double time_switch_ns(std::uint64_t charges) {
  sim::MachineConfig cfg;
  cfg.arena_bytes = 1 << 20;
  sim::Simulation sim(cfg);
  constexpr int kFibers = 16;
  for (int core = 0; core < kFibers; ++core) {
    sim.spawn(core, [&sim, charges](int) {
      for (std::uint64_t i = 0; i < charges; ++i) sim.charge(1);
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  sim.run();
  const auto t1 = std::chrono::steady_clock::now();
  return sim.switches() > 0 ? wall_ms(t0, t1) * 1e6 /
                                  static_cast<double>(sim.switches())
                            : 0;
}

// ns per step of the host reference loop: a serial random walk over a
// 256 KiB table, each step one dependent load plus a multiply-xorshift mix.
// It runs no project code, so its time tracks the host's speed, not the
// code's. Among the loops tried (32 KiB, 256 KiB and 4 MiB walks, a pure
// ALU chain, a walk on a concurrent thread), this one's ratio to the hot
// run spread least over repeated runs on a 4-vCPU VM whose speed drifted.
double time_reference_ns(std::uint64_t steps, std::uint64_t* sink) {
  constexpr std::size_t kSlots = std::size_t{1} << 15;
  static const std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> t(kSlots);
    Xoshiro256 rng(7);
    for (auto& x : t) x = rng.next();
    return t;
  }();
  std::uint64_t x = 1;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < steps; ++i) {
    x = table[x & (kSlots - 1)] ^ (x * 0x9e3779b97f4a7c15ull);
    x ^= x >> 29;
  }
  const auto t1 = std::chrono::steady_clock::now();
  *sink += x;
  return wall_ms(t0, t1) * 1e6 / static_cast<double>(steps);
}

double per_access_ns(double ms, std::uint64_t accesses) {
  return accesses > 0 ? ms * 1e6 / static_cast<double>(accesses) : 0;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0 : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// One kernel pair timed scalar-then-SIMD `runs` times, interleaved so host
// noise hits both sides of each ratio alike.
struct KernelPair {
  std::vector<double> scalar_ns, simd_ns, speedup;
};

KernelPair time_kernel_pair(SearchKernel scalar, SearchKernel simd,
                            const std::uint64_t* data, int n,
                            const std::vector<std::uint64_t>& probes, int runs,
                            std::uint64_t* sink) {
  KernelPair p;
  for (int r = 0; r < runs; ++r) {
    p.scalar_ns.push_back(time_search_ns(scalar, data, n, probes, sink));
    p.simd_ns.push_back(time_search_ns(simd, data, n, probes, sink));
    p.speedup.push_back(p.simd_ns.back() > 0
                            ? p.scalar_ns.back() / p.simd_ns.back()
                            : 0);
  }
  return p;
}

void kv_runs(obs::JsonWriter& w, const char* name, const std::vector<double>& v,
             int prec) {
  w.key(name);
  w.begin_array();
  for (double x : v) w.value(x, prec);
  w.end_array();
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = stats::BenchArgs::parse(argc, argv);

  // --- Part 1: hot-path cost (wall-ns per instrumented access) ---
  // A small store with a long measured phase, so instrumented accesses (not
  // the uninstrumented preload or arena setup) dominate the wall clock. One
  // warm-up run (page faults, zeta cache), then kHotRuns timed runs.
  auto hot = bench::figure_spec(args);
  hot.tree = "euno";
  hot.workload.dist_param = 0.9;
  hot.workload.key_range = 1 << 16;
  hot.preload = hot.workload.key_range / 2;
  hot.threads = 16;
  hot.machine.arena_bytes = 512ull << 20;
  hot.obs = {};  // instrumentation OFF: this is the gated regression number
  if (args.ops_per_thread == 0) hot.ops_per_thread = args.quick ? 4000 : 20000;
  bench::print_header("Self-perf", "simulator host-side performance", hot);

  (void)driver::run_sim_experiment(hot);

  // Same run, all observability channels on: the delta is the full cost of
  // instrumentation, and the simulated quantities must not move at all.
  auto hot_obs = hot;
  hot_obs.obs.latency = true;
  hot_obs.obs.contention = true;
  hot_obs.obs.trace = true;

  // Every timed run is bracketed by two timings of the host reference loop:
  // ref, off, ref, on, ref, off, ... — 2 * kHotRuns + 1 reference timings.
  constexpr int kHotRuns = 3;
  const std::uint64_t ref_steps = 15'000'000;  // ~130 ms per timing
  std::uint64_t ref_sink = 0;
  (void)time_reference_ns(ref_steps / 10, &ref_sink);  // warm-up (table)
  std::vector<double> hot_ms_runs, ns_runs, obs_ns_runs;
  std::vector<double> ref_ns_runs, ratio_runs, obs_ratio_runs;
  ref_ns_runs.push_back(time_reference_ns(ref_steps, &ref_sink));
  // A run's ratio: its ns per access over the mean of its two references.
  const auto timed_ratio = [&](double ns) {
    const double before = ref_ns_runs.back();
    ref_ns_runs.push_back(time_reference_ns(ref_steps, &ref_sink));
    const double ref = (before + ref_ns_runs.back()) / 2;
    return ref > 0 ? ns / ref : 0;
  };
  driver::ExperimentResult hr, orr;
  bool obs_identical = true;
  for (int r = 0; r < kHotRuns; ++r) {
    const auto h0 = std::chrono::steady_clock::now();
    hr = driver::run_sim_experiment(hot);
    const auto h1 = std::chrono::steady_clock::now();
    hot_ms_runs.push_back(wall_ms(h0, h1));
    ns_runs.push_back(per_access_ns(hot_ms_runs.back(), hr.mem_accesses));
    ratio_runs.push_back(timed_ratio(ns_runs.back()));
    const auto o0 = std::chrono::steady_clock::now();
    orr = driver::run_sim_experiment(hot_obs);
    const auto o1 = std::chrono::steady_clock::now();
    obs_ns_runs.push_back(per_access_ns(wall_ms(o0, o1), orr.mem_accesses));
    obs_ratio_runs.push_back(timed_ratio(obs_ns_runs.back()));
    obs_identical = obs_identical && orr.sim_cycles == hr.sim_cycles &&
                    orr.aborts_total == hr.aborts_total &&
                    orr.mem_accesses == hr.mem_accesses;
  }
  const double hot_ms = median(hot_ms_runs);
  const double ns_per_access = median(ns_runs);
  const double obs_ns_per_access = median(obs_ns_runs);
  const double ref_ns_per_step = median(ref_ns_runs);
  const double wall_ref_ratio = median(ratio_runs);
  const double obs_on_wall_ref_ratio = median(obs_ratio_runs);
  // Overhead per pair (each obs-on run against the obs-off run just before
  // it), then the median: host drift between pairs cancels out.
  std::vector<double> overhead_runs;
  for (int r = 0; r < kHotRuns; ++r) {
    const auto i = static_cast<std::size_t>(r);
    overhead_runs.push_back(
        ns_runs[i] > 0 ? 100.0 * (obs_ns_runs[i] / ns_runs[i] - 1.0) : 0);
  }
  const double obs_overhead_pct = median(overhead_runs);
  const double switches_per_access =
      hr.mem_accesses > 0 ? static_cast<double>(hr.sim_switches) /
                                static_cast<double>(hr.mem_accesses)
                          : 0;

  // --- Part 1.25: the engine's fiber switch alone ---
  const std::uint64_t switch_charges = args.quick ? 50'000 : 200'000;
  (void)time_switch_ns(switch_charges / 10);  // warm-up (stack pool, caches)
  std::vector<double> switch_ns_runs;
  for (int r = 0; r < kHotRuns; ++r) {
    switch_ns_runs.push_back(time_switch_ns(switch_charges));
  }
  const double ns_per_switch = median(switch_ns_runs);

  // --- Part 1.5: in-node search kernels, scalar vs dispatched SIMD ---
  // Fanout-16 sorted separators / records — the shape every descent level
  // probes. The ISSUE gate is simd_speedup_count_le >= 1.5 at fanout >= 16
  // (checked by scripts/check_selfperf.py against the budget file).
  constexpr int kSearchFanout = 16;
  const auto& scalar_k = trees::node::simd::scalar_kernels();
  const auto& simd_k = trees::node::simd::active_kernels();
  const auto keys = search_keys(kSearchFanout);
  const auto probes = search_probes(keys);
  std::vector<std::uint64_t> kv(2 * keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    kv[2 * i] = keys[i];
    kv[2 * i + 1] = i;
  }
  constexpr int kSearchRuns = 5;
  std::uint64_t sink = 0;
  const KernelPair count_le =
      time_kernel_pair(scalar_k.count_le, simd_k.count_le, keys.data(),
                       kSearchFanout, probes, kSearchRuns, &sink);
  const KernelPair find_eq =
      time_kernel_pair(scalar_k.find_eq_pairs, simd_k.find_eq_pairs, kv.data(),
                       kSearchFanout, probes, kSearchRuns, &sink);
  const double count_le_scalar_ns = median(count_le.scalar_ns);
  const double count_le_simd_ns = median(count_le.simd_ns);
  const double speedup_count_le = median(count_le.speedup);
  const double find_eq_scalar_ns = median(find_eq.scalar_ns);
  const double find_eq_simd_ns = median(find_eq.simd_ns);
  const double speedup_find_eq = median(find_eq.speedup);
  std::printf("search kernel: %s (sink %llu)\n", simd_k.name,
              static_cast<unsigned long long>((sink ^ ref_sink) & 1));

  // --- Part 2: sweep throughput (experiments/minute, quick fig10 sweep) ---
  auto sweep_spec = bench::figure_spec(args);
  sweep_spec.obs = {};  // comparable across PRs: harness cost only
  sweep_spec.ops_per_thread = args.ops_per_thread ? args.ops_per_thread : 600;
  static constexpr double kThetas[] = {0.2, 0.6, 0.9, 0.99};
  std::vector<driver::ExperimentSpec> specs;
  for (double theta : kThetas) {
    sweep_spec.workload.dist_param = theta;
    for (int threads : bench::thread_sweep(/*quick=*/true)) {
      sweep_spec.threads = threads;
      for (const auto& kind : bench::figure_tree_kinds(args)) {
        sweep_spec.tree = kind;
        specs.push_back(sweep_spec);
      }
    }
  }

  const auto s0 = std::chrono::steady_clock::now();
  const auto seq = driver::run_sim_experiments(specs, 1);
  const auto s1 = std::chrono::steady_clock::now();
  const double seq_ms = wall_ms(s0, s1);
  const double seq_epm = static_cast<double>(specs.size()) / (seq_ms / 60000.0);

  const int jobs = args.jobs > 1 ? args.jobs : driver::default_jobs();
  const auto p0 = std::chrono::steady_clock::now();
  const auto par = driver::run_sim_experiments(specs, jobs);
  const auto p1 = std::chrono::steady_clock::now();
  const double par_ms = wall_ms(p0, p1);
  const double par_epm = static_cast<double>(specs.size()) / (par_ms / 60000.0);

  // The parallel run must reproduce the sequential results bit-identically
  // (the determinism test covers this in depth; this is a cheap tripwire).
  bool identical = true;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (seq[i].sim_cycles != par[i].sim_cycles ||
        seq[i].aborts_total != par[i].aborts_total) {
      identical = false;
    }
  }

  stats::Table table({"metric", "value"});
  table.add_row({"wall_ns_per_access", stats::Table::num(ns_per_access, 1)});
  table.add_row({"obs_on_wall_ns_per_access",
                 stats::Table::num(obs_ns_per_access, 1)});
  table.add_row({"obs_overhead_pct", stats::Table::num(obs_overhead_pct, 1)});
  table.add_row({"ref_ns_per_step", stats::Table::num(ref_ns_per_step, 2)});
  table.add_row({"wall_ref_ratio", stats::Table::num(wall_ref_ratio, 3)});
  table.add_row({"obs_on_wall_ref_ratio",
                 stats::Table::num(obs_on_wall_ref_ratio, 3)});
  table.add_row({"obs_bit_identical", obs_identical ? "yes" : "NO"});
  table.add_row({"hot_run_accesses", stats::Table::num(hr.mem_accesses)});
  table.add_row({"switches_per_access",
                 stats::Table::num(switches_per_access, 3)});
  table.add_row({"ns_per_switch", stats::Table::num(ns_per_switch, 1)});
  table.add_row({"hot_run_ms", stats::Table::num(hot_ms, 1)});
  table.add_row({"simd_kernel", simd_k.name});
  table.add_row({"count_le_scalar_ns", stats::Table::num(count_le_scalar_ns, 2)});
  table.add_row({"count_le_simd_ns", stats::Table::num(count_le_simd_ns, 2)});
  table.add_row({"simd_speedup_count_le", stats::Table::num(speedup_count_le, 2)});
  table.add_row({"find_eq_scalar_ns", stats::Table::num(find_eq_scalar_ns, 2)});
  table.add_row({"find_eq_simd_ns", stats::Table::num(find_eq_simd_ns, 2)});
  table.add_row({"simd_speedup_find_eq", stats::Table::num(speedup_find_eq, 2)});
  table.add_row({"sweep_cells", stats::Table::num(
                                    static_cast<std::uint64_t>(specs.size()))});
  table.add_row({"sweep_seq_experiments_per_min", stats::Table::num(seq_epm, 1)});
  table.add_row({"sweep_jobs", stats::Table::num(
                                   static_cast<std::uint64_t>(jobs))});
  table.add_row({"sweep_par_experiments_per_min", stats::Table::num(par_epm, 1)});
  table.add_row({"parallel_speedup", stats::Table::num(seq_ms / par_ms, 2)});
  table.add_row({"parallel_bit_identical", identical ? "yes" : "NO"});
  table.print(args.csv);

  std::FILE* f = std::fopen("BENCH_sim_selfperf.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_sim_selfperf.json\n");
    return 1;
  }
  {
    obs::JsonWriter w(f);
    w.begin_object();
    w.kv("bench", "sim_selfperf");
    w.kv("wall_ns_per_access", ns_per_access, 2);
    kv_runs(w, "wall_ns_per_access_runs", ns_runs, 2);
    w.kv("obs_on_wall_ns_per_access", obs_ns_per_access, 2);
    kv_runs(w, "obs_on_wall_ns_per_access_runs", obs_ns_runs, 2);
    w.kv("obs_overhead_pct", obs_overhead_pct, 2);
    kv_runs(w, "obs_overhead_pct_runs", overhead_runs, 2);
    w.kv("ref_ns_per_step", ref_ns_per_step, 3);
    kv_runs(w, "ref_ns_per_step_runs", ref_ns_runs, 3);
    w.kv("wall_ref_ratio", wall_ref_ratio, 4);
    kv_runs(w, "wall_ref_ratio_runs", ratio_runs, 4);
    w.kv("obs_on_wall_ref_ratio", obs_on_wall_ref_ratio, 4);
    kv_runs(w, "obs_on_wall_ref_ratio_runs", obs_ratio_runs, 4);
    w.kv("obs_bit_identical", obs_identical);
    w.kv("hot_run_accesses", hr.mem_accesses);
    w.kv("hot_run_switches", hr.sim_switches);
    w.kv("switches_per_access", switches_per_access, 4);
    w.kv("ns_per_switch", ns_per_switch, 2);
    kv_runs(w, "ns_per_switch_runs", switch_ns_runs, 2);
    w.kv("hot_run_ms", hot_ms, 2);
    w.kv("simd_kernel", simd_k.name);
    w.kv("search_fanout", kSearchFanout);
    w.kv("count_le_scalar_ns", count_le_scalar_ns, 3);
    w.kv("count_le_simd_ns", count_le_simd_ns, 3);
    w.kv("simd_speedup_count_le", speedup_count_le, 3);
    kv_runs(w, "simd_speedup_count_le_runs", count_le.speedup, 3);
    w.kv("find_eq_scalar_ns", find_eq_scalar_ns, 3);
    w.kv("find_eq_simd_ns", find_eq_simd_ns, 3);
    w.kv("simd_speedup_find_eq", speedup_find_eq, 3);
    kv_runs(w, "simd_speedup_find_eq_runs", find_eq.speedup, 3);
    w.kv("sweep_cells", static_cast<std::uint64_t>(specs.size()));
    w.kv("sweep_seq_ms", seq_ms, 2);
    w.kv("sweep_seq_experiments_per_min", seq_epm, 2);
    w.kv("sweep_jobs", jobs);
    w.kv("sweep_par_ms", par_ms, 2);
    w.kv("sweep_par_experiments_per_min", par_epm, 2);
    w.kv("parallel_speedup", seq_ms / par_ms, 3);
    w.kv("parallel_bit_identical", identical);
    w.end_object();
    std::fputc('\n', f);
  }
  std::fclose(f);
  std::printf("\nwrote BENCH_sim_selfperf.json\n");
  return identical && obs_identical ? 0 : 1;
}
