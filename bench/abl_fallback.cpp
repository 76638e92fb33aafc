// Ablation of the hardened retry/fallback path (DESIGN.md §10): naive DBX
// policy vs the hardened preset (seeded-jitter backoff + anti-lemming lock
// waiting + starvation escape hatch) across the fault regimes the injection
// framework can script. For each regime the table reports throughput, abort
// load, fallback acquisitions and the hardened path's own accounting — the
// headline claim being that under mutually-destructive contention plus abort
// bursts the hardened policy completes the same workload with strictly fewer
// fallback acquisitions (desynchronized retries let HTM succeed where the
// naive convoy serializes). Artifacts (JSON manifest incl. each regime's
// fault campaign) replay byte-identically from the same spec.
#include "fig_common.hpp"

using namespace euno;

namespace {

struct Regime {
  std::string name;
  driver::ExperimentSpec spec;
};

driver::ExperimentSpec with_policy(driver::ExperimentSpec s,
                                   const htm::RetryPolicy& p) {
  s.policy = p;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = stats::BenchArgs::parse(argc, argv);
  auto spec = bench::figure_spec(args);
  // The policy-sensitive baseline by default; --tree swaps the subject.
  spec.tree = bench::selected_tree_kind(args, "htm-bptree");
  spec.workload.dist_param = 0.9;
  spec.workload.key_range = 1 << 12;
  if (args.ops_per_thread == 0) spec.ops_per_thread = 1500;
  bench::print_header("Fallback ablation",
                      "naive vs hardened retry policy per fault regime", spec);

  std::vector<Regime> regimes;
  regimes.push_back({"baseline", spec});
  {
    auto s = spec;
    s.machine.fault.spurious_abort_bp = 25;
    regimes.push_back({"spurious", s});
  }
  {
    auto s = spec;
    s.machine.fault.capacity_schedule = {{20000, 2, 16}};
    regimes.push_back({"capshrink", s});
  }
  {
    auto s = spec;
    s.machine.fault.lock_hold_delay_pct = 50;
    s.machine.fault.lock_hold_delay_cycles = 5000;
    regimes.push_back({"lockdelay", s});
  }
  {
    auto s = spec;
    s.machine.fault.bursts = {{10000, 8000, 100}, {40000, 8000, 100}};
    regimes.push_back({"burst", s});
  }
  {
    auto s = spec;
    s.machine.htm.mutual_abort_pct = 100;
    s.machine.fault.bursts = {{10000, 8000, 100}, {40000, 8000, 100}};
    regimes.push_back({"mutual100+burst", s});
  }

  const htm::RetryPolicy naive = htm::RetryPolicy::naive();
  const htm::RetryPolicy hardened = htm::RetryPolicy::hardened();

  // Interleave naive/hardened per regime so the manifest pairs them.
  std::vector<driver::ExperimentSpec> specs;
  for (const auto& r : regimes) {
    specs.push_back(with_policy(r.spec, naive));
    specs.push_back(with_policy(r.spec, hardened));
  }

  // Three-path appendix: the same hostile regime against 3path-bptree,
  // whose staged descent (fast → middle+slow → terminal lock-only)
  // replaces global-lock degradation as the terminal mode. Two entries:
  // the hardened preset (the monitor never trips; middle/slow absorb the
  // storm and the global lock stays untouched) and a hair-trigger health
  // window mirroring the lin degrade specs, which must walk the full
  // two-stage descent to terminal — the row where degr reports 2.
  const std::size_t kPairedCount = specs.size();
  {
    auto hostile = spec;
    hostile.tree = "3path-bptree";
    hostile.machine.htm.mutual_abort_pct = 100;
    hostile.machine.fault.bursts = {{10000, 8000, 100}, {40000, 8000, 100}};
    specs.push_back(with_policy(hostile, hardened));
    htm::RetryPolicy trigger = hardened;
    trigger.health_window = 16;
    trigger.health_min_commit_pct = 100;
    specs.push_back(with_policy(hostile, trigger));
  }

  const auto results = bench::run_figure_sweep(specs, args);
  bench::emit_artifacts(args, "abl_fallback", specs, results);

  stats::Table table({"regime", "policy", "mops", "ab/op", "fallbacks",
                      "lock_wait", "backoff", "timeouts", "starv", "degr",
                      "middle", "slow", "faults"});
  const auto add_result_row = [&table](const std::string& regime,
                                       const std::string& policy,
                                       const driver::ExperimentResult& r) {
    const std::uint64_t faults = r.faults_spurious + r.faults_burst +
                                 r.faults_lock_delay +
                                 r.fault_capacity_phases;
    table.add_row({regime, policy, stats::Table::num(r.throughput_mops),
                   stats::Table::num(r.aborts_per_op),
                   std::to_string(r.fallbacks),
                   std::to_string(r.lock_wait_cycles),
                   std::to_string(r.backoff_cycles),
                   std::to_string(r.lock_wait_timeouts),
                   std::to_string(r.starvation_escapes),
                   std::to_string(r.degradations),
                   std::to_string(r.middle_commits),
                   std::to_string(r.slow_path_ops), std::to_string(faults)});
  };
  for (std::size_t i = 0; i < regimes.size(); ++i) {
    for (int h = 0; h < 2; ++h) {
      add_result_row(regimes[i].name, h == 0 ? "naive" : "hardened",
                     results[2 * i + static_cast<std::size_t>(h)]);
    }
  }
  add_result_row("3path-hostile", "hardened", results[kPairedCount]);
  add_result_row("3path-hostile", "hairtrigger", results[kPairedCount + 1]);
  table.print(args.csv);

  // Machine-checkable from the exit status: the hair-trigger run must show
  // the full staged descent (two stage flips) ending terminal.
  const auto& tp_trigger = results[kPairedCount + 1];
  if (tp_trigger.degradations != 2) {
    std::fprintf(stderr,
                 "abl_fallback: three-path hair-trigger run recorded %llu "
                 "degradations, expected the full 2-stage descent\n",
                 static_cast<unsigned long long>(tp_trigger.degradations));
    return 1;
  }

  // The headline comparison, machine-checkable from the exit status: under
  // the hostile regime the hardened policy must not serialize more. The
  // indices deliberately address the paired section, not the three-path
  // appendix rows behind it.
  const auto& last_naive = results[kPairedCount - 2];
  const auto& last_hard = results[kPairedCount - 1];
  if (last_naive.fallbacks > 0 && last_hard.fallbacks >= last_naive.fallbacks) {
    std::fprintf(stderr,
                 "abl_fallback: hardened policy did not reduce fallbacks "
                 "(%llu vs %llu)\n",
                 static_cast<unsigned long long>(last_hard.fallbacks),
                 static_cast<unsigned long long>(last_naive.fallbacks));
    return 1;
  }
  return 0;
}
