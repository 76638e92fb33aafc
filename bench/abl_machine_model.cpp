// Ablation of the simulator's load-bearing model decisions (DESIGN.md §5):
// how the baseline-vs-Euno gap responds to
//   (a) the mutual-abort probability,
//   (b) the retry budget before falling back,
//   (c) the cross-socket transfer latency (the NUMA effect of Brown et al.
//       that the paper's related work discusses), and
//   (d) cache retention (capacity modelling on/off).
//
// These sweeps justify the defaults and show which phenomena each knob
// produces: without mutual aborts the collapse never ignites; without
// capacity modelling transactions are unrealistically short; NUMA latency
// magnifies conflicts but does not create them (the paper's position).
#include "fig_common.hpp"

using namespace euno;

namespace {

struct PairedRun {
  /// The comparison subject (Euno by default; --tree swaps it).
  std::string subject = "euno";
  std::vector<driver::ExperimentSpec> specs;  // baseline/subject interleaved
  std::vector<std::pair<std::string, std::string>> labels;  // (knob, value)

  void add(driver::ExperimentSpec spec, const std::string& knob,
           const std::string& value) {
    spec.tree = "htm-bptree";
    specs.push_back(spec);
    spec.tree = subject;
    specs.push_back(spec);
    labels.emplace_back(knob, value);
  }

  void run_and_emit(const euno::stats::BenchArgs& args, stats::Table* table) {
    const auto results = bench::run_figure_sweep(specs, args);
    bench::emit_artifacts(args, "abl_machine_model", specs, results);
    for (std::size_t i = 0; i < labels.size(); ++i) {
      const auto& base = results[2 * i];
      const auto& euno_r = results[2 * i + 1];
      table->add_row(
          {labels[i].first, labels[i].second,
           stats::Table::num(base.throughput_mops),
           stats::Table::num(base.aborts_per_op),
           stats::Table::num(euno_r.throughput_mops),
           stats::Table::num(euno_r.aborts_per_op),
           stats::Table::num(euno_r.throughput_mops / base.throughput_mops, 2) +
               "x"});
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  const auto args = stats::BenchArgs::parse(argc, argv);
  auto spec = bench::figure_spec(args);
  spec.workload.dist_param = 0.9;
  if (args.ops_per_thread == 0) spec.ops_per_thread = 1500;
  bench::print_header("Model ablation", "simulator design choices at theta=0.9",
                      spec);

  stats::Table table({"knob", "value", "base_mops", "base_ab/op", "euno_mops",
                      "euno_ab/op", "euno/base"});
  PairedRun runs;
  runs.subject = bench::selected_tree_kind(args, "euno");

  for (std::uint32_t pct : args.quick ? std::vector<std::uint32_t>{0, 50}
                                      : std::vector<std::uint32_t>{0, 25, 50,
                                                                   75, 100}) {
    auto s = spec;
    s.machine.htm.mutual_abort_pct = pct;
    runs.add(s, "mutual_abort_pct", std::to_string(pct));
  }

  for (int retries : args.quick ? std::vector<int>{10}
                                : std::vector<int>{0, 2, 10, 32, 64}) {
    auto s = spec;
    s.policy.conflict_retries = retries;
    runs.add(s, "conflict_retries", std::to_string(retries));
  }

  for (std::uint32_t remote : args.quick ? std::vector<std::uint32_t>{240}
                                         : std::vector<std::uint32_t>{40, 120,
                                                                      240, 480}) {
    auto s = spec;
    s.machine.latency.remote_cache = remote;
    runs.add(s, "remote_cache_cycles", std::to_string(remote));
  }

  {
    // Capacity modelling off: nothing ever ages out of cache.
    auto s = spec;
    s.machine.latency.l2_retention = ~0ull;
    s.machine.latency.l3_retention = ~0ull;
    runs.add(s, "cache_capacity", "off");
    runs.add(spec, "cache_capacity", "on(default)");
  }

  runs.run_and_emit(args, &table);
  table.print(args.csv);
  return 0;
}
