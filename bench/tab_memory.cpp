// §5.7: memory consumption analysis. Euno-B+Tree's extra structures are the
// reserved-keys buffers and the conflict-control module; the paper measures
// 2-8% overhead (Valgrind) across contention rates, get/put ratios and input
// distributions. We measure the same quantity with the built-in counting
// allocator: live tree bytes at end of run, Euno vs. the baseline.
#include "fig_common.hpp"

using namespace euno;

namespace {

struct Row {
  std::string label;
  driver::ExperimentSpec spec;
};

double mb(std::uint64_t b) { return static_cast<double>(b) / (1 << 20); }

}  // namespace

int main(int argc, char** argv) {
  const auto args = stats::BenchArgs::parse(argc, argv);
  auto base = bench::figure_spec(args);
  // Smaller store + more operations than the figure default, so the measured
  // phase (not the preload) dominates the allocation behaviour.
  if (args.key_range == 0) base.workload.key_range = 1 << 17;
  base.preload = base.workload.key_range / 2;
  if (args.ops_per_thread == 0) base.ops_per_thread = 6000;
  bench::print_header("Table (5.7)", "memory overhead of Euno structures", base);

  std::vector<Row> rows;
  for (double theta : args.quick ? std::vector<double>{0.5}
                                 : std::vector<double>{0.0, 0.5, 0.9, 0.99}) {
    Row r{"zipf theta=" + stats::Table::num(theta), base};
    r.spec.workload.dist_param = theta;
    rows.push_back(r);
  }
  for (int get_pct : {20, 80}) {
    Row r{"mix " + std::to_string(get_pct) + "/" + std::to_string(100 - get_pct),
          base};
    r.spec.workload.mix.get_pct = get_pct;
    r.spec.workload.mix.put_pct = 100 - get_pct;
    rows.push_back(r);
  }
  if (!args.quick) {
    Row ss{"selfsimilar", base};
    ss.spec.workload.dist = workload::DistKind::kSelfSimilar;
    ss.spec.workload.dist_param = 0.2;
    rows.push_back(ss);
    Row po{"poisson", base};
    po.spec.workload.dist = workload::DistKind::kPoisson;
    po.spec.workload.dist_param = 0.70;
    rows.push_back(po);
    Row un{"uniform", base};
    un.spec.workload.dist = workload::DistKind::kUniform;
    rows.push_back(un);
  }

  // Two specs per row (baseline, then the subject — Euno by default,
  // --tree swaps it), flattened for the sweep runner.
  const std::string subject = bench::selected_tree_kind(args, "euno");
  std::vector<driver::ExperimentSpec> specs;
  for (auto& row : rows) {
    row.spec.tree = "htm-bptree";
    specs.push_back(row.spec);
    row.spec.tree = subject;
    specs.push_back(row.spec);
  }
  const auto results = bench::run_figure_sweep(specs, args);

  stats::Table table({"workload", "baseline_mb", "euno_mb", "overhead_pct",
                      "reserved_mb", "ccm_note"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    const auto& rb = results[2 * i];
    const auto& re = results[2 * i + 1];
    const double overhead =
        100.0 * (static_cast<double>(re.mem_total) / rb.mem_total - 1.0);
    table.add_row({row.label, stats::Table::num(mb(rb.mem_total)),
                   stats::Table::num(mb(re.mem_total)),
                   stats::Table::num(overhead, 1),
                   stats::Table::num(mb(re.mem_reserved)),
                   "1 line/leaf (in leaf alloc)"});
  }
  table.print(args.csv);
  bench::emit_artifacts(args, "tab_memory", specs, results);
  std::printf(
      "\nNote: Euno leaves also carry fixed per-leaf lines (CCM vector,\n"
      "control line, per-segment metadata), which is why the structural\n"
      "overhead exceeds the paper's transient-buffer-only 2-8%% figure at\n"
      "this fanout; reserved-keys buffers are the dynamic component the\n"
      "paper measures.\n");
  return 0;
}
