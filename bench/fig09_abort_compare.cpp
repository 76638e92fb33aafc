// Figure 9: HTM aborts per operation, Euno-B+Tree vs. HTM-B+Tree, decomposed
// by cause, under different contention rates (16 threads).
//
// Expected shape: the baseline's aborts/op grow steeply with θ (the paper
// reports 60.3/op at extreme contention); Euno eliminates most of them
// (paper: 1.9/op), and what remains sits in the lower region.
#include "fig_common.hpp"

using namespace euno;

int main(int argc, char** argv) {
  const auto args = stats::BenchArgs::parse(argc, argv);
  auto spec = bench::figure_spec(args);
  bench::print_header("Figure 9", "aborts/op, Euno vs. baseline", spec);

  stats::Table table({"theta", "tree", "aborts_per_op", "same_record",
                      "diff_record", "metadata", "upper_aborts", "lower_aborts",
                      "p99_wasted_cyc"});
  const std::vector<double> thetas =
      args.quick ? std::vector<double>{0.9} : std::vector<double>{0.5, 0.7, 0.9, 0.99};
  std::vector<driver::ExperimentSpec> specs;
  for (double theta : thetas) {
    spec.workload.dist_param = theta;
    for (const auto& kind : bench::selected_tree_kinds(
             args, {"htm-bptree", "euno"})) {
      spec.tree = kind;
      specs.push_back(spec);
    }
  }
  const auto results = bench::run_figure_sweep(specs, args);

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& r = results[i];
    const double ops = static_cast<double>(r.ops);
    table.add_row({stats::Table::num(specs[i].workload.dist_param),
                   bench::display_name(specs[i].tree),
                   stats::Table::num(r.aborts_per_op, 3),
                   stats::Table::num(r.conflicts_true_same_record / ops, 3),
                   stats::Table::num(r.conflicts_false_record / ops, 3),
                   stats::Table::num(r.conflicts_false_metadata / ops, 3),
                   stats::Table::num(r.upper_aborts),
                   stats::Table::num(r.lower_aborts),
                   stats::Table::num(static_cast<std::uint64_t>(
                       r.abort_wasted.percentile(0.99)))});
  }
  table.print(args.csv);
  bench::emit_artifacts(args, "fig09_abort_compare", specs, results);
  return 0;
}
