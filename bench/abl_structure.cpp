// Structural ablations of Euno-B+Tree beyond the paper's Figure 13 ladder:
//   (a) segment count S (1/2/4/8 at fixed fanout) — how much scattering is
//       enough, and what it costs when contention is low;
//   (b) the write scheduler's retry threshold (Algorithm 3's `threshold`);
//   (c) the adaptive detector's window and trigger threshold.
#include "ctx/sim_ctx.hpp"
#include "fig_common.hpp"
#include "trees/algo/euno_bptree.hpp"
#include "workload/ycsb.hpp"

using namespace euno;

namespace {

struct RunResult {
  double mops = 0;
  double aborts_per_op = 0;
};

template <int S>
RunResult run_euno(const driver::ExperimentSpec& spec, core::EunoConfig cfg) {
  sim::Simulation simulation(spec.machine);
  ctx::SimCtx setup(simulation, 0);
  trees::algo::EunoBPTree<ctx::SimCtx, 16, S> tree(setup, cfg);
  Xoshiro256 pre(spec.workload.seed ^ 0x9e3779b97f4a7c15ull);
  for (std::uint64_t i = 0; i < spec.preload; ++i) {
    tree.put(setup, i * spec.preload_stride, pre.next());
  }
  std::vector<ctx::SiteStats> stats(static_cast<std::size_t>(spec.threads));
  for (int t = 0; t < spec.threads; ++t) {
    simulation.spawn(t, [&, t](int core) {
      ctx::SimCtx c(simulation, core);
      workload::OpStream stream(spec.workload, t);
      for (std::uint64_t i = 0; i < spec.ops_per_thread; ++i) {
        const auto op = stream.next();
        if (op.type == workload::OpType::kGet) {
          trees::Value v;
          (void)tree.get(c, op.key, &v);
        } else {
          tree.put(c, op.key, op.value);
        }
      }
      stats[static_cast<std::size_t>(t)] = c.stats();
    });
  }
  simulation.run();
  RunResult r;
  const double ops =
      static_cast<double>(spec.ops_per_thread) * static_cast<double>(spec.threads);
  r.mops = ops / (static_cast<double>(simulation.max_clock()) / (spec.ghz * 1e9)) /
           1e6;
  std::uint64_t aborts = 0;
  for (const auto& s : stats) aborts += s.total().total_aborts();
  r.aborts_per_op = static_cast<double>(aborts) / ops;
  tree.destroy(setup);
  return r;
}

RunResult run_for_segments(int s, const driver::ExperimentSpec& spec,
                           const core::EunoConfig& cfg) {
  switch (s) {
    case 1: return run_euno<1>(spec, cfg);
    case 2: return run_euno<2>(spec, cfg);
    case 4: return run_euno<4>(spec, cfg);
    case 8: return run_euno<8>(spec, cfg);
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = stats::BenchArgs::parse(argc, argv);
  bench::restrict_tree_selection(
      args, {"euno"},
      "this bench ablates Euno-B+Tree internals (S, scheduler, adaptive)");
  auto spec = bench::figure_spec(args);
  if (args.ops_per_thread == 0) spec.ops_per_thread = 1500;

  bench::print_header("Structure ablation", "Euno parameters beyond Figure 13",
                      spec);
  stats::Table table(
      {"knob", "value", "theta", "throughput_mops", "aborts_per_op"});

  for (double theta : {0.2, 0.9}) {
    spec.workload.dist_param = theta;
    for (int s : args.quick ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8}) {
      const auto r = run_for_segments(s, spec, core::EunoConfig::with_markbits());
      table.add_row({"segments", std::to_string(s), stats::Table::num(theta),
                     stats::Table::num(r.mops), stats::Table::num(r.aborts_per_op)});
    }
  }

  spec.workload.dist_param = 0.9;
  for (int retries : args.quick ? std::vector<int>{3} : std::vector<int>{0, 1, 3, 7}) {
    auto cfg = core::EunoConfig::with_markbits();
    cfg.sched_retries = retries;
    const auto r = run_for_segments(4, spec, cfg);
    table.add_row({"sched_retries", std::to_string(retries), "0.90",
                   stats::Table::num(r.mops), stats::Table::num(r.aborts_per_op)});
  }

  for (std::uint32_t window :
       args.quick ? std::vector<std::uint32_t>{32}
                  : std::vector<std::uint32_t>{8, 32, 128}) {
    auto cfg = core::EunoConfig::full();
    cfg.adapt_window = window;
    const auto r = run_for_segments(4, spec, cfg);
    table.add_row({"adapt_window", std::to_string(window), "0.90",
                   stats::Table::num(r.mops), stats::Table::num(r.aborts_per_op)});
  }

  table.print(args.csv);
  return 0;
}
