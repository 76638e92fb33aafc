// Contention timeline: event-trace view of a high-contention run — aborts,
// fallback serializations, leaf splits and the adaptive detector's mode
// switches, bucketed by simulated time. Shows the dynamics the aggregate
// figures hide: the retry/fallback cascade of the monolithic baseline, and
// Euno's detector engaging the CCM on hot leaves early in the run and then
// holding the abort rate flat.
#include "ctx/sim_ctx.hpp"
#include "fig_common.hpp"
#include "trees/factories.hpp"
#include "workload/ycsb.hpp"

using namespace euno;

namespace {

struct Timeline {
  std::uint64_t bucket_cycles = 0;
  // per bucket: aborts, fallbacks, ccm-engage, ccm-bypass, splits
  std::vector<std::array<std::uint64_t, 5>> buckets;
  std::vector<sim::TraceEvent> events;  // kept for --trace export
};

template <class MakeTree>
Timeline run_traced(const driver::ExperimentSpec& spec, MakeTree make,
                    int n_buckets) {
  sim::Simulation simulation(spec.machine);
  ctx::SimCtx setup(simulation, 0);
  auto tree = make(setup);
  Xoshiro256 pre(spec.workload.seed ^ 0x9e3779b97f4a7c15ull);
  for (std::uint64_t i = 0; i < spec.preload; ++i) {
    tree.put(setup, i * spec.preload_stride, pre.next());
  }
  simulation.enable_trace();
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
    });
  }
  simulation.run();

  Timeline tl;
  tl.bucket_cycles = simulation.max_clock() / static_cast<std::uint64_t>(n_buckets) + 1;
  tl.buckets.assign(static_cast<std::size_t>(n_buckets), {});
  tl.events = simulation.trace_events();
  for (const auto& ev : tl.events) {
    auto& b = tl.buckets[std::min<std::size_t>(ev.clock / tl.bucket_cycles,
                                               tl.buckets.size() - 1)];
    switch (static_cast<ctx::TraceCode>(ev.code)) {
      case ctx::TraceCode::kAbort: b[0]++; break;
      case ctx::TraceCode::kFallback: b[1]++; break;
      case ctx::TraceCode::kAdaptiveToFull: b[2]++; break;
      case ctx::TraceCode::kAdaptiveToBypass: b[3]++; break;
      case ctx::TraceCode::kLeafSplit: b[4]++; break;
      default: break;
    }
  }
  tree.destroy(setup);
  return tl;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = stats::BenchArgs::parse(argc, argv);
  bench::restrict_tree_selection(
      args, {},
      "the timeline inherently compares the monolithic baseline against"
      " Euno-B+Tree");
  auto spec = bench::figure_spec(args);
  spec.workload.dist_param = 0.9;
  spec.threads = 20;
  if (args.ops_per_thread == 0) spec.ops_per_thread = 3000;
  const int n_buckets = args.quick ? 6 : 12;
  bench::print_header("Timeline", "event trace at theta=0.9, 20 threads", spec);

  const auto base = run_traced(
      spec,
      [&](ctx::SimCtx& c) { return trees::HtmBPTree<ctx::SimCtx>(c); },
      n_buckets);
  auto cfg = core::EunoConfig::full();
  const auto euno = run_traced(
      spec,
      [&](ctx::SimCtx& c) { return trees::algo::EunoBPTree<ctx::SimCtx>(c, cfg); },
      n_buckets);

  stats::Table table({"window", "base_aborts", "base_fallbacks", "euno_aborts",
                      "euno_fallbacks", "ccm_engaged", "ccm_bypassed",
                      "euno_splits"});
  for (int i = 0; i < n_buckets; ++i) {
    table.add_row({std::to_string(i),
                   stats::Table::num(base.buckets[i][0]),
                   stats::Table::num(base.buckets[i][1]),
                   stats::Table::num(euno.buckets[i][0]),
                   stats::Table::num(euno.buckets[i][1]),
                   stats::Table::num(euno.buckets[i][2]),
                   stats::Table::num(euno.buckets[i][3]),
                   stats::Table::num(euno.buckets[i][4])});
  }
  table.print(args.csv);
  std::printf(
      "\n(windows are equal slices of each run's simulated time; the two\n"
      "columnsets come from separate runs and differ in absolute span)\n");
  if (!args.trace_path.empty()) {
    const std::vector<obs::TraceProcess> procs = {
        {"HTM-B+Tree 20t zipfian=0.90", spec.ghz, &base.events},
        {"Euno-B+Tree 20t zipfian=0.90", spec.ghz, &euno.events},
    };
    if (obs::write_chrome_trace(args.trace_path.c_str(), procs)) {
      std::fprintf(stderr, "wrote trace to %s\n", args.trace_path.c_str());
    } else {
      std::fprintf(stderr, "error: failed writing trace to %s\n",
                   args.trace_path.c_str());
      return 1;
    }
  }
  return 0;
}
