// Tests for the experiment driver — and the first end-to-end check of the
// paper's headline claim: under high contention Euno-B+Tree aborts far less
// and runs far faster than the monolithic HTM-B+Tree.
#include <gtest/gtest.h>

#include "driver/experiment.hpp"

namespace euno::driver {
namespace {

ExperimentSpec small_spec(const std::string& tree, double theta, int threads) {
  // Figure-style configuration scaled down for test runtime: consecutive
  // (unscrambled) zipfian hot keys, half the keys preloaded with stride 2 so
  // hot inserts continue during the measured phase.
  ExperimentSpec spec;
  spec.tree = tree;
  spec.threads = threads;
  spec.workload.key_range = 1 << 16;
  spec.workload.dist = workload::DistKind::kZipfian;
  spec.workload.dist_param = theta;
  spec.workload.scramble = false;
  spec.preload = spec.workload.key_range / 2;
  spec.preload_stride = 2;
  spec.ops_per_thread = 1500;
  spec.machine.arena_bytes = 512ull << 20;
  return spec;
}

TEST(Driver, AllTreeKindsRunAndProduceOps) {
  for (const char* k : {"htm-bptree", "masstree", "htm-masstree", "euno",
                        "euno-split", "euno-part", "euno-lockbits",
                        "euno-markbits"}) {
    const auto r = run_sim_experiment(small_spec(k, 0.5, 4));
    EXPECT_EQ(r.ops, 6000u) << k;
    EXPECT_GT(r.throughput_mops, 0.0) << k;
    EXPECT_GT(r.sim_cycles, 0u) << k;
    EXPECT_GT(r.instructions_per_op, 0.0) << k;
  }
}

TEST(Driver, Deterministic) {
  const auto a = run_sim_experiment(small_spec("euno", 0.9, 8));
  const auto b = run_sim_experiment(small_spec("euno", 0.9, 8));
  EXPECT_EQ(a.sim_cycles, b.sim_cycles);
  EXPECT_EQ(a.aborts_total, b.aborts_total);
  EXPECT_EQ(a.commits, b.commits);
}

TEST(Driver, BaselineAbortsGrowWithContention) {
  const auto low = run_sim_experiment(small_spec("htm-bptree", 0.2, 16));
  const auto high = run_sim_experiment(small_spec("htm-bptree", 0.99, 16));
  EXPECT_GT(high.aborts_per_op, low.aborts_per_op * 3)
      << "Figure 2 premise: aborts must rise sharply with skew";
}

TEST(Driver, EunoBeatsBaselineUnderHighContention) {
  const auto base = run_sim_experiment(small_spec("htm-bptree", 0.99, 16));
  const auto euno = run_sim_experiment(small_spec("euno", 0.99, 16));
  EXPECT_GT(euno.throughput_mops, base.throughput_mops * 1.4)
      << "§5.2: Euno should clearly beat the monolithic baseline at θ=0.99 "
      << "(the paper reports up to 11x on its testbed; our simulated machine "
      << "reproduces the direction at a smaller magnitude)";
  EXPECT_LT(euno.aborts_per_op, base.aborts_per_op)
      << "§5.2: Euno must abort less per op";
}

TEST(Driver, EunoOverheadSmallUnderLowContention) {
  const auto base = run_sim_experiment(small_spec("htm-bptree", 0.2, 16));
  const auto euno = run_sim_experiment(small_spec("euno", 0.2, 16));
  EXPECT_GT(euno.throughput_mops, base.throughput_mops * 0.55)
      << "§5.6: adaptive control keeps low-contention overhead bounded "
      << "(the extra HTM region, mark maintenance and scattered search "
      << "cost more under our latency-dominated cost model than on the "
      << "paper's testbed)";
}

TEST(Driver, MonolithicAbortsLandInMonoSite) {
  const auto r = run_sim_experiment(small_spec("htm-bptree", 0.9, 16));
  EXPECT_GT(r.mono_aborts, 0u);
  EXPECT_EQ(r.upper_aborts + r.lower_aborts, 0u);
}

TEST(Driver, EunoAbortsConcentrateInLowerRegion) {
  const auto r = run_sim_experiment(small_spec("euno-part", 0.95, 16));
  EXPECT_EQ(r.mono_aborts, 0u);
  EXPECT_GT(r.lower_aborts, r.upper_aborts)
      << "conflicts concentrate in the leaf layer (§2.3)";
}

TEST(Driver, NativeEngineSmoke) {
  auto spec = small_spec("euno", 0.9, 2);
  spec.ops_per_thread = 2000;
  const auto r = run_native_experiment(spec);
  EXPECT_EQ(r.ops, 4000u);
  EXPECT_GT(r.throughput_mops, 0.0);
}

TEST(Driver, NativeOpenLoopOriginFollowsGeneratorSetup) {
  // The open-loop clock origin of a native store run must come after every
  // client built its op stream: a cold Zipfian zeta precompute (about 20 ms
  // at 1 Mi keys) ahead of the first arrival would otherwise show up as the
  // first op's sojourn. This key range and theta appear in no other test,
  // so the process-wide zeta cache is cold here.
  ExperimentSpec spec;
  spec.tree = "euno";
  spec.threads = 1;
  spec.workload.key_range = (1ull << 20) + 7919;
  spec.workload.dist = workload::DistKind::kZipfian;
  spec.workload.dist_param = 0.93;
  spec.preload = 1024;
  spec.ops_per_thread = 1;
  spec.store.shards = 2;
  spec.store.offered_load_mops = 0.002;  // 500 us mean inter-arrival
  spec.obs.latency = true;
  const auto r = run_native_experiment(spec);
  ASSERT_EQ(r.op_latency.count(), 1u);
  EXPECT_LT(r.op_latency.max(), 5'000'000u) << "first-op sojourn, ns";
}

// The two tests below time one-op native runs, whose measured window is
// mostly thread start and join: under a fully loaded host that alone took
// 7-10 ms, so they assert 50 ms against defects that cost 4x that.

TEST(Driver, NativeClosedLoopWindowExcludesGeneratorSetup) {
  // A native single-tree run's measured seconds must start after every
  // client built its op stream: a cold Zipfian zeta precompute (about 150 ms
  // at 8 Mi keys) inside the window would swamp a one-op run. This key range
  // and theta appear in no other test, so the zeta cache is cold here.
  ExperimentSpec spec;
  spec.tree = "euno";
  spec.threads = 1;
  spec.workload.key_range = (1ull << 23) + 13;
  spec.workload.dist = workload::DistKind::kZipfian;
  spec.workload.dist_param = 0.93;
  spec.preload = 1024;
  spec.ops_per_thread = 1;
  const auto r = run_native_experiment(spec);
  ASSERT_GT(r.throughput_mops, 0.0);
  EXPECT_LT(static_cast<double>(r.ops) / (r.throughput_mops * 1e6), 50e-3)
      << "measured window, s";
}

TEST(Driver, NativeOpenLoopThinkFloorSparesFirstArrival) {
  // The think floor follows a *completed* op. A client's first arrival has
  // none, so a 200 ms floor must not delay it: the one-op run's measured
  // window stays near the first inter-arrival gap (1 us mean here).
  ExperimentSpec spec;
  spec.tree = "euno";
  spec.threads = 1;
  spec.workload.key_range = 4096;
  spec.preload = 1024;
  spec.ops_per_thread = 1;
  spec.store.shards = 2;
  spec.store.offered_load_mops = 1;
  spec.store.think = 200'000'000;  // ns
  const auto r = run_native_experiment(spec);
  ASSERT_GT(r.throughput_mops, 0.0);
  EXPECT_LT(static_cast<double>(r.ops) / (r.throughput_mops * 1e6), 50e-3)
      << "measured window, s";
}

TEST(Driver, MemoryAccounting) {
  const auto r = run_sim_experiment(small_spec("euno", 0.5, 4));
  EXPECT_GT(r.mem_total, 0u);
  // CCM bytes are folded into each leaf allocation (one line per leaf), so
  // the reserved-keys class is the visible Euno overhead knob.
  EXPECT_LT(r.mem_reserved, r.mem_total);
}

}  // namespace
}  // namespace euno::driver
