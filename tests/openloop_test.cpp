// Open-loop traffic generation battery (`ctest -L store`): the arrival
// schedule is a pure function of (seed, client) — deterministic, replayable
// from a repro line, independent of store behavior — and a store-enabled
// open-loop experiment is bit-identical whether the sweep runs sequentially
// or fanned out over --jobs workers.
#include <gtest/gtest.h>

#include <vector>

#include "driver/experiment.hpp"
#include "driver/parallel.hpp"
#include "workload/openloop.hpp"

namespace euno::workload {
namespace {

OpenLoopSpec small_spec() {
  OpenLoopSpec s;
  s.seed = 99;
  s.clients = 4;
  s.mean_gap = 250.0;
  s.think = 0;
  return s;
}

std::vector<std::uint64_t> schedule_of(const OpenLoopSpec& s, int client,
                                       int n) {
  ArrivalStream a(s, client);
  std::vector<std::uint64_t> out;
  for (int i = 0; i < n; ++i) out.push_back(a.next(/*completion=*/0));
  return out;
}

TEST(ArrivalStream, DeterministicPerClientAndDecorrelatedAcrossClients) {
  const auto s = small_spec();
  EXPECT_EQ(schedule_of(s, 0, 200), schedule_of(s, 0, 200));
  EXPECT_NE(schedule_of(s, 0, 200), schedule_of(s, 1, 200));
  auto other_seed = s;
  other_seed.seed = 100;
  EXPECT_NE(schedule_of(s, 0, 200), schedule_of(other_seed, 0, 200));
}

TEST(ArrivalStream, ScheduleIsMonotoneWithMeanNearTarget) {
  const auto s = small_spec();
  ArrivalStream a(s, 2);
  std::uint64_t prev = 0;
  const int kN = 4000;
  std::uint64_t last = 0;
  for (int i = 0; i < kN; ++i) {
    const std::uint64_t t = a.next(0);
    ASSERT_GT(t, prev) << "arrival schedule must strictly advance";
    prev = t;
    last = t;
  }
  // Mean inter-arrival within 10% of the configured 250 cycles.
  const double mean = static_cast<double>(last) / kN;
  EXPECT_GT(mean, 225.0);
  EXPECT_LT(mean, 275.0);
}

TEST(ArrivalStream, LatenessDoesNotShiftTheSchedule) {
  // Open-loop property: a slow store (late completions) must not push
  // scheduled arrivals back. Without think time, the schedule is identical
  // whether completions kept up or lagged far behind.
  const auto s = small_spec();
  ArrivalStream on_time(s, 3);
  ArrivalStream lagging(s, 3);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t a = on_time.next(/*completion=*/0);
    const std::uint64_t b = lagging.next(/*completion=*/1000000 + 500ull * i);
    ASSERT_EQ(a, b);
  }
}

TEST(ArrivalStream, ThinkTimeOnlyFloorsTheIssue) {
  auto s = small_spec();
  s.think = 10000;  // far above the 250-cycle mean gap
  ArrivalStream a(s, 0);
  // An idle client (completion 0) issues on schedule...
  const std::uint64_t first = a.next(0);
  EXPECT_LT(first, 10000u);
  // ...a busy client's next issue is floored at completion + think.
  const std::uint64_t second = a.next(/*completion=*/50000);
  EXPECT_EQ(second, 60000u);
}

TEST(OpenLoopSpec, ReproLineRoundTrips) {
  OpenLoopSpec s;
  s.seed = 12345;
  s.clients = 7;
  s.mean_gap = 333.125;
  s.think = 42;
  const std::string line = s.repro();
  OpenLoopSpec parsed;
  ASSERT_TRUE(OpenLoopSpec::parse_repro(line, &parsed)) << line;
  EXPECT_EQ(parsed.seed, s.seed);
  EXPECT_EQ(parsed.clients, s.clients);
  EXPECT_EQ(parsed.mean_gap, s.mean_gap);  // %.17g: lossless for binary64
  EXPECT_EQ(parsed.think, s.think);

  // The replayed spec regenerates the exact schedule.
  EXPECT_EQ(schedule_of(s, 0, 300), schedule_of(parsed, 0, 300));

  OpenLoopSpec reject;
  EXPECT_FALSE(OpenLoopSpec::parse_repro("openloop seed=1", &reject));
  EXPECT_FALSE(OpenLoopSpec::parse_repro(
      "openloop seed=1 clients=0 mean_gap=5 think=0", &reject));
  EXPECT_FALSE(OpenLoopSpec::parse_repro(
      "openloop seed=1 clients=2 mean_gap=-5 think=0", &reject));
  EXPECT_FALSE(OpenLoopSpec::parse_repro("garbage", &reject));
}

TEST(DriftingOpStream, BitIdenticalToOpStreamWhenDriftOff) {
  WorkloadSpec w;
  w.key_range = 1 << 16;
  w.dist = DistKind::kZipfian;
  w.dist_param = 0.9;
  w.seed = 7;
  for (const double off : {-1.0, 0.9 /* drift_to == dist_param */}) {
    OpStream plain(w, 3);
    DriftingOpStream drifting(w, 3, off, 5000);
    for (int i = 0; i < 5000; ++i) {
      const Op a = plain.next();
      const Op b = drifting.next();
      ASSERT_EQ(a.type, b.type) << "off=" << off << " i=" << i;
      ASSERT_EQ(a.key, b.key) << "off=" << off << " i=" << i;
      ASSERT_EQ(a.value, b.value) << "off=" << off << " i=" << i;
    }
  }
}

TEST(DriftingOpStream, DriftMovesTheSampledPopulation) {
  // Drifting from uniform toward a hot zipfian must change the tail of the
  // stream (and only the tail: early ops sample the start distribution with
  // high probability).
  WorkloadSpec w;
  w.key_range = 1 << 16;
  w.dist = DistKind::kZipfian;
  w.dist_param = 0.0;  // uniform start
  w.seed = 11;
  constexpr int kN = 4000;
  OpStream plain(w, 0);
  DriftingOpStream drifting(w, 0, /*drift_to=*/0.99, kN);
  int diverged = 0;
  for (int i = 0; i < kN; ++i) {
    if (plain.next().key != drifting.next().key) diverged++;
  }
  EXPECT_GT(diverged, 0) << "drift never engaged";
}

// ---------------------------------------------------------------------------
// Full-stack determinism: a store-enabled open-loop experiment through the
// parallel sweep runner is bit-identical at --jobs=1 and --jobs=2, and
// across repeated runs (the repro contract every other spec already keeps).

TEST(OpenLoopExperiment, JobsFanOutIsBitIdentical) {
  driver::ExperimentSpec spec;
  spec.tree = "euno";
  spec.threads = 4;
  spec.ops_per_thread = 120;
  spec.workload.key_range = 1 << 12;
  spec.workload.scramble = false;
  spec.preload = 1 << 11;
  spec.machine.arena_bytes = 128ull << 20;
  spec.store.shards = 2;
  spec.store.offered_load_mops = 50.0;  // open loop, deliberately hot
  spec.store.shedding = true;
  spec.store.shard_rate_mops = 5.0;
  spec.store.deadline_us = 20;
  spec.store.drift_to = 0.9;

  auto second = spec;
  second.workload.seed = 43;
  const std::vector<driver::ExperimentSpec> specs{spec, second};

  const auto seq = driver::run_sim_experiments(specs, /*jobs=*/1);
  const auto par = driver::run_sim_experiments(specs, /*jobs=*/2);
  ASSERT_EQ(seq.size(), 2u);
  ASSERT_EQ(par.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(seq[i].ops, par[i].ops) << i;
    EXPECT_EQ(seq[i].sim_cycles, par[i].sim_cycles) << i;
    EXPECT_EQ(seq[i].admitted_ops, par[i].admitted_ops) << i;
    EXPECT_EQ(seq[i].shed_ops, par[i].shed_ops) << i;
    EXPECT_EQ(seq[i].deadline_exceeded, par[i].deadline_exceeded) << i;
    EXPECT_EQ(seq[i].shard_degradations, par[i].shard_degradations) << i;
    EXPECT_EQ(seq[i].aborts_total, par[i].aborts_total) << i;
  }
  // Different seeds must actually produce different runs (the comparison
  // above is not vacuous).
  EXPECT_NE(seq[0].sim_cycles, seq[1].sim_cycles);
}

}  // namespace
}  // namespace euno::workload
