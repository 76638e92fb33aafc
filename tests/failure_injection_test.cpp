// Failure-injection tests: hostile machine configurations and degenerate
// retry policies must degrade performance, never correctness.
//   - zero retry budgets        → every region serializes on the fallback lock
//   - tiny HTM capacity         → capacity aborts everywhere, fallback rescues
//   - 100% mutual destruction   → pairwise livelock, fallback guarantees progress
//   - pathological latencies    → ordering-only sanity
#include <gtest/gtest.h>

#include <map>

#include "driver/experiment.hpp"
#include "tree_conformance.hpp"
#include "trees/factories.hpp"

namespace euno::tests {
namespace {

template <class MakeTree>
void run_hostile_sim(sim::MachineConfig cfg, MakeTree make, int threads,
                     int ops_per_thread) {
  cfg.arena_bytes = 256ull << 20;
  sim::Simulation simulation(cfg);
  ctx::SimCtx setup(simulation, 0);
  auto tree = make(setup);
  for (int t = 0; t < threads; ++t) {
    simulation.spawn(t, [&, t](int core) {
      ctx::SimCtx c(simulation, core);
      Xoshiro256 rng(500 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < ops_per_thread; ++i) {
        const Key key = rng.next_bounded(64);
        if (rng.next_bounded(2) == 0) {
          tree.put(c, key, key + 1);
        } else {
          Value v;
          if (tree.get(c, key, &v)) ASSERT_EQ(v, key + 1);
        }
      }
    });
  }
  simulation.run();
  tree.check_invariants();
  tree.destroy(setup);
}

core::EunoConfig zero_retry_config() {
  core::EunoConfig cfg = core::EunoConfig::full();
  cfg.policy.conflict_retries = 0;
  cfg.policy.capacity_retries = 0;
  cfg.policy.other_retries = 0;
  return cfg;
}

TEST(FailureInjection, ZeroRetryBudgetStillCorrect_Euno) {
  run_hostile_sim(
      sim::MachineConfig{},
      [](ctx::SimCtx& c) {
        return trees::algo::EunoBPTree<ctx::SimCtx>(c, zero_retry_config());
      },
      8, 300);
}

TEST(FailureInjection, ZeroRetryBudgetStillCorrect_Baseline) {
  run_hostile_sim(
      sim::MachineConfig{},
      [](ctx::SimCtx& c) {
        typename trees::HtmBPTree<ctx::SimCtx>::Options opt;
        opt.policy.conflict_retries = 0;
        opt.policy.capacity_retries = 0;
        opt.policy.other_retries = 0;
        return trees::HtmBPTree<ctx::SimCtx>(c, opt);
      },
      8, 300);
}

TEST(FailureInjection, TinyCapacityForcesFallbackButStaysCorrect) {
  sim::MachineConfig cfg;
  cfg.htm.write_capacity_lines = 2;
  cfg.htm.read_capacity_lines = 6;
  // Every traversal overflows the read set; ops complete via fallback.
  run_hostile_sim(
      cfg,
      [](ctx::SimCtx& c) {
        return trees::algo::EunoBPTree<ctx::SimCtx>(c, core::EunoConfig::full());
      },
      6, 200);
}

TEST(FailureInjection, TotalMutualDestructionCannotLivelock) {
  sim::MachineConfig cfg;
  cfg.htm.mutual_abort_pct = 100;  // every conflict kills both parties
  run_hostile_sim(
      cfg,
      [](ctx::SimCtx& c) {
        return trees::HtmBPTree<ctx::SimCtx>(c);
      },
      12, 250);
}

TEST(FailureInjection, ExtremeLatencySkew) {
  sim::MachineConfig cfg;
  cfg.latency.l1_hit = 1;
  cfg.latency.local_cache = 500;
  cfg.latency.remote_cache = 2000;
  cfg.latency.dram = 3000;
  run_hostile_sim(
      cfg,
      [](ctx::SimCtx& c) {
        return trees::algo::EunoBPTree<ctx::SimCtx>(c, core::EunoConfig::full());
      },
      6, 150);
}

TEST(FailureInjection, CapacityAbortsAreCountedAsCapacity) {
  sim::MachineConfig cfg;
  cfg.htm.read_capacity_lines = 4;
  cfg.arena_bytes = 256ull << 20;
  sim::Simulation simulation(cfg);
  ctx::SimCtx setup(simulation, 0);
  trees::HtmBPTree<ctx::SimCtx> tree(setup);
  for (Key k = 0; k < 2000; ++k) tree.put(setup, k, k);

  htm::TxStats st;
  simulation.spawn(0, [&](int core) {
    ctx::SimCtx c(simulation, core);
    Value v;
    for (Key k = 0; k < 50; ++k) (void)tree.get(c, k * 37, &v);
    st = c.stats().total();
  });
  simulation.run();
  EXPECT_GT(st.aborts[static_cast<int>(htm::AbortReason::kCapacity)], 0u);
  EXPECT_GT(st.fallbacks, 0u);
  tree.destroy(setup);
}

// ---- hardened retry/fallback path (DESIGN.md §10) ----

// Under total mutual destruction plus scripted abort bursts, the hardened
// policy (jittered backoff + anti-lemming + starvation hatch) must complete
// the same workload with strictly fewer fallback acquisitions than the naive
// DBX policy: desynchronized retries let HTM succeed where the naive convoy
// exhausts its budget and serializes.
TEST(FailureInjection, HardenedPolicyBeatsNaiveUnderAbortStorm) {
  driver::ExperimentSpec spec;
  spec.tree = "htm-bptree";
  spec.threads = 8;
  spec.workload.key_range = 1 << 8;  // hot: everyone collides
  spec.workload.mix = workload::OpMix{40, 60, 0, 0};
  spec.preload = 128;
  spec.ops_per_thread = 500;
  spec.machine.htm.mutual_abort_pct = 100;
  spec.machine.arena_bytes = 128ull << 20;
  spec.machine.fault.bursts = {{10000, 5000, 100}, {40000, 5000, 100}};

  auto naive = spec;
  naive.policy = htm::RetryPolicy::naive();
  const auto rn = run_sim_experiment(naive);

  auto hardened = spec;
  hardened.policy = htm::RetryPolicy::hardened();
  const auto rh = run_sim_experiment(hardened);

  ASSERT_GT(rn.fallbacks, 0u) << "regime too mild to exercise the fallback";
  EXPECT_LT(rh.fallbacks, rn.fallbacks);
  EXPECT_GT(rh.backoff_cycles, 0u);
  EXPECT_EQ(rn.backoff_cycles, 0u);  // naive path never backs off
  EXPECT_GT(rh.commits, 0u);
}

// A tree whose HTM never commits (100% abort burst) must be flipped to
// permanent lock-only mode by the health monitor: exactly one degradation
// event, and the workload still completes via the lock.
TEST(FailureInjection, HealthMonitorDegradesToLockOnly) {
  driver::ExperimentSpec spec;
  spec.tree = "htm-bptree";
  spec.threads = 4;
  spec.workload.key_range = 1 << 10;
  spec.workload.mix = workload::OpMix{50, 50, 0, 0};
  spec.preload = 128;
  spec.ops_per_thread = 300;
  spec.machine.arena_bytes = 128ull << 20;
  // From the first instrumented access on (preload runs uninstrumented at
  // step 0 and must stay healthy), HTM can never commit.
  spec.machine.fault.bursts = {{1, 1u << 30, 100}};
  spec.policy = htm::RetryPolicy::hardened();
  spec.policy.health_window = 32;
  spec.policy.health_min_commit_pct = 50;

  const auto r = run_sim_experiment(spec);
  EXPECT_EQ(r.degradations, 1u);  // the CAS admits exactly one flipper
  EXPECT_GT(r.fallbacks, 0u);
  EXPECT_GT(r.commits, 0u);
  EXPECT_GT(r.ops, 0u);
}

// A leaked fallback lock (holder exits without releasing) must not hang a
// hardened context: bounded waiting counts timeouts, and after
// lock_wait_timeout_limit timed-out episodes the sim-only rescue runs the
// transaction unsubscribed and completes under HTM.
TEST(FailureInjection, LeakedLockCannotHangHardenedContext) {
  sim::MachineConfig cfg;
  cfg.arena_bytes = 64ull << 20;
  sim::Simulation simulation(cfg);
  ctx::SimCtx setup(simulation, 0);
  auto* lock = static_cast<ctx::FallbackLock*>(setup.alloc(
      sizeof(ctx::FallbackLock), MemClass::kTreeMisc,
      sim::LineKind::kFallbackLock));
  new (lock) ctx::FallbackLock();
  auto* cell = static_cast<std::uint64_t*>(setup.alloc(
      sizeof(std::uint64_t), MemClass::kTreeMisc, sim::LineKind::kRecord));
  *cell = 0;

  htm::RetryPolicy policy = htm::RetryPolicy::hardened();
  policy.lock_wait_spin_cap = 64;
  policy.lock_wait_timeout_limit = 2;

  htm::TxStats st;
  // Core 0: acquire the lock and exit without releasing (a crashed /
  // descheduled-forever holder).
  simulation.spawn(0, [&](int core) {
    ctx::SimCtx c(simulation, core);
    ASSERT_TRUE(c.cas<std::uint32_t>(lock->word, 0, 1));
  });
  // Core 1: must still complete its transaction.
  simulation.spawn(1, [&](int core) {
    ctx::SimCtx c(simulation, core);
    c.compute(5000);  // let the holder acquire (and die) first
    const auto out = c.txn(ctx::TxSite::kMono, *lock, policy,
                           [&] { c.write(*cell, std::uint64_t{42}); });
    EXPECT_FALSE(out.used_fallback);
    st = c.stats().total();
  });
  simulation.run();

  EXPECT_EQ(*cell, 42u);
  EXPECT_GE(st.lock_wait_timeouts, 2u);
  EXPECT_GE(st.unsubscribed_attempts, 1u);
  EXPECT_EQ(st.commits, 1u);
  EXPECT_GT(st.lock_wait_cycles, 0u);
  setup.free(lock, sizeof(ctx::FallbackLock), MemClass::kTreeMisc);
  setup.free(cell, sizeof(std::uint64_t), MemClass::kTreeMisc);
}

// The full hardened feature set under a hostile machine must stay correct
// (conformance-style invariants via run_hostile_sim).
TEST(FailureInjection, HardenedPolicyStaysCorrectUnderMutualDestruction) {
  sim::MachineConfig cfg;
  cfg.htm.mutual_abort_pct = 100;
  core::EunoConfig ecfg = core::EunoConfig::full();
  ecfg.policy = htm::RetryPolicy::hardened();
  ecfg.policy.health_window = 256;
  run_hostile_sim(
      cfg,
      [ecfg](ctx::SimCtx& c) {
        return trees::algo::EunoBPTree<ctx::SimCtx>(c, ecfg);
      },
      8, 250);
}

TEST(FailureInjection, DriverWithScansAndDeletesUnderHostileMachine) {
  driver::ExperimentSpec spec;
  spec.tree = "euno";
  spec.threads = 8;
  spec.workload.key_range = 1 << 12;
  spec.workload.mix = workload::OpMix{30, 40, 15, 15};
  spec.workload.dist_param = 0.9;
  spec.workload.scramble = false;
  spec.preload = 1 << 11;
  spec.ops_per_thread = 400;
  spec.machine.htm.mutual_abort_pct = 90;
  spec.machine.arena_bytes = 256ull << 20;
  spec.policy.conflict_retries = 1;
  const auto r = run_sim_experiment(spec);
  EXPECT_EQ(r.ops, 3200u);
  EXPECT_GT(r.throughput_mops, 0.0);
}

}  // namespace
}  // namespace euno::tests
