// RCU-HTM epoch-reclamation battery.
//
// The policy's safety contract has two halves: readers pinned across
// concurrent splices must never observe a freed node, and every retired
// node must eventually be freed exactly once. The tests attack both from
// three directions — a direct EpochManager unit check, deterministic
// simulator stresses (including an abort-burst fault campaign whose retire
// counts must reconcile between the tree-level epoch manager, the per-ctx
// TxStats, and the run manifest), and a real-thread native soak that
// scripts/ci.sh runs under ASAN, where a reclamation bug is a genuine
// use-after-free of operator-delete'd memory.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ctx/native_ctx.hpp"
#include "ctx/sim_ctx.hpp"
#include "driver/experiment.hpp"
#include "obs/manifest.hpp"
#include "trees/factories.hpp"
#include "util/epoch.hpp"
#include "util/rng.hpp"

namespace euno::tests {
namespace {

constexpr trees::Value pure_value(trees::Key k) { return k * 31 + 5; }

// ---- EpochManager unit semantics ----

// A reader pinned in an old epoch must block every free, no matter how many
// retirements and advance attempts pile up behind it; once the reader exits,
// the backlog drains and every pointer is freed exactly once.
TEST(EpochManagerUnit, PinnedReaderBlocksFreesUntilExit) {
  EpochManager mgr(2);
  std::set<void*> freed;
  auto deleter = [&freed](void* p) {
    EXPECT_TRUE(freed.insert(p).second) << "double free of " << p;
  };

  static char storage[400];
  mgr.enter(0);  // the reader, pinned at the initial epoch

  mgr.enter(1);
  // Well past the advance cadence: try_advance() fires several times, but
  // the reader's pin caps min_active_epoch at its entry epoch.
  for (int i = 0; i < 200; ++i) mgr.retire(1, &storage[i], deleter);
  EXPECT_EQ(mgr.retired_count(), 200u);
  EXPECT_EQ(mgr.freed_count(), 0u) << "freed under a pinned reader";
  mgr.exit(1);

  mgr.exit(0);  // reader leaves; the backlog becomes reclaimable

  // The next retirement burst crosses the cadence, advances the epoch past
  // the backlog, and frees it.
  mgr.enter(1);
  for (int i = 0; i < 200; ++i) mgr.retire(1, &storage[200 + i], deleter);
  mgr.exit(1);
  EXPECT_GT(mgr.freed_count(), 0u);
  EXPECT_LE(mgr.freed_count(), mgr.retired_count());

  mgr.drain_all();
  EXPECT_EQ(mgr.freed_count(), mgr.retired_count());
}

TEST(EpochManagerUnit, RetireDoesNotFreeInTheRetiringEpoch) {
  EpochManager mgr(1);
  int dummy;
  std::uint64_t freed = 0;
  mgr.enter(0);
  mgr.retire(0, &dummy, [&freed](void*) { ++freed; });
  // Still pinned in the retirement epoch: even an explicit advance attempt
  // must not free (min_active == retire epoch, and the rule is strict <).
  mgr.try_advance();
  EXPECT_EQ(freed, 0u);
  mgr.exit(0);
  mgr.drain_all();
  EXPECT_EQ(freed, 1u);
}

// ---- simulator stresses ----

struct SimStressResult {
  std::uint64_t stats_retired = 0;   // per-ctx TxStats, aggregated
  std::uint64_t tree_retired = 0;    // EpochManager::retired_count()
  std::uint64_t tree_freed_mid = 0;  // freed_count() before teardown
  std::uint64_t tree_freed_end = 0;  // freed_count() after destroy+drain
  std::uint64_t validation_failures = 0;
};

// Readers, scanners and splice-heavy writers on one RcuBPTree. Values are a
// pure function of the key and keys below kImmortal are preloaded and never
// erased, so a reader that lands on a freed (retired, reclaimed, reused)
// node surfaces as a wrong value, a vanished immortal key, or a scan-order
// violation at the op that observes it. Fibers preempt at every
// instrumented access, so reader pins routinely straddle whole splices.
SimStressResult run_sim_stress(const sim::FaultConfig& fault) {
  sim::MachineConfig cfg;
  cfg.arena_bytes = 256ull << 20;
  cfg.fault = fault;
  sim::Simulation simulation(cfg);
  ctx::SimCtx setup(simulation, 0);
  using Tree = trees::RcuBPTree<ctx::SimCtx>;
  Tree tree(setup, typename Tree::Options{});

  constexpr int kThreads = 6;
  constexpr int kOps = 220;
  constexpr trees::Key kImmortal = 48;
  constexpr trees::Key kRange = 512;
  for (trees::Key k = 0; k < kImmortal; ++k) {
    tree.put(setup, k, pure_value(k));
  }

  SimStressResult out;
  std::uint64_t retired_by[kThreads] = {};
  std::uint64_t vfail_by[kThreads] = {};
  for (int t = 0; t < kThreads; ++t) {
    simulation.spawn(t, [&, t](int core) {
      ctx::SimCtx c(simulation, core);
      Xoshiro256 rng(0x5EED + static_cast<std::uint64_t>(t));
      std::vector<trees::KV> buf(24);
      for (int i = 0; i < kOps; ++i) {
        const trees::Key k = rng.next_bounded(kRange);
        switch (rng.next_bounded(8)) {
          case 0:
          case 1:
          case 2:
            tree.put(c, k, pure_value(k));
            break;
          case 3:
            if (k >= kImmortal) (void)tree.erase(c, k);
            break;
          case 4: {
            // Immortal keys must stay visible with untorn values through
            // every concurrent splice.
            const trees::Key ik = rng.next_bounded(kImmortal);
            trees::Value v = 0;
            ASSERT_TRUE(tree.get(c, ik, &v)) << "immortal key " << ik
                                             << " vanished";
            ASSERT_EQ(v, pure_value(ik));
            break;
          }
          default: {
            if (rng.next_bounded(3) == 0) {
              const std::size_t n = tree.scan(c, k, buf.size(), buf.data());
              for (std::size_t j = 0; j < n; ++j) {
                ASSERT_EQ(buf[j].second, pure_value(buf[j].first));
                if (j > 0) {
                  ASSERT_LT(buf[j - 1].first, buf[j].first);
                }
              }
            } else {
              trees::Value v = 0;
              if (tree.get(c, k, &v)) {
                ASSERT_EQ(v, pure_value(k));
              }
            }
            break;
          }
        }
      }
      const htm::TxStats total = c.stats().total();
      retired_by[t] = total.epoch_retired;
      vfail_by[t] = total.validation_failures;
    });
  }
  simulation.run();

  for (int t = 0; t < kThreads; ++t) {
    out.stats_retired += retired_by[t];
    out.validation_failures += vfail_by[t];
  }
  // The preload splices retired through the setup ctx's stats.
  out.stats_retired += setup.stats().total().epoch_retired;
  out.validation_failures += setup.stats().total().validation_failures;
  out.tree_retired = tree.policy().epoch().retired_count();
  out.tree_freed_mid = tree.policy().epoch().freed_count();

  tree.check_invariants();
  ctx::SimCtx fin(simulation, 0);
  tree.destroy(fin);
  out.tree_freed_end = tree.policy().epoch().freed_count();
  return out;
}

TEST(RcuReclaim, PinnedReadersAcrossSplicesAndCountsReconcile) {
  const SimStressResult r = run_sim_stress(sim::FaultConfig{});
  // Every retire() increments exactly one ctx's TxStats counter, so the
  // aggregate must equal the epoch manager's own ledger.
  EXPECT_GT(r.tree_retired, 0u) << "stress never replaced a node";
  EXPECT_EQ(r.stats_retired, r.tree_retired);
  // Reclamation may lag (that is the point of epochs) but never run ahead,
  // and teardown must settle the ledger exactly.
  EXPECT_LE(r.tree_freed_mid, r.tree_retired);
  EXPECT_EQ(r.tree_freed_end, r.tree_retired);
}

TEST(RcuReclaim, AbortBurstCampaignReconcilesAndReplays) {
  sim::FaultConfig fault;
  fault.spurious_abort_bp = 40;
  fault.bursts = {{4000, 30000, 100}, {80000, 30000, 60}};
  const SimStressResult a = run_sim_stress(fault);
  EXPECT_GT(a.tree_retired, 0u);
  EXPECT_EQ(a.stats_retired, a.tree_retired);
  EXPECT_EQ(a.tree_freed_end, a.tree_retired);
  // The campaign is seed-deterministic: an identical run produces an
  // identical ledger, validation failures included.
  const SimStressResult b = run_sim_stress(fault);
  EXPECT_EQ(a.stats_retired, b.stats_retired);
  EXPECT_EQ(a.tree_freed_end, b.tree_freed_end);
  EXPECT_EQ(a.validation_failures, b.validation_failures);
}

// ---- manifest reconciliation through the driver ----

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

TEST(RcuReclaim, ManifestCarriesRetireCountersUnderFaults) {
  driver::ExperimentSpec spec;
  spec.tree = "rcu-bptree";
  spec.threads = 4;
  spec.workload.key_range = 1 << 10;
  spec.workload.mix = workload::OpMix{50, 40, 10, 0};
  spec.preload = 256;
  spec.ops_per_thread = 400;
  spec.machine.arena_bytes = 128ull << 20;
  spec.machine.fault.bursts = {{5000, 30000, 100}};
  const auto r = run_sim_experiment(spec);
  EXPECT_GT(r.epoch_retired, 0u);
  EXPECT_GT(r.commits, 0u);

  const auto r2 = run_sim_experiment(spec);
  EXPECT_EQ(r.epoch_retired, r2.epoch_retired);
  EXPECT_EQ(r.validation_failures, r2.validation_failures);

  const std::string path = "rcu_reclaim_manifest.json";
  ASSERT_TRUE(obs::write_manifest(path, "rcu_reclaim_test", &spec, &r, 1));
  const std::string body = slurp(path);
  std::remove(path.c_str());
  ASSERT_FALSE(body.empty());
  // The conditional key must carry exactly the tree-level count...
  std::ostringstream want;
  want << "\"epoch_retired\":" << r.epoch_retired;
  EXPECT_NE(body.find(want.str()), std::string::npos) << body.substr(0, 400);

  // ...and must stay absent for trees that never retire, keeping the
  // pre-existing golden manifests byte-identical.
  auto plain = spec;
  plain.tree = "htm-bptree";
  const auto pr = run_sim_experiment(plain);
  const std::string ppath = "rcu_reclaim_plain_manifest.json";
  ASSERT_TRUE(obs::write_manifest(ppath, "rcu_reclaim_test", &plain, &pr, 1));
  const std::string pbody = slurp(ppath);
  std::remove(ppath.c_str());
  EXPECT_EQ(pbody.find("epoch_retired"), std::string::npos);
  EXPECT_EQ(pbody.find("validation_failures"), std::string::npos);
}

// ---- native soak (the ASAN target) ----

// Real threads, real operator delete: if a splice's retired node is freed
// while a pinned reader can still reach it, ASAN reports a use-after-free
// here. Value purity and immortal keys catch logically-stale reads even in
// non-ASAN builds.
TEST(RcuReclaim, NativeReadersNeverObserveFreedNodes) {
  ctx::NativeEnv env;
  ctx::NativeCtx setup(env, 0);
  using Tree = trees::RcuBPTree<ctx::NativeCtx>;
  Tree tree(setup, typename Tree::Options{});

  constexpr int kThreads = 8;
  constexpr int kOps = 30000;
  constexpr trees::Key kImmortal = 64;
  constexpr trees::Key kRange = 2048;
  for (trees::Key k = 0; k < kImmortal; ++k) {
    tree.put(setup, k, pure_value(k));
  }

  std::vector<std::thread> ws;
  for (int t = 0; t < kThreads; ++t) {
    ws.emplace_back([&, t] {
      ctx::NativeCtx c(env, t);
      Xoshiro256 rng(0xA5A + static_cast<std::uint64_t>(t));
      std::vector<trees::KV> buf(32);
      for (int i = 0; i < kOps; ++i) {
        const trees::Key k = rng.next_bounded(kRange);
        switch (rng.next_bounded(8)) {
          case 0:
          case 1:
          case 2:
            tree.put(c, k, pure_value(k));
            break;
          case 3:
            if (k >= kImmortal) (void)tree.erase(c, k);
            break;
          case 4: {
            const trees::Key ik = rng.next_bounded(kImmortal);
            trees::Value v = 0;
            if (!tree.get(c, ik, &v) || v != pure_value(ik)) {
              GTEST_FAIL() << "immortal key " << ik << " wrong/missing";
            }
            break;
          }
          case 5: {
            const std::size_t n = tree.scan(c, k, buf.size(), buf.data());
            for (std::size_t j = 0; j < n; ++j) {
              if (buf[j].second != pure_value(buf[j].first) ||
                  (j > 0 && buf[j - 1].first >= buf[j].first)) {
                GTEST_FAIL() << "scan corruption at key " << buf[j].first;
              }
            }
            break;
          }
          default: {
            trees::Value v = 0;
            if (tree.get(c, k, &v) && v != pure_value(k)) {
              GTEST_FAIL() << "value corruption key=" << k << " v=" << v;
            }
            break;
          }
        }
      }
    });
  }
  for (auto& w : ws) w.join();
  tree.check_invariants();

  const std::uint64_t retired = tree.policy().epoch().retired_count();
  EXPECT_GT(retired, 0u);
  EXPECT_LE(tree.policy().epoch().freed_count(), retired);
  ctx::NativeCtx fin(env, 0);
  tree.destroy(fin);
  EXPECT_EQ(tree.policy().epoch().freed_count(), retired);
}

}  // namespace
}  // namespace euno::tests
