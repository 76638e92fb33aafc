// Tests for the Euno-B+Tree extensions: bulk loading and introspection.
#include <gtest/gtest.h>

#include <vector>

#include "tree_conformance.hpp"
#include "trees/algo/euno_bptree.hpp"

namespace euno::tests {
namespace {

using trees::algo::EunoBPTree;
using core::EunoConfig;

std::vector<KV> make_sorted(std::size_t n, Key stride = 3, Key base = 10) {
  std::vector<KV> kvs;
  kvs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    kvs.push_back(KV{base + i * stride, i * 7 + 1});
  }
  return kvs;
}

TEST(EunoBulkLoad, EmptyAndSingleton) {
  ctx::NativeEnv env;
  ctx::NativeCtx c(env, 0);
  {
    EunoBPTree<ctx::NativeCtx> tree(c, EunoConfig::full());
    tree.bulk_load(c, nullptr, 0);
    EXPECT_EQ(tree.size_slow(), 0u);
    tree.destroy(c);
  }
  {
    EunoBPTree<ctx::NativeCtx> tree(c, EunoConfig::full());
    const KV one{5, 50};
    tree.bulk_load(c, &one, 1);
    Value v = 0;
    EXPECT_TRUE(tree.get(c, 5, &v));
    EXPECT_EQ(v, 50u);
    tree.check_invariants();
    tree.destroy(c);
  }
}

class BulkLoadSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BulkLoadSizes, LoadsExactlyAndStaysOrdered) {
  const std::size_t n = GetParam();
  ctx::NativeEnv env;
  ctx::NativeCtx c(env, 0);
  EunoBPTree<ctx::NativeCtx> tree(c, EunoConfig::full());
  const auto kvs = make_sorted(n);
  tree.bulk_load(c, kvs.data(), kvs.size());
  tree.check_invariants();
  EXPECT_EQ(tree.size_slow(), n);
  for (const auto& [k, v] : kvs) {
    Value got = 0;
    ASSERT_TRUE(tree.get(c, k, &got)) << k;
    ASSERT_EQ(got, v);
  }
  // Keys between loaded ones are absent (mark bits must not lie).
  for (std::size_t i = 0; i < std::min<std::size_t>(n, 200); ++i) {
    Value got;
    ASSERT_FALSE(tree.get(c, kvs[i].first + 1, &got));
  }
  // Scans cross bulk-loaded leaf boundaries in order.
  std::vector<KV> buf(64);
  const std::size_t got = tree.scan(c, 0, buf.size(), buf.data());
  EXPECT_EQ(got, std::min<std::size_t>(64, n));
  for (std::size_t i = 0; i < got; ++i) {
    EXPECT_EQ(buf[i].first, kvs[i].first);
  }
  tree.destroy(c);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BulkLoadSizes,
                         ::testing::Values(2, 15, 16, 17, 255, 256, 257, 4096,
                                           50000));

TEST(EunoBulkLoad, MutationsAfterLoadWork) {
  ctx::NativeEnv env;
  ctx::NativeCtx c(env, 0);
  EunoBPTree<ctx::NativeCtx> tree(c, EunoConfig::full());
  const auto kvs = make_sorted(10000);
  tree.bulk_load(c, kvs.data(), kvs.size());
  // Insert between loaded keys, update, erase.
  for (Key k = 0; k < 3000; ++k) tree.put(c, 11 + k * 3, k);  // new keys
  for (Key k = 0; k < 1000; ++k) tree.put(c, 10 + k * 3, 999);  // updates
  for (Key k = 0; k < 1000; ++k) EXPECT_TRUE(tree.erase(c, 13 + k * 3));
  tree.check_invariants();
  EXPECT_EQ(tree.size_slow(), 10000u + 3000u - 1000u);
  Value v = 0;
  ASSERT_TRUE(tree.get(c, 10, &v));
  EXPECT_EQ(v, 999u);
  tree.destroy(c);
}

TEST(EunoBulkLoad, ConcurrentOpsOnBulkLoadedTree) {
  sim::Simulation simulation(test_sim_config());
  ctx::SimCtx setup(simulation, 0);
  EunoBPTree<ctx::SimCtx> tree(setup, EunoConfig::full());
  const auto kvs = make_sorted(20000, 2, 0);
  tree.bulk_load(setup, kvs.data(), kvs.size());

  for (int t = 0; t < 8; ++t) {
    simulation.spawn(t, [&, t](int core) {
      ctx::SimCtx c(simulation, core);
      Xoshiro256 rng(700 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 300; ++i) {
        const Key k = rng.next_bounded(40000);
        if (rng.next_bounded(2) == 0) {
          tree.put(c, k, k + 5);
        } else {
          Value v;
          (void)tree.get(c, k, &v);
        }
      }
    });
  }
  simulation.run();
  tree.check_invariants();
  tree.destroy(setup);
}

TEST(EunoStats, CountsMatchReality) {
  ctx::NativeEnv env;
  ctx::NativeCtx c(env, 0);
  EunoBPTree<ctx::NativeCtx> tree(c, EunoConfig::full());
  for (Key k = 0; k < 5000; ++k) tree.put(c, k, k);
  for (Key k = 0; k < 5000; k += 5) tree.erase(c, k);

  const auto st = tree.collect_stats();
  EXPECT_EQ(st.live_records, tree.size_slow());
  EXPECT_EQ(st.live_records, st.records_in_segments + st.records_in_reserved);
  EXPECT_EQ(st.live_records, 4000u);
  EXPECT_GT(st.leaves, 100u);
  EXPECT_GT(st.inodes, 0u);
  EXPECT_EQ(st.height, tree.height());
  EXPECT_GT(st.marks_set, 0u);
  EXPECT_GE(st.mark_false_positive_rate, 0.0);
  EXPECT_LE(st.mark_false_positive_rate, 1.0);
  tree.destroy(c);
}

TEST(EunoStats, FalsePositiveRateBoundedAfterChurn) {
  // The paper sets the CCM vector at 2x fanout to keep the false-positive
  // rate under ~6%. After splits our left-leaf marks are conservative
  // supersets, so the measured rate is higher than a fresh Bloom vector's,
  // but must stay well away from saturation.
  ctx::NativeEnv env;
  ctx::NativeCtx c(env, 0);
  EunoBPTree<ctx::NativeCtx> tree(c, EunoConfig::full());
  Xoshiro256 rng(42);
  for (int i = 0; i < 60000; ++i) {
    const Key k = rng.next_bounded(20000);
    if (rng.next_bounded(4) == 0) {
      tree.erase(c, k);
    } else {
      tree.put(c, k, k);
    }
  }
  const auto st = tree.collect_stats();
  EXPECT_LT(st.mark_false_positive_rate, 0.60)
      << "stale marks must not saturate the filter";
  tree.check_invariants();
  tree.destroy(c);
}

TEST(EunoStats, BypassModeVisibleInStats) {
  ctx::NativeEnv env;
  ctx::NativeCtx c(env, 0);
  EunoBPTree<ctx::NativeCtx> tree(c, EunoConfig::full());
  for (Key k = 0; k < 1000; ++k) tree.put(c, k, k);
  const auto st = tree.collect_stats();
  // Single-threaded: no contention, every leaf stays in bypass mode.
  EXPECT_EQ(st.leaves_in_bypass_mode, st.leaves);
  tree.destroy(c);
}

TEST(EunoScanCompaction, ScanMovesRecordsIntoReserved) {
  ctx::NativeEnv env;
  ctx::NativeCtx c(env, 0);
  core::EunoConfig cfg = EunoConfig::full();
  cfg.scan_compacts = true;
  EunoBPTree<ctx::NativeCtx> tree(c, cfg);
  // A single leaf with records scattered across segments (no split yet):
  // the canonical compactable case.
  for (Key k = 0; k < 12; ++k) tree.put(c, k * 7, k);
  const auto before = tree.collect_stats();
  EXPECT_GT(before.records_in_segments, 0u);
  std::vector<KV> buf(4096);
  (void)tree.scan(c, 0, buf.size(), buf.data());
  const auto after = tree.collect_stats();
  // Every leaf here fits the reserved buffer, so the scan compacts fully;
  // leaves holding more than F live records would keep their segments.
  EXPECT_EQ(after.records_in_segments, 0u);
  EXPECT_EQ(after.live_records, before.live_records);
  tree.check_invariants();
  // Consecutive scan hits the fast path and returns identical results.
  std::vector<KV> buf2(4096);
  const std::size_t n1 = tree.scan(c, 0, buf.size(), buf.data());
  const std::size_t n2 = tree.scan(c, 0, buf2.size(), buf2.data());
  ASSERT_EQ(n1, n2);
  for (std::size_t i = 0; i < n1; ++i) ASSERT_EQ(buf[i], buf2[i]);
  tree.destroy(c);
}

TEST(EunoScanCompaction, TransientVariantLeavesSegmentsAlone) {
  ctx::NativeEnv env;
  ctx::NativeCtx c(env, 0);
  core::EunoConfig cfg = EunoConfig::full();
  cfg.scan_compacts = false;
  EunoBPTree<ctx::NativeCtx> tree(c, cfg);
  Xoshiro256 rng(6);
  for (int i = 0; i < 500; ++i) tree.put(c, rng.next_bounded(2000), 1);
  const auto before = tree.collect_stats();
  std::vector<KV> buf(4096);
  (void)tree.scan(c, 0, buf.size(), buf.data());
  const auto after = tree.collect_stats();
  EXPECT_EQ(after.records_in_segments, before.records_in_segments);
  tree.check_invariants();
  tree.destroy(c);
}

TEST(EunoBulkLoad, RejectsNonEmptyTree) {
  ctx::NativeEnv env;
  ctx::NativeCtx c(env, 0);
  EunoBPTree<ctx::NativeCtx> tree(c, EunoConfig::full());
  tree.put(c, 1, 1);
  const auto kvs = make_sorted(10);
  EXPECT_DEATH(tree.bulk_load(c, kvs.data(), kvs.size()), "empty tree");
  tree.destroy(c);
}

}  // namespace
}  // namespace euno::tests
