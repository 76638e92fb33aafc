// Tests for the baseline HTM-B+Tree (monolithic-region DBX design).
#include <gtest/gtest.h>

#include "tree_conformance.hpp"
#include "trees/factories.hpp"

namespace euno::tests {
namespace {

struct NativeAdapter {
  static trees::HtmBPTree<ctx::NativeCtx> make(ctx::NativeCtx& c) {
    return trees::HtmBPTree<ctx::NativeCtx>(c);
  }
};
struct SimAdapter {
  static trees::HtmBPTree<ctx::SimCtx> make(ctx::SimCtx& c) {
    return trees::HtmBPTree<ctx::SimCtx>(c);
  }
};

EUNO_TREE_CONFORMANCE_SUITE(HtmBPTree, NativeAdapter, SimAdapter)

TEST(HtmBPTree, EmptyTreeBehaviour) {
  ctx::NativeEnv env;
  ctx::NativeCtx c(env, 0);
  auto tree = NativeAdapter::make(c);
  Value v = 0;
  EXPECT_FALSE(tree.get(c, 1, &v));
  EXPECT_FALSE(tree.erase(c, 1));
  KV buf[4];
  EXPECT_EQ(tree.scan(c, 0, 4, buf), 0u);
  tree.destroy(c);
}

TEST(HtmBPTree, UpdateOverwrites) {
  ctx::NativeEnv env;
  ctx::NativeCtx c(env, 0);
  auto tree = NativeAdapter::make(c);
  tree.put(c, 5, 10);
  tree.put(c, 5, 20);
  Value v = 0;
  ASSERT_TRUE(tree.get(c, 5, &v));
  EXPECT_EQ(v, 20u);
  EXPECT_EQ(tree.size_slow(), 1u);
  tree.destroy(c);
}

TEST(HtmBPTree, EraseThenReinsert) {
  ctx::NativeEnv env;
  ctx::NativeCtx c(env, 0);
  auto tree = NativeAdapter::make(c);
  for (Key k = 0; k < 100; ++k) tree.put(c, k, k);
  for (Key k = 0; k < 100; k += 2) EXPECT_TRUE(tree.erase(c, k));
  EXPECT_EQ(tree.size_slow(), 50u);
  for (Key k = 0; k < 100; k += 2) {
    Value v;
    EXPECT_FALSE(tree.get(c, k, &v));
    EXPECT_TRUE(tree.get(c, k + 1, &v));
  }
  for (Key k = 0; k < 100; k += 2) tree.put(c, k, k * 2);
  EXPECT_EQ(tree.size_slow(), 100u);
  tree.check_invariants();
  tree.destroy(c);
}

TEST(HtmBPTree, ScanRespectsOrderAcrossLeaves) {
  ctx::NativeEnv env;
  ctx::NativeCtx c(env, 0);
  auto tree = NativeAdapter::make(c);
  for (Key k = 0; k < 500; ++k) tree.put(c, k * 3, k);
  std::vector<KV> buf(100);
  const std::size_t n = tree.scan(c, 150, buf.size(), buf.data());
  ASSERT_EQ(n, 100u);
  EXPECT_EQ(buf[0].first, 150u);
  for (std::size_t i = 1; i < n; ++i) {
    EXPECT_EQ(buf[i].first, buf[i - 1].first + 3);
  }
  tree.destroy(c);
}

TEST(HtmBPTree, HeightGrowsLogarithmically) {
  ctx::NativeEnv env;
  ctx::NativeCtx c(env, 0);
  auto tree = NativeAdapter::make(c);
  EXPECT_EQ(tree.height(), 1);
  for (Key k = 0; k < 10000; ++k) tree.put(c, k, k);
  // fanout 16: 10000 keys fit within height 5.
  EXPECT_GE(tree.height(), 3);
  EXPECT_LE(tree.height(), 5);
  tree.destroy(c);
}

TEST(HtmBPTree, DestroyReturnsAllMemory) {
  auto& ms = MemStats::instance();
  ms.reset();
  ctx::NativeEnv env;
  ctx::NativeCtx c(env, 0);
  {
    auto tree = NativeAdapter::make(c);
    for (Key k = 0; k < 2000; ++k) tree.put(c, k, k);
    EXPECT_GT(ms.tree_live_bytes(), 0u);
    tree.destroy(c);
  }
  EXPECT_EQ(ms.tree_live_bytes(), 0u);
  ms.reset();
}

TEST(HtmBPTree, MonolithicAbortsUnderSimContention) {
  // Sanity: hammering one hot key from many simulated cores must produce
  // conflict aborts in the monolithic region (the premise of Figure 1/2).
  sim::Simulation simulation(test_sim_config());
  ctx::SimCtx setup(simulation, 0);
  auto tree = SimAdapter::make(setup);
  for (Key k = 0; k < 1000; ++k) tree.put(setup, k, k);

  std::vector<std::uint64_t> aborts(16);
  for (int t = 0; t < 16; ++t) {
    simulation.spawn(t, [&, t](int core) {
      ctx::SimCtx c(simulation, core);
      Xoshiro256 rng(900 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 300; ++i) {
        tree.put(c, rng.next_bounded(8), i);  // 8 hot keys
      }
      aborts[t] = c.stats().at(ctx::TxSite::kMono).total_aborts();
    });
  }
  simulation.run();
  std::uint64_t total = 0;
  for (auto a : aborts) total += a;
  EXPECT_GT(total, 100u) << "high contention must abort monolithic regions";
  tree.check_invariants();
  tree.destroy(setup);
}

}  // namespace
}  // namespace euno::tests
