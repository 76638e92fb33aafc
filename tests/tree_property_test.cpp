// Parameterized property tests: every checked tree (trees::checked_trees():
// the registry plus the unregistered variants), several shapes and seeds,
// driven through randomized oracle workloads and concurrent stress with
// invariant checking. TEST_P sweeps are the coverage backbone — each
// instantiation exercises a distinct (structure, workload) combination.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "ctx/native_ctx.hpp"
#include "ctx/sim_ctx.hpp"
#include "repro_main.hpp"
#include "tree_conformance.hpp"
#include "trees/variants.hpp"

namespace euno::tests {
namespace {

struct PropertyParam {
  std::string tree;  // slug in trees::checked_trees()
  std::uint64_t seed;
  int ops;
  std::uint64_t key_range;

  std::string name() const {
    return slug_test_name(tree) + "_seed" + std::to_string(seed) + "_r" +
           std::to_string(key_range);
  }

  const trees::TreeEntry& entry() const {
    return *trees::find_tree(trees::checked_trees(), tree);
  }
};

class TreeProperty : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(TreeProperty, OracleAgreesWithStdMap) {
  const auto& p = GetParam();
  repro_extra() = "# param: " + p.name() + " seed=" + std::to_string(p.seed);
  ctx::NativeEnv env;
  ctx::NativeCtx c(env, 0);
  const auto owned = p.entry().make_native(c, trees::TreeBuildOptions{});
  auto& tree = *owned;

  std::map<Key, Value> oracle;
  Xoshiro256 rng(p.seed);
  std::vector<KV> buf(32);
  for (int i = 0; i < p.ops; ++i) {
    const Key key = rng.next_bounded(p.key_range);
    switch (rng.next_bounded(8)) {
      case 0:
      case 1:
      case 2: {
        const Value v = rng.next();
        tree.put(c, key, v);
        oracle[key] = v;
        break;
      }
      case 3:
      case 4: {
        Value v = 0;
        const bool f = tree.get(c, key, &v);
        const auto it = oracle.find(key);
        ASSERT_EQ(f, it != oracle.end()) << "op " << i;
        if (f) ASSERT_EQ(v, it->second);
        break;
      }
      case 5:
      case 6:
        ASSERT_EQ(tree.erase(c, key), oracle.erase(key) > 0) << "op " << i;
        break;
      case 7: {
        const std::size_t n = tree.scan(c, key, buf.size(), buf.data());
        auto it = oracle.lower_bound(key);
        for (std::size_t j = 0; j < n; ++j, ++it) {
          ASSERT_NE(it, oracle.end());
          ASSERT_EQ(buf[j].first, it->first);
          ASSERT_EQ(buf[j].second, it->second);
        }
        break;
      }
    }
  }
  tree.check_invariants();
  tree.destroy(c);
}

TEST_P(TreeProperty, SimConcurrencyPreservesInvariants) {
  const auto& p = GetParam();
  repro_extra() = "# param: " + p.name() + " seed=" + std::to_string(p.seed);
  sim::Simulation simulation(test_sim_config());
  ctx::SimCtx setup(simulation, 0);
  const auto owned = p.entry().make_sim(setup, trees::TreeBuildOptions{});
  auto& tree = *owned;

  const std::uint64_t hot = std::min<std::uint64_t>(p.key_range, 96);
  for (int t = 0; t < 6; ++t) {
    simulation.spawn(t, [&, t](int core) {
      ctx::SimCtx c(simulation, core);
      Xoshiro256 rng(p.seed * 31 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 250; ++i) {
        const Key key = rng.next_bounded(hot);
        const auto roll = rng.next_bounded(10);
        if (roll < 5) {
          tree.put(c, key, key * 1000 + 7);
        } else if (roll < 8) {
          Value v;
          if (tree.get(c, key, &v)) {
            // Values are a pure function of the key: torn or stale reads
            // would be visible immediately.
            ASSERT_EQ(v, key * 1000 + 7);
          }
        } else if (roll < 9) {
          (void)tree.erase(c, key);
        } else {
          KV buf[16];
          const std::size_t n = tree.scan(c, key, 16, buf);
          for (std::size_t j = 1; j < n; ++j) {
            ASSERT_GT(buf[j].first, buf[j - 1].first) << "scan must be sorted";
          }
          for (std::size_t j = 0; j < n; ++j) {
            ASSERT_EQ(buf[j].second, buf[j].first * 1000 + 7);
          }
        }
      }
    });
  }
  simulation.run();
  tree.check_invariants();
  tree.destroy(setup);
}

std::vector<PropertyParam> property_params() {
  std::vector<PropertyParam> ps;
  for (const trees::TreeEntry& e : trees::checked_trees()) {
    for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
      ps.push_back(PropertyParam{e.kind, seed, 6000, 700});
    }
    ps.push_back(PropertyParam{e.kind, 14, 4000, 50});      // dense duplicates
    ps.push_back(PropertyParam{e.kind, 15, 3000, 100000});  // sparse
  }
  return ps;
}

INSTANTIATE_TEST_SUITE_P(AllTrees, TreeProperty,
                         ::testing::ValuesIn(property_params()),
                         [](const ::testing::TestParamInfo<PropertyParam>& info) {
                           return info.param.name();
                         });

}  // namespace
}  // namespace euno::tests

EUNO_TEST_MAIN_WITH_REPRO()
