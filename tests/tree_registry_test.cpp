// Registry contract tests: slug lookup, uniqueness of the CLI and manifest
// surfaces, capability expectations for the built-ins, factory presence over
// both contexts, and the loud failure of an unknown slug.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "trees/registry.hpp"

namespace euno::tests {
namespace {

using trees::tree_registry;

TEST(TreeRegistry, SlugLookupRoundTrip) {
  for (const auto& e : tree_registry().entries()) {
    const auto* by_name = tree_registry().by_name(e.kind);
    ASSERT_EQ(by_name, &e) << e.kind;
    EXPECT_EQ(&tree_registry().expect(e.kind), &e);
  }
}

// A slug is checked at run time, so a wrong one must fail loudly and say
// which slug it was.
TEST(TreeRegistryDeathTest, ExpectUnknownSlugAbortsNamingIt) {
  EXPECT_DEATH(tree_registry().expect("no-such-tree"),
               "tree 'no-such-tree' is not registered");
}

TEST(TreeRegistry, UnknownNameIsNull) {
  EXPECT_EQ(tree_registry().by_name("no-such-tree"), nullptr);
  EXPECT_EQ(tree_registry().by_name(""), nullptr);
  EXPECT_EQ(tree_registry().by_name("Euno-B+Tree"), nullptr)
      << "display names are not CLI slugs";
}

TEST(TreeRegistry, SlugsAndDisplayNamesAreUnique) {
  std::set<std::string> names;
  std::set<std::string> displays;
  for (const auto& e : tree_registry().entries()) {
    EXPECT_TRUE(names.insert(e.kind).second) << "duplicate slug " << e.kind;
    EXPECT_TRUE(displays.insert(e.display).second)
        << "duplicate display name " << e.display;
  }
}

TEST(TreeRegistry, EveryEntryHasBothFactories) {
  for (const auto& e : tree_registry().entries()) {
    EXPECT_NE(e.make_sim, nullptr) << e.kind;
    EXPECT_NE(e.make_native, nullptr) << e.kind;
  }
}

TEST(TreeRegistry, StrFactoriesIffBytesDomain) {
  // The string factories and the bytes capability travel together: a kBytes
  // entry without them would crash the driver's bytes dispatch, and a kU64
  // entry with them would advertise a surface the trait layer can't serve.
  std::size_t bytes_entries = 0;
  for (const auto& e : tree_registry().entries()) {
    const bool is_bytes = e.caps.key_domain == trees::KeyDomain::kBytes;
    EXPECT_EQ(e.make_sim_str != nullptr, is_bytes) << e.kind;
    EXPECT_EQ(e.make_native_str != nullptr, is_bytes) << e.kind;
    if (is_bytes) {
      ++bytes_entries;
      // Codec-wrapped str trees are swept by the conformance and lin
      // batteries but stay out of the u64 figure sweeps and the ablation
      // ladder.
      EXPECT_FALSE(e.caps.figure_default) << e.kind;
      EXPECT_FALSE(e.caps.ablation_rung) << e.kind;
      EXPECT_EQ(e.kind.rfind("str-", 0), 0u)
          << e.kind << ": bytes-domain slugs carry the str- prefix";
      EXPECT_EQ(e.display.rfind("Str-", 0), 0u) << e.display;
    }
  }
  EXPECT_GE(bytes_entries, 2u)
      << "acceptance floor: at least two bytes-domain trees registered";

  const auto* str_htm = tree_registry().by_name("str-htm-bptree");
  ASSERT_NE(str_htm, nullptr);
  EXPECT_TRUE(str_htm->caps.has_global_fallback);
  EXPECT_EQ(str_htm->display, "Str-HTM-B+Tree");

  const auto* str_mass = tree_registry().by_name("str-masstree");
  ASSERT_NE(str_mass, nullptr);
  EXPECT_FALSE(str_mass->caps.has_global_fallback);

  const auto* str_lock = tree_registry().by_name("str-lock-bptree");
  ASSERT_NE(str_lock, nullptr);
  EXPECT_FALSE(str_lock->caps.has_global_fallback);
}

TEST(TreeRegistry, BuiltinsPresentWithExpectedCaps) {
  // The paper's four figure trees plus the post-refactor Euno-SkipList,
  // RCU-HTM-B+Tree and 3Path-B+Tree.
  std::size_t figure = 0;
  for (const auto& e : tree_registry().entries()) {
    if (e.caps.figure_default) ++figure;
  }
  EXPECT_EQ(figure, 7u);

  const auto* euno = tree_registry().by_name("euno");
  ASSERT_NE(euno, nullptr);
  EXPECT_TRUE(euno->caps.figure_default);
  EXPECT_EQ(euno->display, "Euno-B+Tree");

  const auto* skiplist = tree_registry().by_name("euno-skiplist");
  ASSERT_NE(skiplist, nullptr);
  EXPECT_TRUE(skiplist->caps.figure_default);
  EXPECT_EQ(skiplist->display, "Euno-SkipList");

  const auto* lock = tree_registry().by_name("lock-bptree");
  ASSERT_NE(lock, nullptr);
  EXPECT_FALSE(lock->caps.figure_default);

  const auto* masstree = tree_registry().by_name("masstree");
  ASSERT_NE(masstree, nullptr);
  EXPECT_FALSE(masstree->caps.has_global_fallback)
      << "plain OLC never takes the global fallback lock";

  const auto* rcu = tree_registry().by_name("rcu-bptree");
  ASSERT_NE(rcu, nullptr);
  EXPECT_TRUE(rcu->caps.figure_default);
  EXPECT_TRUE(rcu->caps.has_global_fallback)
      << "the splice transaction subscribes the per-tree fallback lock";
  EXPECT_EQ(rcu->display, "RCU-HTM-B+Tree");

  const auto* threepath = tree_registry().by_name("3path-bptree");
  ASSERT_NE(threepath, nullptr);
  EXPECT_TRUE(threepath->caps.figure_default);
  EXPECT_FALSE(threepath->caps.has_global_fallback)
      << "three-path degrades fast->middle->slow; the lock is terminal only";
  EXPECT_EQ(threepath->display, "3Path-B+Tree");

  EXPECT_FALSE(lock->caps.has_global_fallback);

  // Figure 13 ladder: the baseline, then the five cumulative rungs — in
  // registration order, which is the order fig13_ablation runs them in.
  std::vector<std::string> rungs;
  for (const auto& e : tree_registry().entries()) {
    if (e.caps.ablation_rung) rungs.push_back(e.kind);
  }
  EXPECT_EQ(rungs, (std::vector<std::string>{
                       "htm-bptree", "euno-split", "euno-part",
                       "euno-lockbits", "euno-markbits", "euno-adaptive"}));
}

TEST(TreeRegistry, RegistrationOrderStartsWithTheOriginalNine) {
  // Listings, default sweeps and the golden fixtures depend on the original
  // entries keeping their positions; post-refactor structures append.
  const auto& entries = tree_registry().entries();
  ASSERT_GE(entries.size(), 9u);
  const char* expected[] = {"htm-bptree",    "masstree",      "htm-masstree",
                            "euno",          "euno-split",    "euno-part",
                            "euno-lockbits", "euno-markbits", "euno-adaptive"};
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(entries[i].kind, expected[i]) << "position " << i;
  }
}

}  // namespace
}  // namespace euno::tests
