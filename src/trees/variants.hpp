// The trees the checkers sweep: every registered tree, plus a short list of
// unregistered variants.
//
// The variants are compositions no bench runs but the linearizability and
// property sweeps must keep covering: the Euno-B+Tree at segment counts and
// presets that no ladder rung uses, and the skip list under the markbits
// preset (its registered entry runs full()). They are built from the same
// factory templates as the registry (trees/factories.hpp), so a variant is
// one TreeEntry, not a second tree identity. Registering a tree is what puts
// it under lin_test, lin_explore --trees=all and tree_property_test.
#pragma once

#include <vector>

#include "ctx/native_ctx.hpp"
#include "ctx/sim_ctx.hpp"
#include "trees/factories.hpp"
#include "trees/registry.hpp"

namespace euno::trees {

template <template <class, int, int> class TreeT, int S,
          core::EunoConfig (*Preset)()>
TreeEntry euno_variant(const char* slug, const char* display) {
  return TreeEntry{slug, display, TreeCaps{},
                   &make_euno<ctx::SimCtx, TreeT, S, Preset>,
                   &make_euno<ctx::NativeCtx, TreeT, S, Preset>};
}

/// Unregistered variants, each checked by the sweeps but run by no bench.
inline const std::vector<TreeEntry>& variant_trees() {
  using core::EunoConfig;
  static const std::vector<TreeEntry> variants = {
      euno_variant<algo::EunoBPTree, 1, &EunoConfig::with_markbits>(
          "euno-s1-markbits", "Euno-B+Tree S1 markbits"),
      euno_variant<algo::EunoBPTree, 2, &EunoConfig::with_markbits>(
          "euno-s2-markbits", "Euno-B+Tree S2 markbits"),
      euno_variant<algo::EunoBPTree, 8, &EunoConfig::with_markbits>(
          "euno-s8-markbits", "Euno-B+Tree S8 markbits"),
      euno_variant<algo::EunoBPTree, 2, &EunoConfig::full>(
          "euno-s2", "Euno-B+Tree S2"),
      euno_variant<algo::EunoSkipList, 4, &EunoConfig::with_markbits>(
          "euno-skiplist-markbits", "Euno-SkipList markbits"),
  };
  return variants;
}

/// Every tree the checkers sweep: the registry's entries in registration
/// order, then variant_trees().
inline const std::vector<TreeEntry>& checked_trees() {
  static const std::vector<TreeEntry> all = [] {
    std::vector<TreeEntry> v = tree_registry().entries();
    v.insert(v.end(), variant_trees().begin(), variant_trees().end());
    return v;
  }();
  return all;
}

}  // namespace euno::trees
