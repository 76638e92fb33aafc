#include "trees/registry.hpp"

#include "util/assert.hpp"

namespace euno::trees {

// Defined in builtin_trees.cpp. Referencing it from here forces the linker
// to pull that archive member in, which runs its static TreeRegistrar
// objects — the standard fix for self-registration inside a static library.
void anchor_builtin_trees();

TreeRegistry& TreeRegistry::instance() {
  static TreeRegistry reg;
  return reg;
}

void TreeRegistry::add(TreeEntry e) {
  EUNO_ASSERT_MSG(!e.kind.empty() && !e.display.empty(),
                  "tree registration needs a slug and a display name");
  EUNO_ASSERT_MSG(by_name(e.kind) == nullptr, "duplicate tree slug");
  EUNO_ASSERT_MSG(e.make_sim != nullptr && e.make_native != nullptr,
                  "tree registration needs both factories");
  entries_.push_back(std::move(e));
}

const TreeEntry& TreeRegistry::expect(const std::string& slug) const {
  const TreeEntry* e = by_name(slug);
  // The message is built only on failure (inside the macro's branch).
  EUNO_ASSERT_MSG(e != nullptr,
                  ("tree '" + slug + "' is not registered").c_str());
  return *e;
}

TreeRegistry& tree_registry() {
  anchor_builtin_trees();
  return TreeRegistry::instance();
}

TreeRegistrar::TreeRegistrar(TreeEntry e) {
  TreeRegistry::instance().add(std::move(e));
}

}  // namespace euno::trees
