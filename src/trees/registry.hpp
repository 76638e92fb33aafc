// Self-registering tree registry: name → factory + capability flags.
//
// Every concurrent tree the repo can run registers one TreeEntry (see
// builtin_trees.cpp), carrying
//   - the slug (`--tree=htm-bptree`), the one identity of a tree across the
//     CLI, ExperimentSpec::tree and the linearizability specs,
//   - the display name used in bench tables and run manifests (these are
//     load-bearing: golden manifests compare them byte-for-byte),
//   - capability flags (which default sweeps include it, ...),
//   - type-erased factories over both execution contexts.
//
// The driver's run_sim_experiment/run_native_experiment, fig_common.hpp and
// the lin/fault/property suites all dispatch through here: adding a structure
// to the whole bench/test surface is one registration. The factory templates
// the registrations use live in trees/factories.hpp.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "htm/policy.hpp"
#include "trees/common.hpp"
#include "trees/key_traits.hpp"

namespace euno::ctx {
class SimCtx;
class NativeCtx;
}  // namespace euno::ctx

namespace euno::trees {

/// Construction knobs every registered factory understands. Today this is
/// just the HTM retry policy (the one per-spec knob the driver forwarded to
/// every tree constructor); structure-specific configuration is captured by
/// the registering factory itself.
struct TreeBuildOptions {
  htm::RetryPolicy policy{};
};

/// Type-erased tree interface over one execution context. The virtual hop is
/// host-side only — the simulator charges cost exclusively through ctx
/// calls, so dispatching through AnyTree is invisible to simulated results.
template <class Ctx>
class AnyTree {
 public:
  virtual ~AnyTree() = default;
  virtual bool get(Ctx& c, Key k, Value* v) = 0;
  virtual void put(Ctx& c, Key k, Value v) = 0;
  virtual bool erase(Ctx& c, Key k) = 0;
  virtual std::size_t scan(Ctx& c, Key start, std::size_t n, KV* out) = 0;
  virtual void check_invariants() = 0;
  virtual std::size_t size_slow() = 0;
  virtual void destroy(Ctx& c) = 0;
};

template <class Ctx, class Tree>
class AnyTreeOf final : public AnyTree<Ctx> {
 public:
  template <class Make>
  AnyTreeOf(Ctx& c, Make&& make) : tree_(make(c)) {}

  bool get(Ctx& c, Key k, Value* v) override { return tree_.get(c, k, v); }
  void put(Ctx& c, Key k, Value v) override { tree_.put(c, k, v); }
  bool erase(Ctx& c, Key k) override { return tree_.erase(c, k); }
  std::size_t scan(Ctx& c, Key start, std::size_t n, KV* out) override {
    return tree_.scan(c, start, n, out);
  }
  void check_invariants() override { tree_.check_invariants(); }
  std::size_t size_slow() override { return tree_.size_slow(); }
  void destroy(Ctx& c) override { tree_.destroy(c); }

  Tree& tree() { return tree_; }

 private:
  Tree tree_;
};

/// Type-erased string-domain tree interface. Bytes-domain trees register a
/// second pair of factories returning this; their u64 factories remain the
/// conformance/bench surface through a key codec (see factories.hpp),
/// so the whole registry-driven test battery applies to them unchanged.
template <class Ctx>
class AnyStrTree {
 public:
  virtual ~AnyStrTree() = default;
  virtual bool get(Ctx& c, node::BytesView key, Value* v) = 0;
  virtual void put(Ctx& c, node::BytesView key, Value v,
                   node::BytesView payload) = 0;
  virtual bool erase(Ctx& c, node::BytesView key) = 0;
  /// Emits up to `n` records with key >= `start` in key order. The views
  /// handed to `emit` are valid only for the duration of the callback.
  virtual std::size_t scan(Ctx& c, node::BytesView start, std::size_t n,
                           const node::StrEmitFn& emit) = 0;
  virtual void check_invariants() = 0;
  virtual std::size_t size_slow() = 0;
  /// Boxes retired / actually freed through the tree's epoch domain, for
  /// reclamation accounting in tests. freed <= retired at all times.
  virtual std::uint64_t retired_boxes() = 0;
  virtual std::uint64_t freed_boxes() = 0;
  virtual void destroy(Ctx& c) = 0;
};

template <class Ctx, class Tree>
class AnyStrTreeOf final : public AnyStrTree<Ctx> {
 public:
  template <class Make>
  AnyStrTreeOf(Ctx& c, Make&& make) : tree_(make(c)) {}

  bool get(Ctx& c, node::BytesView key, Value* v) override {
    return tree_.get(c, key, v);
  }
  void put(Ctx& c, node::BytesView key, Value v,
           node::BytesView payload) override {
    tree_.put(c, key, v, payload);
  }
  bool erase(Ctx& c, node::BytesView key) override {
    return tree_.erase(c, key);
  }
  std::size_t scan(Ctx& c, node::BytesView start, std::size_t n,
                   const node::StrEmitFn& emit) override {
    return tree_.scan(c, start, n, emit);
  }
  void check_invariants() override { tree_.check_invariants(); }
  std::size_t size_slow() override { return tree_.size_slow(); }
  std::uint64_t retired_boxes() override { return tree_.retired_boxes(); }
  std::uint64_t freed_boxes() override { return tree_.freed_boxes(); }
  void destroy(Ctx& c) override { tree_.destroy(c); }

  Tree& tree() { return tree_; }

 private:
  Tree tree_;
};

/// Capability flags consumed by fig_common.hpp (default sweep membership),
/// fig13_ablation (the ladder) and the fault suites.
struct TreeCaps {
  /// Appears in the default four-tree figure sweeps (fig08/10/11/12, ...).
  bool figure_default = false;
  /// Member of the Figure 13 cumulative ablation ladder; fig13_ablation
  /// runs the rungs in registration order.
  bool ablation_rung = false;
  /// Every operation can degrade to the tree's global FallbackLock (the
  /// standard ctx::txn terminal mode). False for policies that never take
  /// it (pure locking / OLC baselines) or only reach it in a terminal
  /// degradation stage (three-path) — fault campaigns that stage
  /// lock-holder scenarios gate on this so they fail loudly instead of
  /// passing vacuously (tests/sim_fault_test.cpp).
  bool has_global_fallback = true;
  /// The tree's native key domain. kBytes trees additionally register
  /// make_sim_str/make_native_str factories exposing the string interface;
  /// their plain make_sim/make_native factories wrap the same tree in a
  /// u64 key codec (order-preserving), keeping every u64-keyed suite and
  /// bench applicable.
  KeyDomain key_domain = KeyDomain::kU64;
};

template <class Ctx>
using TreeFactory = std::unique_ptr<AnyTree<Ctx>> (*)(Ctx&,
                                                      const TreeBuildOptions&);
template <class Ctx>
using StrTreeFactory =
    std::unique_ptr<AnyStrTree<Ctx>> (*)(Ctx&, const TreeBuildOptions&);

struct TreeEntry {
  std::string kind;     // slug, e.g. "htm-bptree"
  std::string display;  // table/manifest name, e.g. "HTM-B+Tree"
  TreeCaps caps{};
  TreeFactory<ctx::SimCtx> make_sim = nullptr;
  TreeFactory<ctx::NativeCtx> make_native = nullptr;
  /// String-domain factories; non-null iff caps.key_domain == kBytes.
  StrTreeFactory<ctx::SimCtx> make_sim_str = nullptr;
  StrTreeFactory<ctx::NativeCtx> make_native_str = nullptr;
};

/// The entry in `entries` whose slug is `slug`, or null.
inline const TreeEntry* find_tree(const std::vector<TreeEntry>& entries,
                                  const std::string& slug) {
  for (const auto& e : entries)
    if (e.kind == slug) return &e;
  return nullptr;
}

class TreeRegistry {
 public:
  static TreeRegistry& instance();

  /// Registers one tree. A duplicate slug asserts: slugs are the CLI and
  /// driver identity, so a collision is a bug.
  void add(TreeEntry e);

  /// Entries in registration order (the order listings and sweeps use).
  const std::vector<TreeEntry>& entries() const { return entries_; }

  /// The entry registered under `slug`, or null.
  const TreeEntry* by_name(const std::string& slug) const {
    return find_tree(entries_, slug);
  }
  /// by_name that aborts, naming the slug, when it is not registered (the
  /// driver dispatch path).
  const TreeEntry& expect(const std::string& slug) const;

 private:
  std::vector<TreeEntry> entries_;
};

/// The one registry, with the built-in trees guaranteed registered. Always
/// use this accessor (not TreeRegistry::instance() directly): it anchors the
/// builtin registration TU so a static-library link can't drop it.
TreeRegistry& tree_registry();

/// Static-initialization helper behind EUNO_REGISTER_TREE.
struct TreeRegistrar {
  explicit TreeRegistrar(TreeEntry e);
};

/// Registers a tree at static-initialization time:
///   EUNO_REGISTER_TREE(my_tree, TreeEntry{...});
/// TUs outside the euno_trees library must additionally be anchored (linked
/// object files are enough; archive members need a referenced symbol).
#define EUNO_REGISTER_TREE(ident, ...) \
  static const ::euno::trees::TreeRegistrar euno_tree_registrar_##ident{__VA_ARGS__}

}  // namespace euno::trees
