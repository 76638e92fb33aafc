// Tree compositions and the factory templates every tree is built from.
//
// Each tree is one instantiation of the layered stack (DESIGN.md §11): an
// algorithm body from trees/algo/, a synchronization policy from sync/ and
// a node layout from trees/node/. The alias templates below name the
// compositions; the factory templates build one behind the type-erased
// AnyTree/AnyStrTree interfaces (trees/registry.hpp). Three places use them:
//   - builtin_trees.cpp registers the built-in trees;
//   - trees/variants.hpp lists the unregistered variants the checkers sweep;
//   - tests/lin_mutation_test.cpp builds deliberately broken trees in its
//     own translation unit.
//
// Header-only, and free of any reference to the registry instance, on
// purpose: a binary that instantiates these templates with a mutated policy
// must never also link builtin_trees.o, which instantiates the same
// templates healthy (an ODR violation under which the mutation could
// silently vanish).
#pragma once

#include <cstring>
#include <memory>

#include "core/euno_config.hpp"
#include "sync/lock_coupling.hpp"
#include "sync/monolithic_htm.hpp"
#include "sync/olc.hpp"
#include "sync/rcu_htm.hpp"
#include "sync/three_path.hpp"
#include "trees/algo/bptree.hpp"
#include "trees/algo/euno_bptree.hpp"
#include "trees/algo/euno_skiplist.hpp"
#include "trees/algo/rcu_bptree.hpp"
#include "trees/common.hpp"
#include "trees/registry.hpp"

namespace euno::trees {

// ---- compositions ----

/// HTM-B+Tree (DBX): one monolithic HTM region per operation over sorted
/// consecutive-layout nodes.
template <class Ctx, int F = kDefaultFanout>
using HtmBPTree = algo::BPlusTree<Ctx, sync::MonolithicHtmPolicy<Ctx>, F>;

/// The paper's "Masstree": optimistic version validation (lock coupling).
/// HTM-Masstree is the same tree with Options::htm_elide.
template <class Ctx, int F = kDefaultFanout>
using OlcBPTree = algo::BPlusTree<Ctx, sync::OlcPolicy<Ctx>, F>;

/// Pessimistic hand-over-hand latching: the contention floor.
template <class Ctx, int F = kDefaultFanout>
using LockBPTree = algo::BPlusTree<Ctx, sync::LockCouplingPolicy<Ctx>, F>;

/// RCU-HTM: copy-on-write updates spliced in by a small HTM transaction
/// that validates the traversed edge set.
template <class Ctx, int F = kDefaultFanout>
using RcuBPTree = algo::RcuBPlusTree<Ctx, sync::RcuHtmPolicy<Ctx>, F>;

/// Brown's three-path template: HTM fast path, HTM middle path, announced
/// slow path; the global lock only in the terminal degradation stage.
template <class Ctx, int F = kDefaultFanout>
using ThreePathBPTree = algo::BPlusTree<Ctx, sync::ThreePathPolicy<Ctx>, F>;

/// Bytes-key instantiations of the same algorithm bodies (key_traits.hpp).
template <class Ctx, int F = kDefaultFanout>
using StrHtmBPTree = algo::BPlusTree<Ctx, sync::MonolithicHtmPolicy<Ctx>, F,
                                     node::BytesKeyTraits>;
template <class Ctx, int F = kDefaultFanout>
using StrMasstree =
    algo::BPlusTree<Ctx, sync::OlcPolicy<Ctx>, F, node::BytesKeyTraits>;
template <class Ctx, int F = kDefaultFanout>
using StrLockBPTree = algo::BPlusTree<Ctx, sync::LockCouplingPolicy<Ctx>, F,
                                      node::BytesKeyTraits>;

// ---- u64 factories ----

/// Trees whose one construction knob is the retry policy.
template <class Ctx, template <class, int> class TreeT>
std::unique_ptr<AnyTree<Ctx>> make_bptree(Ctx& c, const TreeBuildOptions& o) {
  using Tree = TreeT<Ctx, kDefaultFanout>;
  typename Tree::Options opt;
  opt.policy = o.policy;
  return std::make_unique<AnyTreeOf<Ctx, Tree>>(
      c, [&](Ctx& cc) { return Tree(cc, opt); });
}

template <class Ctx, bool Elide>
std::unique_ptr<AnyTree<Ctx>> make_olc_bptree(Ctx& c,
                                              const TreeBuildOptions& o) {
  using Tree = OlcBPTree<Ctx>;
  typename Tree::Options opt;
  opt.htm_elide = Elide;
  opt.policy = o.policy;
  return std::make_unique<AnyTreeOf<Ctx, Tree>>(
      c, [&](Ctx& cc) { return Tree(cc, opt); });
}

/// Euno structures (B+Tree or skip list) with S leaf segments under one
/// EunoConfig preset, e.g. &core::EunoConfig::with_markbits.
template <class Ctx, template <class, int, int> class TreeT, int S,
          core::EunoConfig (*Preset)()>
std::unique_ptr<AnyTree<Ctx>> make_euno(Ctx& c, const TreeBuildOptions& o) {
  using Tree = TreeT<Ctx, kDefaultFanout, S>;
  core::EunoConfig cfg = Preset();
  cfg.policy = o.policy;
  return std::make_unique<AnyTreeOf<Ctx, Tree>>(
      c, [&](Ctx& cc) { return Tree(cc, cfg); });
}

// ---- bytes-domain factories ----
//
// Each str tree is built two ways:
//   - make_str_tree exposes the native string interface (AnyStrTree) the
//     driver's bytes-domain path and fig_scan use;
//   - make_str_codec wraps the same tree in an order-preserving u64 key
//     codec, so every u64-keyed suite (conformance, property, lin) and bench
//     applies to the bytes stack unchanged.
//
// The codec encodes a u64 as 12 bytes: a constant 4-byte tag followed by
// the key in big-endian. Lexicographic order of the encoding matches
// numeric order of the key, and — deliberately — every encoded key shares
// its first 4 bytes, so dense u64 test keys collide heavily in the 8-byte
// in-node prefix slice and force the suffix tie-break through the box on
// nearly every comparison. The u64 sweeps thereby stress exactly the paths
// the prefix slice would otherwise shortcut.
constexpr char kU64CodecTag[4] = {'u', '6', '4', ':'};
constexpr std::size_t kU64CodecLen = 12;

inline void u64_codec_encode(Key k, char* buf) {
  std::memcpy(buf, kU64CodecTag, 4);
  for (int i = 0; i < 8; ++i) {
    buf[4 + i] = static_cast<char>((k >> (56 - 8 * i)) & 0xff);
  }
}

inline Key u64_codec_decode(node::BytesView v) {
  Key k = 0;
  for (int i = 0; i < 8; ++i) {
    k = (k << 8) | static_cast<unsigned char>(v.data[4 + i]);
  }
  return k;
}

/// AnyTree (u64) adapter over a bytes-domain tree via the codec above. The
/// payload round-trips the value through the out-of-line block so the u64
/// suites also exercise ValueIndirection storage, not just key boxes.
template <class Ctx, class Tree>
class U64CodecStrTree final : public AnyTree<Ctx> {
 public:
  template <class Make>
  U64CodecStrTree(Ctx& c, Make&& make) : tree_(make(c)) {}

  bool get(Ctx& c, Key k, Value* v) override {
    char buf[kU64CodecLen];
    u64_codec_encode(k, buf);
    return tree_.get(c, node::BytesView{buf, kU64CodecLen}, v);
  }
  void put(Ctx& c, Key k, Value v) override {
    char buf[kU64CodecLen];
    u64_codec_encode(k, buf);
    char payload[8];
    for (int i = 0; i < 8; ++i) {
      payload[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    tree_.put(c, node::BytesView{buf, kU64CodecLen}, v,
              node::BytesView{payload, 8});
  }
  bool erase(Ctx& c, Key k) override {
    char buf[kU64CodecLen];
    u64_codec_encode(k, buf);
    return tree_.erase(c, node::BytesView{buf, kU64CodecLen});
  }
  std::size_t scan(Ctx& c, Key start, std::size_t n, KV* out) override {
    char buf[kU64CodecLen];
    u64_codec_encode(start, buf);
    std::size_t got = 0;
    return tree_.scan(
        c, node::BytesView{buf, kU64CodecLen}, n,
        [&](node::BytesView key, Value v, node::BytesView) {
          out[got++] = KV{u64_codec_decode(key), v};
        });
  }
  void check_invariants() override { tree_.check_invariants(); }
  std::size_t size_slow() override { return tree_.size_slow(); }
  void destroy(Ctx& c) override { tree_.destroy(c); }

 private:
  Tree tree_;
};

template <class Ctx, template <class, int> class TreeT>
std::unique_ptr<AnyTree<Ctx>> make_str_codec(Ctx& c,
                                             const TreeBuildOptions& o) {
  using Tree = TreeT<Ctx, kDefaultFanout>;
  typename Tree::Options opt;
  opt.policy = o.policy;
  return std::make_unique<U64CodecStrTree<Ctx, Tree>>(
      c, [&](Ctx& cc) { return Tree(cc, opt); });
}

template <class Ctx, template <class, int> class TreeT>
std::unique_ptr<AnyStrTree<Ctx>> make_str_tree(Ctx& c,
                                               const TreeBuildOptions& o) {
  using Tree = TreeT<Ctx, kDefaultFanout>;
  typename Tree::Options opt;
  opt.policy = o.policy;
  return std::make_unique<AnyStrTreeOf<Ctx, Tree>>(
      c, [&](Ctx& cc) { return Tree(cc, opt); });
}

}  // namespace euno::trees
