// Registration of every built-in tree: slug, display name (the exact
// strings manifests and golden fixtures compare), capability flags and the
// type-erased factories over both contexts (trees/factories.hpp).
#include "ctx/native_ctx.hpp"
#include "ctx/sim_ctx.hpp"
#include "trees/factories.hpp"
#include "trees/registry.hpp"

namespace euno::trees {
namespace {

using core::EunoConfig;
using ctx::NativeCtx;
using ctx::SimCtx;

TreeCaps figure_caps() {
  TreeCaps caps;
  caps.figure_default = true;
  return caps;
}

TreeCaps ladder_caps() {
  TreeCaps caps;
  caps.ablation_rung = true;
  return caps;
}

}  // namespace

EUNO_REGISTER_TREE(htm_bptree, TreeEntry{
    "htm-bptree", "HTM-B+Tree",
    [] { TreeCaps c = figure_caps(); c.ablation_rung = true; return c; }(),
    &make_bptree<SimCtx, HtmBPTree>, &make_bptree<NativeCtx, HtmBPTree>});

EUNO_REGISTER_TREE(masstree, TreeEntry{
    "masstree", "Masstree",
    [] {
      TreeCaps c = figure_caps();
      c.has_global_fallback = false;  // plain OLC never touches the lock
      return c;
    }(),
    &make_olc_bptree<SimCtx, false>, &make_olc_bptree<NativeCtx, false>});

EUNO_REGISTER_TREE(htm_masstree, TreeEntry{
    "htm-masstree", "HTM-Masstree", figure_caps(),
    &make_olc_bptree<SimCtx, true>, &make_olc_bptree<NativeCtx, true>});

// The Euno-B+Tree and its Figure 13 ablation ladder: each rung is a segment
// count plus an EunoConfig preset.
EUNO_REGISTER_TREE(euno, TreeEntry{
    "euno", "Euno-B+Tree", figure_caps(),
    &make_euno<SimCtx, algo::EunoBPTree, 4, &EunoConfig::full>,
    &make_euno<NativeCtx, algo::EunoBPTree, 4, &EunoConfig::full>});

EUNO_REGISTER_TREE(euno_split, TreeEntry{
    "euno-split", "+Split HTM", ladder_caps(),
    &make_euno<SimCtx, algo::EunoBPTree, 1, &EunoConfig::split_only>,
    &make_euno<NativeCtx, algo::EunoBPTree, 1, &EunoConfig::split_only>});

EUNO_REGISTER_TREE(euno_part, TreeEntry{
    "euno-part", "+Part Leaf", ladder_caps(),
    &make_euno<SimCtx, algo::EunoBPTree, 4, &EunoConfig::split_only>,
    &make_euno<NativeCtx, algo::EunoBPTree, 4, &EunoConfig::split_only>});

EUNO_REGISTER_TREE(euno_lockbits, TreeEntry{
    "euno-lockbits", "+CCM lockbits", ladder_caps(),
    &make_euno<SimCtx, algo::EunoBPTree, 4, &EunoConfig::with_lockbits>,
    &make_euno<NativeCtx, algo::EunoBPTree, 4, &EunoConfig::with_lockbits>});

EUNO_REGISTER_TREE(euno_markbits, TreeEntry{
    "euno-markbits", "+CCM markbits", ladder_caps(),
    &make_euno<SimCtx, algo::EunoBPTree, 4, &EunoConfig::with_markbits>,
    &make_euno<NativeCtx, algo::EunoBPTree, 4, &EunoConfig::with_markbits>});

EUNO_REGISTER_TREE(euno_adaptive, TreeEntry{
    "euno-adaptive", "+Adaptive", ladder_caps(),
    &make_euno<SimCtx, algo::EunoBPTree, 4, &EunoConfig::full>,
    &make_euno<NativeCtx, algo::EunoBPTree, 4, &EunoConfig::full>});

// Post-refactor structures, registered after the original nine so the
// pre-existing listing/sweep order (and with it the golden manifests for
// those trees) is untouched.

EUNO_REGISTER_TREE(euno_skiplist, TreeEntry{
    "euno-skiplist", "Euno-SkipList", figure_caps(),
    &make_euno<SimCtx, algo::EunoSkipList, 4, &EunoConfig::full>,
    &make_euno<NativeCtx, algo::EunoSkipList, 4, &EunoConfig::full>});

EUNO_REGISTER_TREE(lock_bptree, TreeEntry{
    "lock-bptree", "Lock-B+Tree",
    [] { TreeCaps c; c.has_global_fallback = false; return c; }(),
    &make_bptree<SimCtx, LockBPTree>, &make_bptree<NativeCtx, LockBPTree>});

EUNO_REGISTER_TREE(rcu_bptree, TreeEntry{
    "rcu-bptree", "RCU-HTM-B+Tree", figure_caps(),
    &make_bptree<SimCtx, RcuBPTree>, &make_bptree<NativeCtx, RcuBPTree>});

EUNO_REGISTER_TREE(three_path_bptree, TreeEntry{
    "3path-bptree", "3Path-B+Tree",
    // The three-path template takes the global lock only in its terminal
    // (stage-2) degradation mode, never on the generic op path.
    [] { TreeCaps c = figure_caps(); c.has_global_fallback = false; return c; }(),
    &make_bptree<SimCtx, ThreePathBPTree>,
    &make_bptree<NativeCtx, ThreePathBPTree>});

// Bytes-domain trees, registered last (same listing-order argument as
// above). Not in the default figure sweeps — fig_common's four-tree u64
// figures stay as-is; the scan-heavy bytes figures (bench/fig_scan) select
// by key_domain. Their make_sim/make_native factories go through the u64
// key codec, which is how the u64 suites (conformance, lin) check them.
namespace {
TreeCaps str_caps(bool has_fallback) {
  TreeCaps c;
  c.has_global_fallback = has_fallback;
  c.key_domain = KeyDomain::kBytes;
  return c;
}
}  // namespace

EUNO_REGISTER_TREE(str_htm_bptree, TreeEntry{
    "str-htm-bptree", "Str-HTM-B+Tree", str_caps(true),
    &make_str_codec<SimCtx, StrHtmBPTree>,
    &make_str_codec<NativeCtx, StrHtmBPTree>,
    &make_str_tree<SimCtx, StrHtmBPTree>,
    &make_str_tree<NativeCtx, StrHtmBPTree>});

EUNO_REGISTER_TREE(str_masstree, TreeEntry{
    "str-masstree", "Str-Masstree", str_caps(false),
    &make_str_codec<SimCtx, StrMasstree>,
    &make_str_codec<NativeCtx, StrMasstree>,
    &make_str_tree<SimCtx, StrMasstree>,
    &make_str_tree<NativeCtx, StrMasstree>});

EUNO_REGISTER_TREE(str_lock_bptree, TreeEntry{
    "str-lock-bptree", "Str-Lock-B+Tree", str_caps(false),
    &make_str_codec<SimCtx, StrLockBPTree>,
    &make_str_codec<NativeCtx, StrLockBPTree>,
    &make_str_tree<SimCtx, StrLockBPTree>,
    &make_str_tree<NativeCtx, StrLockBPTree>});

void anchor_builtin_trees() {}

}  // namespace euno::trees
