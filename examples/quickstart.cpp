// Quickstart: Euno-B+Tree as an ordered key-value map on the native engine
// (real Intel RTM when the CPU supports it; lock fallback otherwise).
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "ctx/native_ctx.hpp"
#include "htm/rtm.hpp"
#include "trees/algo/euno_bptree.hpp"

using namespace euno;

int main() {
  std::printf("Euno-B+Tree quickstart (RTM %s)\n\n",
              htm::rtm_supported() ? "available" : "unavailable; lock fallback");

  // An Env is the long-lived engine state; each thread drives the tree
  // through its own Ctx handle.
  ctx::NativeEnv env;
  ctx::NativeCtx ctx(env, /*thread id=*/0);

  // Full Eunomia configuration: split HTM regions, scattered leaves,
  // conflict-control module, adaptive contention control.
  trees::algo::EunoBPTree<ctx::NativeCtx> tree(ctx, core::EunoConfig::full());

  // Put / get.
  for (trees::Key k = 0; k < 1000; ++k) tree.put(ctx, k, k * k);
  trees::Value v = 0;
  const bool found = tree.get(ctx, 31, &v);
  std::printf("get(31)  -> %s %llu\n", found ? "hit" : "miss",
              static_cast<unsigned long long>(v));

  // Update in place.
  tree.put(ctx, 31, 42);
  tree.get(ctx, 31, &v);
  std::printf("update   -> %llu\n", static_cast<unsigned long long>(v));

  // Ordered range scan.
  trees::KV window[8];
  const std::size_t n = tree.scan(ctx, 500, 8, window);
  std::printf("scan(500, 8):");
  for (std::size_t i = 0; i < n; ++i) {
    std::printf(" %llu", static_cast<unsigned long long>(window[i].first));
  }
  std::printf("\n");

  // Delete (tombstone + deferred rebalance).
  tree.erase(ctx, 31);
  std::printf("erase(31) -> get says %s\n",
              tree.get(ctx, 31, &v) ? "present" : "absent");

  std::printf("records: %zu, tree height: %d\n", tree.size_slow(), tree.height());
  tree.check_invariants();
  tree.destroy(ctx);
  std::printf("ok\n");
  return 0;
}
