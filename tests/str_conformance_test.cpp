// Bytes-domain conformance (`ctest -L strkey`): every tree registered with
// string-key support is swept through a string-native oracle battery on BOTH
// execution contexts, via the registry's AnyStrTree factories — the same
// type-erased surface the driver's bytes path dispatches through.
//
// This file is the string-semantics complement to the u64-codec coverage in
// registry_conformance_test.cpp (which already runs the same trees through
// their order-preserving codec surface): here keys are genuinely variable
// length, payloads ride behind the value indirection, and the torture corpus
// concentrates on what the codec cannot reach — long shared prefixes that
// defeat the in-node 8-byte slice, sign-bit bytes (0x80/0xFF) that would
// expose a signed compare anywhere in the stack, and suffix-only key
// differences beyond the first 8 bytes.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "ctx/native_ctx.hpp"
#include "ctx/sim_ctx.hpp"
#include "tree_conformance.hpp"
#include "trees/registry.hpp"
#include "util/memstats.hpp"
#include "workload/strkeys.hpp"

namespace euno::tests {
namespace {

using trees::TreeBuildOptions;
using trees::TreeEntry;
using trees::node::BytesView;

/// The bytes-capable registry entries (the parameter domain of this file).
std::vector<TreeEntry> str_entries() {
  std::vector<TreeEntry> out;
  for (const auto& e : trees::tree_registry().entries()) {
    if (e.caps.key_domain == trees::KeyDomain::kBytes) out.push_back(e);
  }
  return out;
}

/// Shared-prefix / sign-bit torture corpus. Every key shares the same first
/// 8 bytes ("pfx8----"), so the in-node prefix slice never discriminates and
/// every comparison must resolve through the out-of-line suffix tie-break.
/// High bytes (0x80, 0xFF) sit where a signed char compare would misorder.
std::vector<std::string> torture_keys() {
  const std::string p8 = "pfx8----";
  std::vector<std::string> keys;
  keys.push_back(p8);                      // exactly the shared prefix
  keys.push_back(p8 + std::string(1, '\x01'));
  keys.push_back(p8 + "a");
  keys.push_back(p8 + "a" + std::string(1, '\x00'));  // embedded NUL
  keys.push_back(p8 + "a" + std::string(1, '\x7f'));
  keys.push_back(p8 + "a" + std::string(1, '\x80'));  // sign-bit boundary
  keys.push_back(p8 + "a" + std::string(1, '\xff'));
  keys.push_back(p8 + "aa");
  keys.push_back(p8 + "aaaaaaaaaaaaaaaa");            // 3 packed words deep
  keys.push_back(p8 + "aaaaaaaaaaaaaaab");
  keys.push_back(p8 + std::string(1, '\x80'));
  keys.push_back(p8 + std::string(1, '\x80') + "tail");
  keys.push_back(p8 + std::string(1, '\xff'));
  keys.push_back(p8 + std::string(64, 'z'));          // long identical run
  keys.push_back(p8 + std::string(64, 'z') + "!");
  return keys;
}

/// Oracle record: value word + payload text.
using StrOracle = std::map<std::string, std::pair<Value, std::string>>;

/// Drains the whole tree through one big scan and compares against the
/// oracle: same keys, same order, same values, same payloads.
template <class Ctx>
void expect_matches_oracle(trees::AnyStrTree<Ctx>& tree, Ctx& c,
                           const StrOracle& oracle) {
  std::vector<std::tuple<std::string, Value, std::string>> got;
  const std::size_t n = tree.scan(
      c, BytesView{}, oracle.size() + 16,
      [&](BytesView k, Value v, BytesView p) {
        got.emplace_back(k.to_string(), v, p.to_string());
      });
  ASSERT_EQ(n, got.size());
  ASSERT_EQ(got.size(), oracle.size());
  std::size_t i = 0;
  for (const auto& [k, vp] : oracle) {
    ASSERT_EQ(std::get<0>(got[i]), k) << "scan order/coverage at " << i;
    ASSERT_EQ(std::get<1>(got[i]), vp.first) << "value for " << k;
    ASSERT_EQ(std::get<2>(got[i]), vp.second) << "payload for " << k;
    ++i;
  }
}

/// Random put/get/erase/overwrite stream over url-corpus keys + the torture
/// corpus, oracle-checked at the end (keys, order, values, payloads).
template <class Ctx>
void run_str_oracle(trees::AnyStrTree<Ctx>& tree, Ctx& c, std::uint64_t seed,
                    int ops, std::uint64_t ids) {
  const workload::StringKeySpace ks(workload::KeyStyle::kUrl, seed);
  const std::vector<std::string> torture = torture_keys();
  StrOracle oracle;
  Xoshiro256 rng(seed);
  auto key_at = [&](std::uint64_t r) {
    // 1 in 4 draws hits the torture corpus so shared-prefix keys see
    // constant churn alongside the url keys.
    if ((r & 3) == 0) return torture[r % torture.size()];
    return ks.key_of(r % ids);
  };
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t r = rng.next();
    const std::string key = key_at(r);
    const BytesView kv(key);
    switch (rng.next_bounded(5)) {
      case 0: {  // erase
        const bool tree_had = tree.erase(c, kv);
        ASSERT_EQ(tree_had, oracle.erase(key) != 0) << "erase " << key;
        break;
      }
      case 1: {  // get
        Value v = 0;
        const bool found = tree.get(c, kv, &v);
        const auto it = oracle.find(key);
        ASSERT_EQ(found, it != oracle.end()) << "get " << key;
        if (found) ASSERT_EQ(v, it->second.first) << "get value " << key;
        break;
      }
      default: {  // put / overwrite, payload length varies 0..~90
        const Value v = rng.next();
        const std::string payload =
            ks.payload_of(r, v, static_cast<std::uint32_t>(rng.next_bounded(91)));
        tree.put(c, kv, v, BytesView(payload));
        oracle[key] = {v, payload};
        break;
      }
    }
  }
  expect_matches_oracle(tree, c, oracle);
  tree.check_invariants();
  ASSERT_EQ(tree.size_slow(), oracle.size());
}

class StrConformance : public ::testing::TestWithParam<TreeEntry> {};

TEST_P(StrConformance, OracleSim) {
  auto& ms = MemStats::instance();
  const std::uint64_t boxes_before =
      ms.snapshot(MemClass::kBytesBox).live_bytes;
  sim::Simulation simulation(test_sim_config());
  ctx::SimCtx c(simulation, 0);
  auto tree = GetParam().make_sim_str(c, TreeBuildOptions{});
  run_str_oracle(*tree, c, 921, 4000, 500);
  tree->destroy(c);
  // Full reclamation: destroy must free every live suffix/value box.
  ASSERT_EQ(ms.snapshot(MemClass::kBytesBox).live_bytes, boxes_before);
}

TEST_P(StrConformance, OracleNative) {
  auto& ms = MemStats::instance();
  const std::uint64_t boxes_before =
      ms.snapshot(MemClass::kBytesBox).live_bytes;
  ctx::NativeEnv env;
  ctx::NativeCtx c(env, 0);
  auto tree = GetParam().make_native_str(c, TreeBuildOptions{});
  run_str_oracle(*tree, c, 922, 9000, 1200);
  tree->destroy(c);
  ASSERT_EQ(ms.snapshot(MemClass::kBytesBox).live_bytes, boxes_before);
}

// Chunked scans with a cursor: the string successor of key K is K + '\0'
// (the shortest strictly-greater key), so resuming there must reproduce one
// contiguous, complete, ordered sweep for any chunk size.
TEST_P(StrConformance, ChunkedScanSweepSim) {
  sim::Simulation simulation(test_sim_config());
  ctx::SimCtx c(simulation, 0);
  auto tree = GetParam().make_sim_str(c, TreeBuildOptions{});

  const workload::StringKeySpace ks(workload::KeyStyle::kUuid, 923);
  StrOracle oracle;
  Xoshiro256 rng(923);
  for (int i = 0; i < 1500; ++i) {
    const std::string key = ks.key_of(rng.next_bounded(900));
    if (rng.next_bounded(4) == 0) {
      tree->erase(c, BytesView(key));
      oracle.erase(key);
    } else {
      const Value v = rng.next();
      const std::string payload = ks.payload_of(i, v, 24);
      tree->put(c, BytesView(key), v, BytesView(payload));
      oracle[key] = {v, payload};
    }
  }
  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{7}, std::size_t{33}}) {
    std::string start;  // empty = before every key
    std::size_t total = 0;
    auto it = oracle.begin();
    for (;;) {
      std::vector<std::tuple<std::string, Value, std::string>> batch;
      const std::size_t n =
          tree->scan(c, BytesView(start), chunk,
                     [&](BytesView k, Value v, BytesView p) {
                       batch.emplace_back(k.to_string(), v, p.to_string());
                     });
      ASSERT_EQ(n, batch.size());
      for (std::size_t j = 0; j < n; ++j, ++it) {
        ASSERT_NE(it, oracle.end()) << "chunk=" << chunk;
        ASSERT_EQ(std::get<0>(batch[j]), it->first) << "chunk=" << chunk;
        ASSERT_EQ(std::get<1>(batch[j]), it->second.first) << "chunk=" << chunk;
        ASSERT_EQ(std::get<2>(batch[j]), it->second.second) << "chunk=" << chunk;
      }
      total += n;
      if (n < chunk) break;
      start = std::get<0>(batch[n - 1]) + std::string(1, '\0');
    }
    ASSERT_EQ(it, oracle.end()) << "chunk=" << chunk;
    ASSERT_EQ(total, oracle.size()) << "chunk=" << chunk;
  }
  tree->check_invariants();
  tree->destroy(c);
}

// Value indirection reclamation: overwrites retire the previous box through
// the tree's epoch domain. The counters must show the churn (every overwrite
// after the first retires exactly one box) and respect freed <= retired at
// all times; destroy() then returns the box class to its baseline.
TEST_P(StrConformance, ReclamationCountersSim) {
  auto& ms = MemStats::instance();
  const std::uint64_t boxes_before =
      ms.snapshot(MemClass::kBytesBox).live_bytes;
  sim::Simulation simulation(test_sim_config());
  ctx::SimCtx c(simulation, 0);
  auto tree = GetParam().make_sim_str(c, TreeBuildOptions{});

  const std::string key = "pfx8----hotkey";
  constexpr int kOverwrites = 600;
  for (int i = 0; i < kOverwrites; ++i) {
    const std::string payload(static_cast<std::size_t>(i % 40), 'p');
    tree->put(c, BytesView(key), static_cast<Value>(i), BytesView(payload));
  }
  const std::uint64_t retired = tree->retired_boxes();
  const std::uint64_t freed = tree->freed_boxes();
  EXPECT_GE(retired, static_cast<std::uint64_t>(kOverwrites - 1));
  EXPECT_LE(freed, retired);

  Value v = 0;
  ASSERT_TRUE(tree->get(c, BytesView(key), &v));
  ASSERT_EQ(v, static_cast<Value>(kOverwrites - 1));
  tree->destroy(c);
  ASSERT_EQ(ms.snapshot(MemClass::kBytesBox).live_bytes, boxes_before);
}

TEST_P(StrConformance, SimConcurrentStress) {
  sim::Simulation simulation(test_sim_config());
  ctx::SimCtx setup(simulation, 0);
  auto tree = GetParam().make_sim_str(setup, TreeBuildOptions{});

  constexpr int kThreads = 8;
  constexpr int kOps = 250;
  constexpr std::uint64_t kSeed = 924;
  const std::vector<std::string> torture = torture_keys();
  for (int t = 0; t < kThreads; ++t) {
    simulation.spawn(t, [&, t](int core) {
      ctx::SimCtx c(simulation, core);
      const workload::StringKeySpace ks(workload::KeyStyle::kUrl, kSeed);
      Xoshiro256 rng(kSeed + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kOps; ++i) {
        if (rng.next_bounded(2) == 0) {
          // Striped private keys: "t<t>/" prefix keeps them disjoint.
          const std::string key =
              "t" + std::to_string(t) + "/" + ks.key_of(rng.next_bounded(128));
          const std::string payload = ks.payload_of(
              static_cast<std::uint64_t>(i), static_cast<std::uint64_t>(t), 16);
          tree->put(c, BytesView(key),
                    (static_cast<Value>(t) << 32) | static_cast<Value>(i),
                    BytesView(payload));
        } else {
          // Hot shared-prefix keys, contended across all threads.
          const std::string& key = torture[rng.next_bounded(torture.size())];
          if (rng.next_bounded(3) == 0) {
            Value v;
            (void)tree->get(c, BytesView(key), &v);
          } else {
            tree->put(c, BytesView(key),
                      (static_cast<Value>(t) << 32) | static_cast<Value>(i),
                      BytesView{});
          }
        }
      }
    });
  }
  simulation.run();

  tree->check_invariants();
  ctx::SimCtx verify(simulation, 0);
  for (int t = 0; t < kThreads; ++t) {
    const workload::StringKeySpace ks(workload::KeyStyle::kUrl, kSeed);
    Xoshiro256 rng(kSeed + static_cast<std::uint64_t>(t));
    std::map<std::string, Value> mine;
    for (int i = 0; i < kOps; ++i) {
      if (rng.next_bounded(2) == 0) {
        const std::string key =
            "t" + std::to_string(t) + "/" + ks.key_of(rng.next_bounded(128));
        ks.payload_of(static_cast<std::uint64_t>(i),
                      static_cast<std::uint64_t>(t), 16);
        mine[key] = (static_cast<Value>(t) << 32) | static_cast<Value>(i);
      } else {
        rng.next_bounded(torture.size());
        rng.next_bounded(3);  // keep the replayed stream in sync
      }
    }
    for (const auto& [k, v] : mine) {
      Value got = 0;
      ASSERT_TRUE(tree->get(verify, BytesView(k), &got))
          << "lost striped key " << k;
      ASSERT_EQ(got, v);
    }
  }
  tree->destroy(verify);
}

TEST_P(StrConformance, NativeConcurrentStress) {
  ctx::NativeEnv env;
  ctx::NativeCtx setup(env, 0);
  auto tree = GetParam().make_native_str(setup, TreeBuildOptions{});

  constexpr int kThreads = 4;
  constexpr int kOps = 1500;
  constexpr std::uint64_t kSeed = 925;
  const std::vector<std::string> torture = torture_keys();
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      ctx::NativeCtx c(env, t);
      const workload::StringKeySpace ks(workload::KeyStyle::kUuid, kSeed);
      Xoshiro256 rng(kSeed + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kOps; ++i) {
        if (rng.next_bounded(2) == 0) {
          const std::string key =
              "t" + std::to_string(t) + "/" + ks.key_of(rng.next_bounded(256));
          const std::string payload = ks.payload_of(
              static_cast<std::uint64_t>(i), static_cast<std::uint64_t>(t), 32);
          tree->put(c, BytesView(key),
                    (static_cast<Value>(t) << 32) | static_cast<Value>(i),
                    BytesView(payload));
        } else {
          const std::string& key = torture[rng.next_bounded(torture.size())];
          if (rng.next_bounded(3) == 0) {
            Value v;
            (void)tree->get(c, BytesView(key), &v);
          } else {
            tree->put(c, BytesView(key),
                      (static_cast<Value>(t) << 32) | static_cast<Value>(i),
                      BytesView{});
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  tree->check_invariants();
  ctx::NativeCtx verify(env, 0);
  for (int t = 0; t < kThreads; ++t) {
    const workload::StringKeySpace ks(workload::KeyStyle::kUuid, kSeed);
    Xoshiro256 rng(kSeed + static_cast<std::uint64_t>(t));
    std::map<std::string, Value> mine;
    for (int i = 0; i < kOps; ++i) {
      if (rng.next_bounded(2) == 0) {
        const std::string key =
            "t" + std::to_string(t) + "/" + ks.key_of(rng.next_bounded(256));
        ks.payload_of(static_cast<std::uint64_t>(i),
                      static_cast<std::uint64_t>(t), 32);
        mine[key] = (static_cast<Value>(t) << 32) | static_cast<Value>(i);
      } else {
        rng.next_bounded(torture.size());
        rng.next_bounded(3);
      }
    }
    for (const auto& [k, v] : mine) {
      Value got = 0;
      ASSERT_TRUE(tree->get(verify, BytesView(k), &got))
          << "lost striped key " << k;
      ASSERT_EQ(got, v);
    }
  }
  tree->destroy(verify);
}

std::string entry_test_name(const ::testing::TestParamInfo<TreeEntry>& info) {
  return slug_test_name(info.param.kind);
}

INSTANTIATE_TEST_SUITE_P(BytesDomainTrees, StrConformance,
                         ::testing::ValuesIn(str_entries()), entry_test_name);

}  // namespace
}  // namespace euno::tests
