// Equivalence property test for the vectorized node-search kernels
// (trees/node/simd_search.hpp): every kernel set runnable on this host
// (scalar, SSE2, AVX2 when supported) must return exactly the scalar
// reference's answer on every layout the node headers feed them — all
// fanouts, all fills from empty to full, sorted unique arrays, duplicate
// neighborhoods, and boundary keys around 0, the sign bit, and ~0ull.
//
// Probes cover hits on every position, misses between every pair of
// elements, and both extremes, so tail handling (the partial vector at the
// end) and lane masking are exercised at every n.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "ctx/native_ctx.hpp"
#include "ctx/sim_ctx.hpp"
#include "trees/key_traits.hpp"
#include "trees/node/consecutive.hpp"
#include "trees/node/simd_search.hpp"

namespace euno::trees::node::simd {
namespace {

// Deterministic 64-bit mixer (splitmix64 finalizer) — no <random>, and the
// test enumerates the same cases on every run.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Key patterns fed to both kernel families. All are sorted (count_le
// requires it; find_eq_pairs does not care).
std::vector<std::vector<std::uint64_t>> key_patterns(int n) {
  std::vector<std::vector<std::uint64_t>> out;
  // Sorted pseudo-random, unique with wide gaps.
  {
    std::vector<std::uint64_t> v;
    std::uint64_t k = 3;
    for (int i = 0; i < n; ++i) {
      k += 2 + (mix(static_cast<std::uint64_t>(i)) & 0xffff);
      v.push_back(k);
    }
    out.push_back(std::move(v));
  }
  // Dense consecutive run (adjacent keys differ by 1).
  {
    std::vector<std::uint64_t> v;
    for (int i = 0; i < n; ++i) v.push_back(1000 + static_cast<std::uint64_t>(i));
    out.push_back(std::move(v));
  }
  // Duplicate plateaus (count_le must count ALL equal keys; legal input for
  // the child_index contract even though live nodes keep separators unique).
  {
    std::vector<std::uint64_t> v;
    for (int i = 0; i < n; ++i) v.push_back(500 + static_cast<std::uint64_t>(i / 3) * 10);
    out.push_back(std::move(v));
  }
  // Boundary keys: values hugging 0, the 2^63 sign bit (where the
  // signed-compare trick in the SSE2/AVX2 kernels would break if the bias
  // were wrong), and ~0ull.
  {
    std::vector<std::uint64_t> v;
    const std::uint64_t kEdges[] = {0ull,
                                    1ull,
                                    2ull,
                                    (1ull << 63) - 2,
                                    (1ull << 63) - 1,
                                    1ull << 63,
                                    (1ull << 63) + 1,
                                    ~0ull - 2,
                                    ~0ull - 1,
                                    ~0ull};
    int produced = 0;
    for (std::uint64_t e : kEdges) {
      if (produced == n) break;
      v.push_back(e);
      ++produced;
    }
    while (produced < n) {  // pad past the edge set, keeping sorted order
      v.push_back(v.back());
      ++produced;
    }
    out.push_back(std::move(v));
  }
  return out;
}

// Probe keys for one array: every element (hit), every midpoint and
// offset-by-one (miss), and the extremes of the key space.
std::vector<std::uint64_t> probes(const std::vector<std::uint64_t>& keys) {
  std::vector<std::uint64_t> p = {0ull, 1ull, (1ull << 63) - 1, 1ull << 63,
                                  ~0ull};
  for (std::uint64_t k : keys) {
    p.push_back(k);
    p.push_back(k - 1);
    p.push_back(k + 1);
  }
  return p;
}

TEST(SimdSearch, KernelRosterIsSane) {
  int count = 0;
  const SearchKernels* const* all = runnable_kernels(&count);
  ASSERT_GE(count, 1);
  EXPECT_STREQ(all[0]->name, "scalar");
  // The dispatcher's pick must be one of the runnable sets (or the scalar
  // set when EUNO_NO_SIMD is exported into the test environment).
  bool active_listed = false;
  for (int i = 0; i < count; ++i) {
    if (all[i] == &active_kernels()) active_listed = true;
  }
  EXPECT_TRUE(active_listed) << "active kernels not in runnable roster";
}

TEST(SimdSearch, CountLeMatchesScalarEverywhere) {
  int count = 0;
  const SearchKernels* const* all = runnable_kernels(&count);
  const SearchKernels& ref = scalar_kernels();
  for (int fanout : {4, 8, 16, 32, 64}) {
    for (int n = 0; n <= fanout; ++n) {  // empty through full
      for (const auto& keys : key_patterns(n)) {
        for (std::uint64_t probe : probes(keys)) {
          const int want = ref.count_le(keys.data(), n, probe);
          for (int k = 0; k < count; ++k) {
            const int got = all[k]->count_le(keys.data(), n, probe);
            ASSERT_EQ(got, want)
                << all[k]->name << " count_le n=" << n << " probe=" << probe;
          }
        }
      }
    }
  }
}

TEST(SimdSearch, FindEqPairsMatchesScalarEverywhere) {
  int count = 0;
  const SearchKernels* const* all = runnable_kernels(&count);
  const SearchKernels& ref = scalar_kernels();
  for (int fanout : {4, 8, 16, 32, 64}) {
    for (int n = 0; n <= fanout; ++n) {
      for (const auto& keys : key_patterns(n)) {
        // Interleave {key, value} pairs the way Record arrays lay out in
        // memory; values are distinct garbage that must never match.
        std::vector<std::uint64_t> kv(2 * static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
          kv[2 * static_cast<std::size_t>(i)] = keys[static_cast<std::size_t>(i)];
          kv[2 * static_cast<std::size_t>(i) + 1] =
              mix(keys[static_cast<std::size_t>(i)]);
        }
        for (std::uint64_t probe : probes(keys)) {
          const int want = ref.find_eq_pairs(kv.data(), n, probe);
          for (int k = 0; k < count; ++k) {
            const int got = all[k]->find_eq_pairs(kv.data(), n, probe);
            ASSERT_EQ(got, want)
                << all[k]->name << " find_eq_pairs n=" << n
                << " probe=" << probe;
          }
        }
        // A value colliding with the probe key must not count as a hit:
        // plant the probe in a value lane only.
        if (n >= 2) {
          const std::uint64_t foreign = keys.back() + 12345;
          kv[1] = foreign;  // value of record 0
          const int want = ref.find_eq_pairs(kv.data(), n, foreign);
          ASSERT_EQ(want, -1) << "reference matched a value lane";
          for (int k = 0; k < count; ++k) {
            ASSERT_EQ(all[k]->find_eq_pairs(kv.data(), n, foreign), -1)
                << all[k]->name << " matched a value lane, n=" << n;
          }
        }
      }
    }
  }
}

// --- Prefix-slice kernels (bytes key domain) --------------------------------
//
// Bytes-domain nodes search the same u64 kernels over big-endian packed
// prefix slices (key_traits.hpp bytes_prefix): natively they bound the run of
// slots whose slice equals the key's, and only that run is binary-searched by
// out-of-line box compares (the NativeBytesProbe cases at the end check the
// whole probe). These cases feed the kernels slice arrays produced from real
// string corpora, concentrating on the two shapes that distinguish the bytes
// domain from arbitrary u64 keys:
//  - long shared prefixes, where many slices are EQUAL (count_le must count
//    the whole plateau; duplicate-heavy inputs stress the tail masks), and
//  - bytes >= 0x80 in the leading positions, which set the packed word's
//    sign bit — exactly where the SSE2/AVX2 signed-compare bias would break.

// String corpora for one fill level. All sorted by bytes_compare, which by
// the monotone-coarsening property sorts the packed slices too.
std::vector<std::vector<std::string>> string_patterns(int n) {
  std::vector<std::vector<std::string>> out;
  // Shared 8-byte prefix, suffix-only differences: every slice equal.
  {
    std::vector<std::string> v;
    for (int i = 0; i < n; ++i) {
      v.push_back("pfx8----suffix" + std::to_string(1000 + i));
    }
    out.push_back(std::move(v));
  }
  // Distinct prefixes within the first 8 bytes (url-host style).
  {
    std::vector<std::string> v;
    for (int i = 0; i < n; ++i) {
      std::string s = "h";
      s += static_cast<char>('a' + (i % 26));
      s += static_cast<char>('a' + (i / 26));
      s += ".example.com/" + std::to_string(i);
      v.push_back(std::move(s));
    }
    std::sort(v.begin(), v.end());
    out.push_back(std::move(v));
  }
  // Sign-bit bytes: leading 0x7f/0x80/0xff so packed slices straddle 2^63.
  {
    std::vector<std::string> v;
    for (int i = 0; i < n; ++i) {
      std::string s;
      s += static_cast<char>(0x7e + (i % 4));  // 0x7e..0x81: straddles 0x80
      s += static_cast<char>(0x80 | (i % 64));
      s += "tail" + std::to_string(i);
      v.push_back(std::move(s));
    }
    std::sort(v.begin(), v.end());
    out.push_back(std::move(v));
  }
  // Short keys (< 8 bytes): zero-padded slices, including the empty key.
  {
    std::vector<std::string> v;
    for (int i = 0; i < n; ++i) {
      v.push_back(std::string(static_cast<std::size_t>(i % 7), 'k') +
                  (i >= 7 ? std::to_string(i) : ""));
    }
    std::sort(v.begin(), v.end());
    out.push_back(std::move(v));
  }
  return out;
}

// The slice packing really is a monotone coarsening of lexicographic order:
// a < b implies slice(a) <= slice(b), and slice(a) < slice(b) implies a < b.
TEST(SimdPrefixSearch, SlicePackingIsMonotone) {
  for (const auto& corpus : string_patterns(32)) {
    for (std::size_t i = 0; i + 1 < corpus.size(); ++i) {
      const auto& a = corpus[i];
      const auto& b = corpus[i + 1];
      const int full = bytes_compare(a.data(), a.size(), b.data(), b.size());
      const std::uint64_t sa = bytes_prefix(a.data(), a.size());
      const std::uint64_t sb = bytes_prefix(b.data(), b.size());
      if (full <= 0) EXPECT_LE(sa, sb) << "'" << a << "' vs '" << b << "'";
      if (sa < sb) EXPECT_LT(full, 0) << "'" << a << "' vs '" << b << "'";
    }
  }
}

TEST(SimdPrefixSearch, CountLeMatchesScalarOnSliceArrays) {
  int count = 0;
  const SearchKernels* const* all = runnable_kernels(&count);
  const SearchKernels& ref = scalar_kernels();
  for (int fanout : {4, 8, 16, 32, 64}) {
    for (int n = 0; n <= fanout; ++n) {
      for (const auto& corpus : string_patterns(n)) {
        std::vector<std::uint64_t> slices;
        for (const auto& s : corpus) {
          slices.push_back(bytes_prefix(s.data(), s.size()));
        }
        // Probe with every corpus slice plus near-misses on both sides —
        // on the shared-prefix corpus these all collapse to one plateau
        // value, the duplicate-heavy extreme for count_le's masks.
        std::vector<std::uint64_t> pr = {0ull, ~0ull, 1ull << 63};
        for (std::uint64_t s : slices) {
          pr.push_back(s);
          pr.push_back(s - 1);
          pr.push_back(s + 1);
        }
        for (std::uint64_t probe : pr) {
          const int want = ref.count_le(slices.data(), n, probe);
          for (int k = 0; k < count; ++k) {
            ASSERT_EQ(all[k]->count_le(slices.data(), n, probe), want)
                << all[k]->name << " slice count_le n=" << n
                << " probe=" << probe;
          }
        }
      }
    }
  }
}

TEST(SimdPrefixSearch, FindEqPairsMatchesScalarOnSliceArrays) {
  int count = 0;
  const SearchKernels* const* all = runnable_kernels(&count);
  const SearchKernels& ref = scalar_kernels();
  for (int fanout : {4, 8, 16, 32, 64}) {
    for (int n = 0; n <= fanout; ++n) {
      for (const auto& corpus : string_patterns(n)) {
        std::vector<std::uint64_t> kv(2 * static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
          const auto& s = corpus[static_cast<std::size_t>(i)];
          kv[2 * static_cast<std::size_t>(i)] = bytes_prefix(s.data(), s.size());
          kv[2 * static_cast<std::size_t>(i) + 1] =
              mix(static_cast<std::uint64_t>(i));
        }
        std::vector<std::uint64_t> pr = {0ull, ~0ull};
        for (int i = 0; i < n; ++i) {
          pr.push_back(kv[2 * static_cast<std::size_t>(i)]);
        }
        for (std::uint64_t probe : pr) {
          const int want = ref.find_eq_pairs(kv.data(), n, probe);
          for (int k = 0; k < count; ++k) {
            ASSERT_EQ(all[k]->find_eq_pairs(kv.data(), n, probe), want)
                << all[k]->name << " slice find_eq_pairs n=" << n
                << " probe=" << probe;
          }
        }
      }
    }
  }
}

// --- Native bytes-domain node probes -----------------------------------------
//
// child_index/leaf_find on bytes-domain nodes under a raw-memory context:
// the kernels bound the run of slots sharing the key's slice, and only that
// run is resolved by box compares. Nodes carry equal-slice runs of every
// length 0..F; each probe must agree with a sorted-array oracle and with the
// instrumented (SimCtx) binary search, and a counting context bounds the box
// compares per probe by the run's binary-search depth.

/// Raw-memory context that counts box compares: box_key_compare reads a
/// box's header word (BytesBox::meta) exactly once per compare.
struct BoxCountingCtx {
  static constexpr bool kRawMemory = true;
  const std::unordered_set<const void*>* metas = nullptr;
  int compares = 0;

  template <class T>
  T read(const T& src) {
    if (metas->count(&src) != 0) ++compares;
    return src;
  }
  void prefetch(const void*, std::size_t = 0) const {}
};

/// 2F+1 distinct keys that all share the slice of "abc": keys shorter than
/// 8 bytes (zero padding makes "abc" and "abc\0\0" slice-equal), the exact
/// 8-byte prefix of every longer one, embedded NULs, and sign-bit bytes.
std::vector<std::string> equal_slice_pool(int fanout) {
  const std::string base8("abc\0\0\0\0\0", 8);
  std::vector<std::string> v;
  for (std::size_t k = 0; k <= 5; ++k) v.push_back("abc" + std::string(k, '\0'));
  for (const unsigned char b : {0x00, 0x01, 0x20, 0x41, 0x61, 0x7f, 0x80, 0xc0, 0xff}) {
    const std::string s = base8 + static_cast<char>(b);
    v.push_back(s);
    v.push_back(s + '\0');
    v.push_back(s + "tail");
    v.push_back(s + std::string(17, 'z'));
  }
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  EUNO_ASSERT(v.size() >= static_cast<std::size_t>(2 * fanout + 1));
  v.resize(static_cast<std::size_t>(2 * fanout + 1));
  return v;
}

int ceil_log2(int x) {
  int bits = 0;
  while ((1 << bits) < x) ++bits;
  return bits;
}

using BT = BytesKeyTraits;

/// One node pair (interior + leaf) over the same sorted keys, boxes owned.
template <class Node>
struct ProbeNodes {
  ctx::NativeCtx& c;
  Node* inner;
  Node* leaf;
  std::vector<BytesBox*> boxes;

  ProbeNodes(ctx::NativeCtx& ctx, const std::vector<std::string>& keys)
      : c(ctx), inner(Node::alloc(ctx, false)), leaf(Node::alloc(ctx, true)) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::uint64_t slice = bytes_prefix(keys[i].data(), keys[i].size());
      BytesBox* b = make_box(c, BytesView(keys[i]), i, {});
      boxes.push_back(b);
      inner->idx.keys[i] = slice;
      inner->idx.seps[i] = b;
      leaf->recs[i] = Record{slice, reinterpret_cast<Value>(b)};
    }
    inner->count = leaf->count = static_cast<std::uint32_t>(keys.size());
  }
  ~ProbeNodes() {
    for (BytesBox* b : boxes) free_box(c, b);
    c.free(inner, sizeof(Node), MemClass::kInternalNode);
    c.free(leaf, sizeof(Node), MemClass::kLeafNode);
  }
};

template <class Node>
void check_native_bytes_probes() {
  constexpr int F = Node::kFanout;
  ctx::NativeEnv env;
  ctx::NativeCtx native(env, 0);
  sim::MachineConfig cfg;
  cfg.arena_bytes = 16ull << 20;
  sim::Simulation simulation(cfg);
  ctx::SimCtx simc(simulation, 0);  // outside any fiber: uninstrumented reads

  const std::vector<std::string> pool = equal_slice_pool(F);
  std::vector<std::string> before, after;  // slices below / above "abc"'s
  for (int i = 0; i < F; ++i) {
    const std::string d = std::to_string(10 + i);
    before.push_back("abb-" + d);
    after.push_back(i % 2 == 0 ? "abc\x01" + d : "abd-" + d);
  }
  std::sort(after.begin(), after.end());

  for (int run = 0; run <= F; ++run) {
    for (const int nb : {0, (F - run) / 2}) {
      for (const int na : {0, F - run - nb}) {
        // The run takes every other pool key; the rest probe its gaps.
        std::vector<std::string> keys(before.begin(), before.begin() + nb);
        for (int i = 0; i < run; ++i) keys.push_back(pool[2 * i + 1]);
        keys.insert(keys.end(), after.begin(), after.begin() + na);
        ASSERT_TRUE(std::is_sorted(keys.begin(), keys.end()));
        ProbeNodes<Node> nodes(native, keys);
        std::unordered_set<const void*> metas;
        for (BytesBox* b : nodes.boxes) metas.insert(&b->meta);
        BoxCountingCtx counting{&metas, 0};

        std::vector<std::string> probes = pool;
        probes.insert(probes.end(), before.begin(), before.end());
        probes.insert(probes.end(), after.begin(), after.end());
        for (const char* extra : {"", "ab", "abc\x01", "abd", "\xff\xff\xff"}) {
          probes.emplace_back(extra);
        }
        for (const std::string& p : probes) {
          const BT::Arg arg = BT::make_arg(BytesView(p));
          const int want_child = static_cast<int>(
              std::upper_bound(keys.begin(), keys.end(), p) - keys.begin());
          const auto hit = std::find(keys.begin(), keys.end(), p);
          const int want_leaf =
              hit == keys.end() ? -1 : static_cast<int>(hit - keys.begin());
          const std::string where = "F=" + std::to_string(F) +
                                    " run=" + std::to_string(run) +
                                    " nb=" + std::to_string(nb) +
                                    " na=" + std::to_string(na) +
                                    " probe#" + std::to_string(&p - &probes[0]);

          ASSERT_EQ(child_index<BT>(native, nodes.inner, arg), want_child) << where;
          ASSERT_EQ(child_index<BT>(simc, nodes.inner, arg), want_child) << where;
          ASSERT_EQ(leaf_find<BT>(native, nodes.leaf, arg), want_leaf) << where;
          ASSERT_EQ(leaf_find<BT>(simc, nodes.leaf, arg), want_leaf) << where;

          // Box compares are confined to the probe's equal-slice run and
          // bounded by a binary search over it.
          int same_slice = 0;
          for (const auto& k : keys) {
            if (bytes_prefix(k.data(), k.size()) == arg.prefix) ++same_slice;
          }
          const int bound = ceil_log2(same_slice + 1) + 1;
          counting.compares = 0;
          ASSERT_EQ(child_index<BT>(counting, nodes.inner, arg), want_child) << where;
          EXPECT_LE(counting.compares, bound) << "child_index " << where;
          counting.compares = 0;
          ASSERT_EQ(leaf_find<BT>(counting, nodes.leaf, arg), want_leaf) << where;
          EXPECT_LE(counting.compares, bound) << "leaf_find " << where;
        }
      }
    }
  }
}

TEST(SimdPrefixSearch, NativeBytesProbeDbxNode) {
  check_native_bytes_probes<DbxNode<16, BytesKeyTraits>>();
  check_native_bytes_probes<DbxNode<5, BytesKeyTraits>>();
}

TEST(SimdPrefixSearch, NativeBytesProbeVersionedNode) {
  check_native_bytes_probes<VersionedNode<16, BytesKeyTraits>>();
  check_native_bytes_probes<VersionedNode<5, BytesKeyTraits>>();
}

}  // namespace
}  // namespace euno::trees::node::simd
