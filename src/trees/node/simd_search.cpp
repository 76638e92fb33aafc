#include "trees/node/simd_search.hpp"

#include <cstdlib>

#if defined(__x86_64__) || defined(_M_X64)
#define EUNO_SIMD_X86 1
#include <immintrin.h>
#endif

namespace euno::trees::node::simd {

namespace {

// Every kernel starts on a 64-byte boundary, so where its loop falls
// relative to the CPU's 32-byte fetch and decoded-uop windows is fixed by
// the compiler alone, not by how much code the linker happens to place
// before this object. Unpinned, unrelated code changing size elsewhere in
// a binary moved sim_selfperf's scalar/AVX2 count_le speedup between ~1.4x
// and ~1.9x on one host.
#define EUNO_KERNEL_ALIGN __attribute__((aligned(64)))

// ---- scalar reference ----
//
// count_le is the linear form; on sorted input it returns the same index as
// the node headers' binary searches (first position whose key exceeds the
// probe). The conformance test checks all vector kernels against this.

EUNO_KERNEL_ALIGN
int count_le_scalar(const std::uint64_t* keys, int n, std::uint64_t key) {
  int i = 0;
  while (i < n && keys[i] <= key) ++i;
  return i;
}

EUNO_KERNEL_ALIGN
int find_eq_pairs_scalar(const std::uint64_t* kv, int n, std::uint64_t key) {
  for (int i = 0; i < n; ++i) {
    if (kv[2 * i] == key) return i;
  }
  return -1;
}

constexpr SearchKernels kScalar{count_le_scalar, find_eq_pairs_scalar,
                                "scalar"};

#if defined(EUNO_SIMD_X86)

// ---- SSE2 (x86-64 baseline, no target attribute needed) ----
//
// SSE2 has no 64-bit compare, so both kernels build it from 32-bit lane
// compares: for unsigned a > b, test (hi(a) > hi(b)) || (hi(a) == hi(b) &&
// lo(a) > lo(b)) with the sign bit of each 32-bit lane flipped to turn
// signed epi32 compares into unsigned ones; for equality, AND the two
// 32-bit lane equalities of each 64-bit element.

EUNO_KERNEL_ALIGN
int count_le_sse2(const std::uint64_t* keys, int n, std::uint64_t key) {
  const __m128i sign32 = _mm_set1_epi32(static_cast<int>(0x80000000u));
  const __m128i pivot = _mm_set1_epi64x(static_cast<long long>(key));
  const __m128i pivot_s = _mm_xor_si128(pivot, sign32);
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys + i));
    const __m128i vs = _mm_xor_si128(v, sign32);
    const __m128i gt32 = _mm_cmpgt_epi32(vs, pivot_s);  // unsigned, per lane
    const __m128i eq32 = _mm_cmpeq_epi32(v, pivot);
    const __m128i gt_hi = _mm_shuffle_epi32(gt32, _MM_SHUFFLE(3, 3, 1, 1));
    const __m128i gt_lo = _mm_shuffle_epi32(gt32, _MM_SHUFFLE(2, 2, 0, 0));
    const __m128i eq_hi = _mm_shuffle_epi32(eq32, _MM_SHUFFLE(3, 3, 1, 1));
    const __m128i gt64 = _mm_or_si128(gt_hi, _mm_and_si128(eq_hi, gt_lo));
    const int m = _mm_movemask_pd(_mm_castsi128_pd(gt64));  // keys[i+j] > key
    if (m != 0) return i + __builtin_ctz(static_cast<unsigned>(m));
  }
  for (; i < n; ++i) {
    if (keys[i] > key) return i;
  }
  return n;
}

EUNO_KERNEL_ALIGN
int find_eq_pairs_sse2(const std::uint64_t* kv, int n, std::uint64_t key) {
  const __m128i pivot = _mm_set1_epi64x(static_cast<long long>(key));
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    // Gather the two records' keys into one vector: record j is the 16-byte
    // {key, value} pair at kv + 2*j, its key in the low 64-bit lane.
    const __m128i a =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(kv + 2 * i));
    const __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(kv + 2 * i + 2));
    const __m128i k2 = _mm_unpacklo_epi64(a, b);
    const __m128i eq32 = _mm_cmpeq_epi32(k2, pivot);
    const __m128i eq_lo = _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 2, 0, 0));
    const __m128i eq_hi = _mm_shuffle_epi32(eq32, _MM_SHUFFLE(3, 3, 1, 1));
    const int m =
        _mm_movemask_pd(_mm_castsi128_pd(_mm_and_si128(eq_lo, eq_hi)));
    if (m != 0) return i + __builtin_ctz(static_cast<unsigned>(m));
  }
  if (i < n && kv[2 * i] == key) return i;
  return -1;
}

constexpr SearchKernels kSse2{count_le_sse2, find_eq_pairs_sse2, "sse2"};

// ---- AVX2 (function-level target attribute: the translation unit compiles
// without -mavx2 so default builds stay portable; see EUNO_NATIVE_ARCH) ----

EUNO_KERNEL_ALIGN __attribute__((target("avx2")))
int count_le_avx2(const std::uint64_t* keys, int n, std::uint64_t key) {
  const __m256i sign = _mm256_set1_epi64x(static_cast<long long>(1ull << 63));
  const __m256i pivot_s = _mm256_xor_si256(
      _mm256_set1_epi64x(static_cast<long long>(key)), sign);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    // Flip the sign bit so the signed 64-bit compare acts unsigned.
    const __m256i gt =
        _mm256_cmpgt_epi64(_mm256_xor_si256(v, sign), pivot_s);
    const int m = _mm256_movemask_pd(_mm256_castsi256_pd(gt));
    if (m != 0) return i + __builtin_ctz(static_cast<unsigned>(m));
  }
  for (; i < n; ++i) {
    if (keys[i] > key) return i;
  }
  return n;
}

EUNO_KERNEL_ALIGN __attribute__((target("avx2")))
int find_eq_pairs_avx2(const std::uint64_t* kv, int n, std::uint64_t key) {
  const __m256i pivot = _mm256_set1_epi64x(static_cast<long long>(key));
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    // Two 32-byte loads cover records i..i+3; unpacklo gathers their keys
    // (lane-wise, so in permuted order [k_i, k_i+2, k_i+1, k_i+3]). The
    // lookup table maps a non-empty equality mask back to the FIRST
    // matching record offset, preserving scalar first-match semantics even
    // for duplicate keys.
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kv + 2 * i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kv + 2 * i + 4));
    const __m256i keys = _mm256_unpacklo_epi64(a, b);
    const __m256i eq = _mm256_cmpeq_epi64(keys, pivot);
    const int m = _mm256_movemask_pd(_mm256_castsi256_pd(eq));
    if (m != 0) {
      // Mask bit j holds record {0:i, 1:i+2, 2:i+1, 3:i+3}; first match =
      // min record offset over the set bits.
      static constexpr std::uint8_t kFirst[16] = {0, 0, 2, 0, 1, 0, 1, 0,
                                                  3, 0, 2, 0, 1, 0, 1, 0};
      return i + kFirst[m];
    }
  }
  for (; i < n; ++i) {
    if (kv[2 * i] == key) return i;
  }
  return -1;
}

constexpr SearchKernels kAvx2{count_le_avx2, find_eq_pairs_avx2, "avx2"};

#endif  // EUNO_SIMD_X86

const SearchKernels* detect() {
  const char* no_simd = std::getenv("EUNO_NO_SIMD");
  if (no_simd != nullptr && no_simd[0] == '1') return &kScalar;
#if defined(EUNO_SIMD_X86)
  if (__builtin_cpu_supports("avx2")) return &kAvx2;
  return &kSse2;  // SSE2 is the x86-64 baseline, always present
#else
  return &kScalar;
#endif
}

#undef EUNO_KERNEL_ALIGN

}  // namespace

namespace detail {
const SearchKernels* const g_active = detect();
}

const SearchKernels& active_kernels() { return *detail::g_active; }

const SearchKernels& scalar_kernels() { return kScalar; }

const SearchKernels* const* runnable_kernels(int* count) {
#if defined(EUNO_SIMD_X86)
  static const SearchKernels* const kAll[] = {&kScalar, &kSse2, &kAvx2};
  *count = __builtin_cpu_supports("avx2") ? 3 : 2;
#else
  static const SearchKernels* const kAll[] = {&kScalar};
  *count = 1;
#endif
  return kAll;
}

}  // namespace euno::trees::node::simd
