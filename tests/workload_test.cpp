// Tests for the workload generators: distribution shapes match the paper's
// parameterizations, op mixes honour their ratios, streams are deterministic.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "util/hash.hpp"
#include "util/rng.hpp"
#include "workload/distributions.hpp"
#include "workload/strkeys.hpp"
#include "workload/ycsb.hpp"

namespace euno::workload {
namespace {

constexpr std::uint64_t kN = 100000;
constexpr std::uint64_t kSamples = 200000;

TEST(Zipfian, UniformWhenThetaZero) {
  ZipfianDist z(kN, 0.0);
  EXPECT_NEAR(measure_hot10_fraction(z, kSamples, 1), 0.10, 0.01);
}

TEST(Zipfian, SkewGrowsWithTheta) {
  double prev = 0.0;
  for (double theta : {0.2, 0.5, 0.7, 0.9, 0.99}) {
    ZipfianDist z(kN, theta);
    const double hot = measure_hot10_fraction(z, kSamples, 2);
    EXPECT_GT(hot, prev) << "theta=" << theta;
    prev = hot;
  }
}

TEST(Zipfian, SamplerMatchesAnalyticPmf) {
  // The empirical hot-decile mass must match the analytic Zipf mass
  // Σ_{k≤n/10} k^-θ / Σ_{k≤n} k^-θ. (The paper's §5.1 prose quotes YCSB's
  // "41%" folklore figure, which does not correspond to this ratio at any
  // key range; we validate against the actual distribution.)
  for (double theta : {0.5, 0.9, 0.99}) {
    double hot_mass = 0, total_mass = 0;
    for (std::uint64_t k = 1; k <= kN; ++k) {
      const double p = std::pow(static_cast<double>(k), -theta);
      total_mass += p;
      if (k <= kN / 10) hot_mass += p;
    }
    ZipfianDist z(kN, theta);
    EXPECT_NEAR(measure_hot10_fraction(z, kSamples, 3), hot_mass / total_mass, 0.02)
        << "theta=" << theta;
  }
}

TEST(Zipfian, RanksWithinRange) {
  ZipfianDist z(1000, 0.9);
  Xoshiro256 rng(4);
  for (int i = 0; i < 10000; ++i) ASSERT_LT(z.sample(rng), 1000u);
}

TEST(Zipfian, Rank0IsHottest) {
  ZipfianDist z(kN, 0.9);
  Xoshiro256 rng(5);
  std::uint64_t rank0 = 0, rank_other = 0;
  for (int i = 0; i < 100000; ++i) {
    const auto r = z.sample(rng);
    if (r == 0) rank0++;
    if (r == kN / 2) rank_other++;
  }
  EXPECT_GT(rank0, rank_other * 10);
}

TEST(SelfSimilar, EightyTwentyRule) {
  SelfSimilarDist d(kN, 0.2);
  // 20% hottest keys get ~80% of accesses.
  Xoshiro256 rng(6);
  std::uint64_t hits = 0;
  for (std::uint64_t i = 0; i < kSamples; ++i) {
    if (d.sample(rng) < kN / 5) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.80, 0.02);
}

TEST(SelfSimilar, SelfSimilarityWithinSubranges) {
  // Within the hottest 20% sub-range, the hottest 20% of *it* again draws
  // ~80% of that sub-range's accesses.
  SelfSimilarDist d(kN, 0.2);
  Xoshiro256 rng(7);
  std::uint64_t in_sub = 0, in_subsub = 0;
  for (std::uint64_t i = 0; i < kSamples * 4; ++i) {
    const auto r = d.sample(rng);
    if (r < kN / 5) {
      ++in_sub;
      if (r < kN / 25) ++in_subsub;
    }
  }
  EXPECT_NEAR(static_cast<double>(in_subsub) / static_cast<double>(in_sub), 0.80,
              0.03);
}

TEST(Normal, ConcentratedAroundMean) {
  NormalDist d(kN, 0.01);
  Xoshiro256 rng(8);
  const double mean = static_cast<double>(kN) / 2;
  std::uint64_t within_3sigma = 0;
  for (std::uint64_t i = 0; i < kSamples; ++i) {
    const auto r = d.sample(rng);
    if (std::abs(static_cast<double>(r) - mean) < 3 * 0.01 * mean) ++within_3sigma;
  }
  EXPECT_GT(static_cast<double>(within_3sigma) / kSamples, 0.99);
}

TEST(Poisson, CalibratedHotDecileCoverage) {
  // §5.5: 10% hottest records accessed by 70% of requests.
  auto d = make_distribution(DistKind::kPoisson, kN, 0.70);
  EXPECT_NEAR(measure_hot10_fraction(*d, kSamples, 9), 0.70, 0.02);
}

TEST(Poisson, CalibrationFormula) {
  EXPECT_NEAR(calibrate_poisson_hot_weight(0.70), (0.70 - 0.1) / 0.9, 1e-12);
  EXPECT_NEAR(calibrate_poisson_hot_weight(1.0), 1.0, 1e-12);
}

TEST(Factory, AllKindsConstructAndSample) {
  for (auto kind : {DistKind::kUniform, DistKind::kZipfian, DistKind::kSelfSimilar,
                    DistKind::kNormal, DistKind::kPoisson}) {
    auto d = make_distribution(kind, 1000, 0.5);
    ASSERT_NE(d, nullptr);
    Xoshiro256 rng(10);
    for (int i = 0; i < 1000; ++i) ASSERT_LT(d->sample(rng), 1000u);
  }
}

TEST(RankToKey, ScrambleStaysInRange) {
  for (std::uint64_t r = 0; r < 1000; ++r) {
    ASSERT_LT(rank_to_key(r, 1000, true), 1000u);
    ASSERT_EQ(rank_to_key(r, 1000, false), r);
  }
}

TEST(OpStream, MixRatiosRespected) {
  WorkloadSpec spec;
  spec.mix = OpMix{20, 80, 0, 0};
  spec.key_range = 1000;
  OpStream s(spec, 0);
  std::map<OpType, int> counts;
  for (int i = 0; i < 100000; ++i) counts[s.next().type]++;
  EXPECT_NEAR(counts[OpType::kGet] / 100000.0, 0.20, 0.01);
  EXPECT_NEAR(counts[OpType::kPut] / 100000.0, 0.80, 0.01);
}

TEST(OpStream, AllFourOpTypes) {
  WorkloadSpec spec;
  spec.mix = OpMix{40, 40, 10, 10};
  OpStream s(spec, 0);
  std::map<OpType, int> counts;
  for (int i = 0; i < 100000; ++i) counts[s.next().type]++;
  EXPECT_NEAR(counts[OpType::kScan] / 100000.0, 0.10, 0.01);
  EXPECT_NEAR(counts[OpType::kDelete] / 100000.0, 0.10, 0.01);
}

TEST(OpStream, DeterministicPerThreadAndDistinctAcrossThreads) {
  WorkloadSpec spec;
  OpStream a0(spec, 0), b0(spec, 0), a1(spec, 1);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    const Op x = a0.next(), y = b0.next(), z = a1.next();
    ASSERT_EQ(x.key, y.key);
    ASSERT_EQ(x.type, y.type);
    if (x.key != z.key) differs = true;  // independent key streams per thread
  }
  EXPECT_TRUE(differs);
}

TEST(OpStream, KeysWithinRange) {
  WorkloadSpec spec;
  spec.key_range = 500;
  spec.dist = DistKind::kZipfian;
  spec.dist_param = 0.9;
  OpStream s(spec, 3);
  for (int i = 0; i < 10000; ++i) ASSERT_LT(s.next().key, 500u);
}

TEST(OpStream, InvalidMixRejected) {
  WorkloadSpec spec;
  spec.mix = OpMix{50, 60, 0, 0};
  EXPECT_DEATH({ OpStream s(spec, 0); }, "sum to 100");
}

TEST(WorkloadSpec, DescribeMentionsKeyFacts) {
  WorkloadSpec spec;
  spec.dist = DistKind::kZipfian;
  spec.dist_param = 0.9;
  const auto d = spec.describe();
  EXPECT_NE(d.find("zipfian"), std::string::npos);
  EXPECT_NE(d.find("0.9"), std::string::npos);
}

// The ids StringKeySpace must format exactly: the extremes of both styles'
// hex fields plus a seeded sample.
std::vector<std::uint64_t> key_space_ids() {
  std::vector<std::uint64_t> ids = {0, 1, (1ull << 48) - 1, ~0ull};
  Xoshiro256 rng(0x5eed);
  for (int i = 0; i < 10000; ++i) ids.push_back(rng.next());
  return ids;
}

std::string printf_hex(std::uint64_t v, int digits) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%0*llx", digits,
                static_cast<unsigned long long>(v));
  return buf;
}

// Keys are byte-identical to the snprintf formatting they are defined by.
TEST(StringKeySpace, KeysMatchPrintfFormatting) {
  for (const std::uint64_t seed : {0ull, 42ull}) {
    const StringKeySpace url(KeyStyle::kUrl, seed);
    const StringKeySpace uuid(KeyStyle::kUuid, seed);
    for (const std::uint64_t id : key_space_ids()) {
      // url: host/word/word/ then the id in 16 hex digits.
      const std::string u = url.key_of(id);
      ASSERT_GT(u.size(), 17u);
      ASSERT_EQ(u.substr(u.size() - 17), "/" + printf_hex(id, 16)) << u;
      // uuid: every field comes from the key hash and the id.
      const std::uint64_t h = mix64(seed ^ mix64(id + 1));
      const std::string want =
          printf_hex((h >> 32) & 0xffffffffull, 8) + "-" +
          printf_hex((h >> 16) & 0xffffull, 4) + "-" +
          printf_hex(0x4000 | (h & 0x0fff), 4) + "-" +
          printf_hex(0x8000 | ((h >> 48) & 0x3fff), 4) + "-" +
          printf_hex(id & 0xffffffffffffull, 12);
      ASSERT_EQ(uuid.key_of(id), want);
    }
  }
}

// Payloads are byte-identical to the character-at-a-time reference.
TEST(StringKeySpace, PayloadsMatchReference) {
  constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  constexpr std::uint64_t kAlpha = sizeof(kAlphabet) - 1;
  const std::uint64_t seed = 7;
  const StringKeySpace ks(KeyStyle::kUrl, seed);
  std::uint32_t bytes = 0;
  for (const std::uint64_t id : key_space_ids()) {
    const std::uint64_t salt = id * 3 + 1;
    std::string want;
    std::uint64_t state = mix64(seed ^ mix64(id) ^ (salt * 0x9e3779b97f4a7c15ull));
    for (std::uint32_t i = 0; i < bytes; ++i) {
      if (i > 0 && i % 10 == 0) state = mix64(state + 0x9e3779b97f4a7c15ull);
      want += kAlphabet[state % kAlpha];
      state /= kAlpha;
    }
    ASSERT_EQ(ks.payload_of(id, salt, bytes), want) << "id=" << id;
    bytes = (bytes + 7) % 97;  // 0..96 bytes, crossing every refresh point
  }
}

}  // namespace
}  // namespace euno::workload
