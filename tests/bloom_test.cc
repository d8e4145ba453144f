#include "bloom/bloom_filter.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "bloom/summary.h"
#include "common/config.h"
#include "common/rng.h"

namespace flower {
namespace {

TEST(BloomFilterTest, EmptyContainsNothing) {
  BloomFilter f(1024, 5);
  for (uint64_t k = 0; k < 100; ++k) EXPECT_FALSE(f.MaybeContains(k));
}

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter f(4000, 5);
  for (uint64_t k = 1000; k < 1500; ++k) f.Add(k);
  for (uint64_t k = 1000; k < 1500; ++k) {
    EXPECT_TRUE(f.MaybeContains(k)) << k;
  }
}

TEST(BloomFilterTest, ClearResets) {
  BloomFilter f(256, 3);
  f.Add(7);
  EXPECT_TRUE(f.MaybeContains(7));
  f.Clear();
  EXPECT_FALSE(f.MaybeContains(7));
  EXPECT_EQ(f.num_insertions(), 0u);
  EXPECT_EQ(f.CountSetBits(), 0u);
}

TEST(BloomFilterTest, UnionContainsBoth) {
  BloomFilter a(512, 4), b(512, 4);
  a.Add(1);
  b.Add(2);
  a.UnionWith(b);
  EXPECT_TRUE(a.MaybeContains(1));
  EXPECT_TRUE(a.MaybeContains(2));
}

TEST(BloomFilterTest, EqualityAfterSameInsertions) {
  BloomFilter a(512, 4), b(512, 4);
  a.Add(10);
  a.Add(20);
  b.Add(20);
  b.Add(10);
  EXPECT_TRUE(a == b);
}

// Property sweep across geometries: the empirical false-positive rate stays
// near (and not wildly above) the analytic (1 - e^{-kn/m})^k bound. The
// paper sizes summaries at 8 bits/object per Fan et al.
class BloomFpTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BloomFpTest, FalsePositiveRateNearAnalytic) {
  auto [bits_per_key, num_hashes, num_keys] = GetParam();
  BloomFilter f(static_cast<size_t>(bits_per_key * num_keys), num_hashes);
  for (int k = 0; k < num_keys; ++k) {
    f.Add(Mix64(static_cast<uint64_t>(k)));
  }
  int fp = 0;
  const int probes = 20000;
  for (int i = 0; i < probes; ++i) {
    uint64_t probe = Mix64(0xABCDEF00ULL + static_cast<uint64_t>(i));
    if (f.MaybeContains(probe)) ++fp;
  }
  double rate = static_cast<double>(fp) / probes;
  double analytic = f.EstimatedFpRate();
  EXPECT_LT(rate, analytic * 2 + 0.01)
      << "bits/key=" << bits_per_key << " k=" << num_hashes;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BloomFpTest,
    ::testing::Combine(::testing::Values(4, 8, 16),   // bits per key
                       ::testing::Values(3, 5, 7),    // hash functions
                       ::testing::Values(100, 500))); // keys

// Golden bit layout. Summaries travel in gossip and directory messages and
// every simulated outcome depends on which ids they claim, so a rewrite of
// the hashing must keep these exact words.
const uint64_t kGoldenKeys[] = {1, 2, 3, 42, 499, 1000000007ULL,
                                0xDEADBEEFCAFEF00DULL};

TEST(BloomFilterTest, GoldenWordsAtPaperGeometry) {
  // Table 1: 500 objects x 8 bits, 5 hashes.
  BloomFilter f(4000, 5);
  for (uint64_t k : kGoldenKeys) f.Add(k);
  const std::vector<uint64_t> golden = {
      0x0000000000000000ULL, 0x0000400000000000ULL, 0x0040000008000080ULL,
      0x0000000000000000ULL, 0x0000020000000000ULL, 0x0000000000000000ULL,
      0x0000000000000000ULL, 0x0000000000000000ULL, 0x0000100000000000ULL,
      0x0000000000200400ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
      0x0000000000000000ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
      0x0000000000000000ULL, 0x0000000000000000ULL, 0x0008000000000000ULL,
      0x0000000000000000ULL, 0x0000000080000000ULL, 0x0000000100000000ULL,
      0x0000000000000000ULL, 0x0000000000002000ULL, 0x0000000000000000ULL,
      0x0000000000000000ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
      0x0000040000000000ULL, 0x0000020000000000ULL, 0x0000000000000000ULL,
      0x0000000000000000ULL, 0x0000080000000000ULL, 0x0001000004000000ULL,
      0x0040000020000000ULL, 0x0010000000000000ULL, 0x0000000000000000ULL,
      0x0000000000000000ULL, 0x0000000000000000ULL, 0x0000000200000000ULL,
      0x0000000000000000ULL, 0x8000000000000000ULL, 0x0000000000000000ULL,
      0x0000000000802000ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
      0x0000000000040000ULL, 0x0000000000000000ULL, 0x0000200000000400ULL,
      0x0000000000000000ULL, 0x0000000000000000ULL, 0x0000000002000000ULL,
      0x0000001000000000ULL, 0x0000000008000000ULL, 0x0000000000200000ULL,
      0x0001000000000000ULL, 0x0000000080000000ULL, 0x0000001000000000ULL,
      0x0000000000000000ULL, 0x0000000000004000ULL, 0x0000000000000000ULL,
      0x0000000000000000ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
  };
  EXPECT_EQ(f.words(), golden);
}

TEST(BloomFilterTest, GoldenWordsAtPowerOfTwoGeometry) {
  BloomFilter f(512, 3);
  for (uint64_t k : kGoldenKeys) f.Add(k);
  const std::vector<uint64_t> golden = {
      0x0080000000400000ULL, 0x0000000000000080ULL, 0x0000100000200010ULL,
      0x8000000000014802ULL, 0x0001200000004000ULL, 0x0000000000000000ULL,
      0x0008000100200000ULL, 0x0000200020000400ULL,
  };
  EXPECT_EQ(f.words(), golden);
}

// A probe answers exactly as hashing the key does, for members and
// non-members, across geometries (including k = 1 and the largest k).
TEST(BloomProbeTest, MatchesKeyProbeAcrossGeometries) {
  const std::pair<size_t, int> geometries[] = {
      {64, 1}, {100, 2}, {512, 3}, {4000, 5}, {1001, 7},
      {12345, BloomProbe::kMaxHashes}};
  Rng rng(7);
  for (auto [bits, k] : geometries) {
    for (int filter = 0; filter < 8; ++filter) {
      BloomFilter f(bits, k);
      const size_t n = static_cast<size_t>(rng.UniformInt(0, 2 * bits / k));
      for (size_t i = 0; i < n; ++i) f.Add(rng.Next());
      for (int i = 0; i < 200; ++i) {
        const uint64_t key = rng.Next();
        if (i % 4 == 0) f.Add(key);  // a quarter are members
        const BloomProbe probe(key, bits, k);
        ASSERT_EQ(f.MaybeContains(probe), f.MaybeContains(key))
            << "bits=" << bits << " k=" << k << " key=" << key;
      }
    }
  }
}

// A probe built for another geometry is not read as (word, mask) pairs of
// this filter: it falls back to hashing its key, so the answer is still the
// filter's own.
TEST(BloomProbeTest, OtherGeometryFallsBackToTheKey) {
  BloomFilter paper(4000, 5);
  for (uint64_t k : kGoldenKeys) paper.Add(k);
  for (uint64_t key = 0; key < 2000; ++key) {
    const BloomProbe wider(key, 8000, 5);
    const BloomProbe fewer_hashes(key, 4000, 3);
    ASSERT_EQ(paper.MaybeContains(wider), paper.MaybeContains(key)) << key;
    ASSERT_EQ(paper.MaybeContains(fewer_hashes), paper.MaybeContains(key))
        << key;
  }
  for (uint64_t k : kGoldenKeys) {
    EXPECT_TRUE(paper.MaybeContains(BloomProbe(k, 64, 1)));
  }
}

TEST(BloomFilterDeathTest, InvalidGeometryIsFatal) {
  EXPECT_DEATH(BloomFilter(0, 5), "Bloom geometry");
  EXPECT_DEATH(BloomFilter(64, 0), "Bloom geometry");
  EXPECT_DEATH(BloomProbe(1, 64, BloomProbe::kMaxHashes + 1),
               "Bloom geometry");
}

TEST(ContentSummaryTest, ProbeFromConfigMatchesSummaryGeometry) {
  SimConfig config;
  config.num_objects_per_website = 300;
  config.summary_bits_per_object = 6;
  config.summary_num_hashes = 4;
  ContentSummary s(config);
  EXPECT_EQ(s.SizeBits(), 1800u);
  for (ObjectId id = 0; id < 300; id += 3) s.Add(id);
  for (ObjectId id = 0; id < 3000; ++id) {
    const BloomProbe probe = ContentSummary::Probe(id, config);
    EXPECT_EQ(probe.num_bits(), s.filter().num_bits());
    EXPECT_EQ(probe.num_hashes(), s.filter().num_hashes());
    ASSERT_EQ(s.MaybeContains(probe), s.MaybeContains(id)) << id;
  }
}

TEST(ContentSummaryTest, SizeMatchesPaperRule) {
  // Table 1: summary size = 8 * nb_objects bits.
  ContentSummary s(500, 8, 5);
  EXPECT_EQ(s.SizeBits(), 4000u);
}

TEST(ContentSummaryTest, RebuildReplacesContents) {
  ContentSummary s(100, 8, 5);
  s.Add(1);
  s.Rebuild({2, 3});
  EXPECT_FALSE(s.MaybeContains(1));
  EXPECT_TRUE(s.MaybeContains(2));
  EXPECT_TRUE(s.MaybeContains(3));
}

TEST(ContentSummaryTest, MinimumCapacityIsSafe) {
  ContentSummary s(0, 8, 5);  // degenerate capacity clamps to 1 object
  s.Add(42);
  EXPECT_TRUE(s.MaybeContains(42));
}

}  // namespace
}  // namespace flower
