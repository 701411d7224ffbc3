// Tests for the SpaceSaving sketches: error guarantees, heavy-hitter
// recall, agreement between the weighted and unary variants, merge
// semantics, and weight scaling (used for landmark rescaling).

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "sketch/space_saving.h"
#include "util/bytes.h"
#include "util/crc32c.h"
#include "util/random.h"
#include "util/zipf.h"

namespace fwdecay {
namespace {

TEST(WeightedSpaceSavingTest, ExactWhenUnderCapacity) {
  WeightedSpaceSaving ss(16);
  ss.Update(1, 5.0);
  ss.Update(2, 3.0);
  ss.Update(1, 2.0);
  EXPECT_DOUBLE_EQ(ss.Estimate(1), 7.0);
  EXPECT_DOUBLE_EQ(ss.Estimate(2), 3.0);
  EXPECT_DOUBLE_EQ(ss.Estimate(99), 0.0);
  EXPECT_DOUBLE_EQ(ss.TotalWeight(), 10.0);
}

// Serialized bytes of a seeded stream — growth, tied-weight evictions,
// Merge and ScaleWeights — pinned by CRC32C. The key index is internal:
// counters, the heap permutation and every serialized byte must stay
// those of the node-based hash map this open-addressing index replaced.
TEST(WeightedSpaceSavingTest, SerializedBytesOfSeededStreamArePinned) {
  ByteWriter out;
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{3},
                                     std::size_t{64}, std::size_t{100}}) {
    Rng rng(0x5eed0000 + capacity);
    ZipfGenerator zipf(5000, 1.1);
    WeightedSpaceSaving ss(capacity);
    WeightedSpaceSaving other(capacity);
    for (int i = 0; i < 50000; ++i) {
      // Keys spread over all 64 bits; every third weight ties at 1.0.
      const std::uint64_t key = zipf.Next(rng) * 0x9e3779b97f4a7c15ULL;
      const double w = i % 3 == 0 ? 1.0 : 1.0 + rng.NextDouble() * 4.0;
      (i % 4 == 0 ? other : ss).Update(key, w);
    }
    ss.Merge(other);
    ss.ScaleWeights(0.5);
    for (int i = 0; i < 1000; ++i) ss.Update(rng.Next64() % 300, 2.0);
    ss.CheckInvariants();
    ss.SerializeTo(&out);
  }
  EXPECT_EQ(out.bytes().size(), 4792u);
  EXPECT_EQ(Crc32c(out.bytes().data(), out.bytes().size()), 0xea9c6825u);
}

TEST(WeightedSpaceSavingTest, EstimateIsUpperBoundWithinError) {
  // Guarantee: true <= estimate <= true + W/k.
  Rng rng(1);
  ZipfGenerator zipf(5000, 1.1);
  const std::size_t k = 100;
  WeightedSpaceSaving ss(k);
  std::map<std::uint64_t, double> truth;
  double total = 0.0;
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t key = zipf.Next(rng);
    const double w = 1.0 + rng.NextDouble() * 4.0;
    ss.Update(key, w);
    truth[key] += w;
    total += w;
  }
  EXPECT_NEAR(ss.TotalWeight(), total, total * 1e-12);
  const double max_err = total / static_cast<double>(k);
  for (const auto& [key, true_w] : truth) {
    const double est = ss.Estimate(key);
    if (est == 0.0) continue;  // untracked key
    EXPECT_GE(est, true_w - 1e-9);
    EXPECT_LE(est, true_w + max_err + 1e-9);
  }
}

TEST(WeightedSpaceSavingTest, QueryRecallAndPrecision) {
  // Theorem 2 contract: every key with weight >= phi*W is reported and
  // no key below (phi - eps)*W is.
  Rng rng(2);
  ZipfGenerator zipf(2000, 1.3);
  const double eps = 0.005;
  const double phi = 0.02;
  WeightedSpaceSaving ss(static_cast<std::size_t>(1.0 / eps));
  std::map<std::uint64_t, double> truth;
  double total = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t key = zipf.Next(rng);
    ss.Update(key, 1.0);
    truth[key] += 1.0;
    total += 1.0;
  }
  std::set<std::uint64_t> reported;
  for (const auto& h : ss.Query(phi)) reported.insert(h.key);
  for (const auto& [key, w] : truth) {
    if (w >= phi * total) {
      EXPECT_TRUE(reported.contains(key)) << "missed heavy key " << key;
    }
  }
  for (std::uint64_t key : reported) {
    EXPECT_GE(truth[key], (phi - eps) * total - 1e-9)
        << "false positive below (phi-eps)W: " << key;
  }
}

TEST(WeightedSpaceSavingTest, QuerySortedDescending) {
  WeightedSpaceSaving ss(8);
  ss.Update(1, 10.0);
  ss.Update(2, 30.0);
  ss.Update(3, 20.0);
  const auto hh = ss.Query(0.0);
  ASSERT_EQ(hh.size(), 3u);
  EXPECT_EQ(hh[0].key, 2u);
  EXPECT_EQ(hh[1].key, 3u);
  EXPECT_EQ(hh[2].key, 1u);
}

TEST(WeightedSpaceSavingTest, ErrorFieldBoundsOverestimate) {
  WeightedSpaceSaving ss(2);
  ss.Update(1, 5.0);
  ss.Update(2, 3.0);
  ss.Update(3, 1.0);  // evicts key 2 (min count 3.0): est 4.0, err 3.0
  const double est = ss.Estimate(3);
  EXPECT_DOUBLE_EQ(est, 4.0);
  for (const auto& h : ss.Query(0.0)) {
    if (h.key == 3) {
      EXPECT_DOUBLE_EQ(h.error, 3.0);
      // estimate - error is a valid lower bound on the true weight (1.0).
      EXPECT_LE(h.estimate - h.error, 1.0 + 1e-12);
    }
  }
}

TEST(WeightedSpaceSavingTest, MergePreservesUpperBoundProperty) {
  Rng rng(3);
  WeightedSpaceSaving a(50);
  WeightedSpaceSaving b(50);
  std::map<std::uint64_t, double> truth;
  ZipfGenerator zipf(500, 1.2);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t key = zipf.Next(rng);
    (i % 2 == 0 ? a : b).Update(key, 1.0);
    truth[key] += 1.0;
  }
  const double total_before = a.TotalWeight() + b.TotalWeight();
  a.Merge(b);
  EXPECT_NEAR(a.TotalWeight(), total_before, 1e-9);
  for (const auto& [key, w] : truth) {
    const double est = a.Estimate(key);
    if (est > 0.0) {
      EXPECT_GE(est, w - 1e-9);
    }
  }
}

TEST(WeightedSpaceSavingTest, ScaleWeightsScalesEverything) {
  WeightedSpaceSaving ss(4);
  ss.Update(7, 10.0);
  ss.Update(8, 4.0);
  ss.ScaleWeights(0.5);
  EXPECT_DOUBLE_EQ(ss.Estimate(7), 5.0);
  EXPECT_DOUBLE_EQ(ss.Estimate(8), 2.0);
  EXPECT_DOUBLE_EQ(ss.TotalWeight(), 7.0);
}

TEST(WeightedSpaceSavingTest, MemoryBytesGrowsWithCounters) {
  WeightedSpaceSaving ss(100);
  const std::size_t empty = ss.MemoryBytes();
  for (std::uint64_t k = 0; k < 100; ++k) ss.Update(k, 1.0);
  EXPECT_GT(ss.MemoryBytes(), empty);
  // Bounded by capacity regardless of stream length.
  for (std::uint64_t k = 0; k < 10000; ++k) ss.Update(k * 31 + 7, 1.0);
  EXPECT_LE(ss.size(), 100u);
}

TEST(UnarySpaceSavingTest, ExactWhenUnderCapacity) {
  UnarySpaceSaving ss(8);
  for (int i = 0; i < 5; ++i) ss.Update(1);
  for (int i = 0; i < 3; ++i) ss.Update(2);
  EXPECT_EQ(ss.Estimate(1), 5u);
  EXPECT_EQ(ss.Estimate(2), 3u);
  EXPECT_EQ(ss.Estimate(3), 0u);
  EXPECT_EQ(ss.TotalCount(), 8u);
}

TEST(UnarySpaceSavingTest, MatchesWeightedVariantOnUnaryStream) {
  // The two implementations realize the same algorithm; on a unary
  // stream their estimates must agree exactly (same deterministic
  // replacement victim is not guaranteed, but counts of retained heavy
  // keys are).
  Rng rng(4);
  ZipfGenerator zipf(1000, 1.4);
  UnarySpaceSaving unary(64);
  WeightedSpaceSaving weighted(64);
  std::map<std::uint64_t, std::uint64_t> truth;
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t key = zipf.Next(rng);
    unary.Update(key);
    weighted.Update(key, 1.0);
    ++truth[key];
  }
  EXPECT_EQ(unary.TotalCount(), 50000u);
  // Compare on the clear heavy hitters (top keys far above the error).
  for (std::uint64_t key = 1; key <= 5; ++key) {
    const double err = 50000.0 / 64.0;
    EXPECT_NEAR(static_cast<double>(unary.Estimate(key)),
                static_cast<double>(truth[key]), err);
    EXPECT_NEAR(weighted.Estimate(key), static_cast<double>(truth[key]), err);
  }
}

TEST(UnarySpaceSavingTest, UpperBoundProperty) {
  Rng rng(5);
  ZipfGenerator zipf(3000, 1.1);
  const std::size_t k = 100;
  UnarySpaceSaving ss(k);
  std::map<std::uint64_t, std::uint64_t> truth;
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t key = zipf.Next(rng);
    ss.Update(key);
    ++truth[key];
  }
  for (const auto& [key, c] : truth) {
    const std::uint64_t est = ss.Estimate(key);
    if (est == 0) continue;
    EXPECT_GE(est, c);
    EXPECT_LE(est, c + 100000 / k);
  }
}

TEST(UnarySpaceSavingTest, HeavyHitterRecall) {
  Rng rng(6);
  ZipfGenerator zipf(500, 1.5);
  UnarySpaceSaving ss(50);
  std::map<std::uint64_t, std::uint64_t> truth;
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t key = zipf.Next(rng);
    ss.Update(key);
    ++truth[key];
  }
  const double phi = 0.05;
  std::set<std::uint64_t> reported;
  for (const auto& h : ss.Query(phi)) reported.insert(h.key);
  for (const auto& [key, c] : truth) {
    if (static_cast<double>(c) >= phi * n) {
      EXPECT_TRUE(reported.contains(key));
    }
  }
}

TEST(UnarySpaceSavingTest, CapacityOneStillTracksMajority) {
  UnarySpaceSaving ss(1);
  for (int i = 0; i < 100; ++i) ss.Update(42);
  ss.Update(7);
  ss.Update(42);
  EXPECT_GE(ss.Estimate(42), 100u);
}

TEST(UnarySpaceSavingTest, BucketListStaysConsistentUnderChurn) {
  // Heavy replacement traffic exercises bucket create/free paths.
  Rng rng(7);
  UnarySpaceSaving ss(16);
  for (int i = 0; i < 100000; ++i) {
    ss.Update(rng.NextBounded(1000));
  }
  EXPECT_EQ(ss.TotalCount(), 100000u);
  EXPECT_LE(ss.size(), 16u);
  std::uint64_t sum = 0;
  for (const auto& h : ss.Query(0.0)) {
    sum += static_cast<std::uint64_t>(h.estimate);
  }
  // Sum of SpaceSaving counters equals the stream length exactly.
  EXPECT_EQ(sum, 100000u);
}

TEST(SpaceSavingTest, WeightedSumOfCountersEqualsTotalWeight) {
  Rng rng(8);
  WeightedSpaceSaving ss(32);
  double total = 0.0;
  for (int i = 0; i < 5000; ++i) {
    const double w = 0.5 + rng.NextDouble();
    ss.Update(rng.NextBounded(400), w);
    total += w;
  }
  double counter_sum = 0.0;
  for (const auto& h : ss.Query(0.0)) counter_sum += h.estimate;
  EXPECT_NEAR(counter_sum, total, total * 1e-9);
}

}  // namespace
}  // namespace fwdecay
