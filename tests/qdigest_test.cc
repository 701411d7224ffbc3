// Tests for the weighted q-digest: rank-error guarantees, size bounds,
// merge, and the decayed-quantiles wrapper (Theorem 3).

#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/exact_reference.h"
#include "core/quantiles.h"
#include "sketch/qdigest.h"
#include "util/bytes.h"
#include "util/random.h"
#include "util/zipf.h"

namespace fwdecay {
namespace {

TEST(QDigestTest, SingleValueQuantiles) {
  QDigest qd(10, 0.05);
  qd.Update(123, 1.0);
  EXPECT_EQ(qd.Quantile(0.0), 123u);
  EXPECT_EQ(qd.Quantile(0.5), 123u);
  EXPECT_EQ(qd.Quantile(1.0), 123u);
}

TEST(QDigestTest, RankErrorWithinEpsUniform) {
  Rng rng(1);
  const double eps = 0.02;
  QDigest qd(16, eps);
  std::vector<std::uint64_t> values;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t v = rng.NextBounded(1 << 16);
    values.push_back(v);
    qd.Update(v, 1.0);
  }
  std::sort(values.begin(), values.end());
  for (double phi : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    const std::uint64_t est = qd.Quantile(phi);
    // True rank of the answer must be within eps*n of phi*n.
    const auto rank = static_cast<double>(
        std::upper_bound(values.begin(), values.end(), est) - values.begin());
    EXPECT_NEAR(rank, phi * n, eps * n + 1)
        << "phi=" << phi << " est=" << est;
  }
}

TEST(QDigestTest, RankErrorWithinEpsSkewed) {
  Rng rng(2);
  ZipfGenerator zipf(1 << 14, 1.2);
  const double eps = 0.02;
  QDigest qd(14, eps);
  std::vector<std::uint64_t> values;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t v = zipf.Next(rng) - 1;
    values.push_back(v);
    qd.Update(v, 1.0);
  }
  std::sort(values.begin(), values.end());
  for (double phi : {0.1, 0.5, 0.9, 0.99}) {
    const std::uint64_t est = qd.Quantile(phi);
    // With point masses the correct criterion is two-sided: the rank
    // interval [#(< est), #(<= est)] must intersect phi*n ± eps*n.
    const auto rank_incl = static_cast<double>(
        std::upper_bound(values.begin(), values.end(), est) - values.begin());
    const auto rank_below = static_cast<double>(
        std::lower_bound(values.begin(), values.end(), est) - values.begin());
    EXPECT_GE(rank_incl, phi * n - eps * n - 1) << "phi=" << phi;
    EXPECT_LE(rank_below, phi * n + eps * n + 1) << "phi=" << phi;
  }
}

TEST(QDigestTest, WeightedRankError) {
  // Weighted updates: rank error is relative to total weight.
  Rng rng(3);
  const double eps = 0.02;
  QDigest qd(12, eps);
  std::vector<std::pair<std::uint64_t, double>> items;
  double total = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v = rng.NextBounded(1 << 12);
    const double w = 0.1 + rng.NextDouble() * 9.9;
    items.emplace_back(v, w);
    qd.Update(v, w);
    total += w;
  }
  std::sort(items.begin(), items.end());
  auto true_rank = [&](std::uint64_t v) {
    double r = 0.0;
    for (const auto& [value, w] : items) {
      if (value <= v) r += w;
    }
    return r;
  };
  for (double phi : {0.2, 0.5, 0.8}) {
    const std::uint64_t est = qd.Quantile(phi);
    EXPECT_NEAR(true_rank(est), phi * total, eps * total + 10.0);
  }
}

TEST(QDigestTest, SizeStaysCompressed) {
  Rng rng(4);
  const double eps = 0.05;
  QDigest qd(20, eps);
  for (int i = 0; i < 200000; ++i) {
    qd.Update(rng.NextBounded(1 << 20), 1.0);
  }
  qd.Compress();
  // Space bound: O((1/eps) * log U) nodes = k up to constants.
  const double k = 20.0 / eps;
  EXPECT_LE(qd.NodeCount(), static_cast<std::size_t>(3.0 * k));
}

TEST(QDigestTest, RankIsMonotone) {
  Rng rng(5);
  QDigest qd(10, 0.05);
  for (int i = 0; i < 5000; ++i) qd.Update(rng.NextBounded(1 << 10), 1.0);
  double prev = -1.0;
  for (std::uint64_t v = 0; v < (1 << 10); v += 37) {
    const double r = qd.Rank(v);
    EXPECT_GE(r, prev);
    prev = r;
  }
}

TEST(QDigestTest, MergeMatchesUnionStream) {
  Rng rng(6);
  const double eps = 0.02;
  QDigest a(12, eps);
  QDigest b(12, eps);
  QDigest both(12, eps);
  std::vector<std::uint64_t> values;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t v = rng.NextBounded(1 << 12);
    values.push_back(v);
    (i % 2 == 0 ? a : b).Update(v, 1.0);
    both.Update(v, 1.0);
  }
  a.Merge(b);
  EXPECT_NEAR(a.TotalWeight(), both.TotalWeight(), 1e-9);
  std::sort(values.begin(), values.end());
  for (double phi : {0.25, 0.5, 0.75}) {
    const std::uint64_t est = a.Quantile(phi);
    const auto rank = static_cast<double>(
        std::upper_bound(values.begin(), values.end(), est) - values.begin());
    // Merged digests have (at most) doubled error.
    EXPECT_NEAR(rank, phi * n, 2.0 * eps * n + 1);
  }
}

TEST(QDigestTest, ScaleWeightsKeepsQuantiles) {
  Rng rng(7);
  QDigest qd(10, 0.02);
  for (int i = 0; i < 10000; ++i) qd.Update(rng.NextBounded(1 << 10), 1.0);
  const std::uint64_t median_before = qd.Quantile(0.5);
  qd.ScaleWeights(1e-3);
  EXPECT_EQ(qd.Quantile(0.5), median_before);
}

// --- DecayedQuantiles (Theorem 3) -------------------------------------------

std::vector<std::uint8_t> Bytes(const QDigest& qd) {
  ByteWriter w;
  qd.SerializeTo(&w);
  return w.bytes();
}

// Serialized bytes are canonical (ids ascending): a digest restored from
// a snapshot serializes to exactly the bytes it was restored from, and
// stays byte-identical to the original under further identical updates,
// although the two hash maps were filled in different orders. This is
// what makes an FDQUANTILE snapshot taken after recovery equal to the
// never-crashed run's.
TEST(QDigestTest, RestoredDigestSerializesToIdenticalBytes) {
  QDigest original(11, 0.01);
  Rng rng(0x9d1);
  const auto update = [&](QDigest* a, QDigest* b) {
    const std::uint64_t v = rng.NextBounded(1 << 11);
    const double w = 1.0 + rng.NextDouble() * 7.0;
    a->Update(v, w);
    if (b != nullptr) b->Update(v, w);
  };
  for (int i = 0; i < 5000; ++i) update(&original, nullptr);
  const std::vector<std::uint8_t> bytes = Bytes(original);
  ByteReader reader(bytes.data(), bytes.size());
  std::optional<QDigest> restored = QDigest::Deserialize(&reader);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(Bytes(*restored), bytes);
  for (int i = 0; i < 3000; ++i) update(&original, &*restored);
  EXPECT_EQ(Bytes(*restored), Bytes(original));
  EXPECT_EQ(restored->Quantile(0.5), original.Quantile(0.5));
}

TEST(DecayedQuantilesTest, MatchesExactReferenceUnderPolyDecay) {
  Rng rng(8);
  const double eps = 0.02;
  ForwardDecay<MonomialG> decay(MonomialG(2.0), 0.0);
  DecayedQuantiles<MonomialG> dq(decay, 12, eps);
  ExactDecayedReference ref;
  for (int i = 0; i < 30000; ++i) {
    const double ts = rng.NextDouble() * 100.0;
    const std::uint64_t v = rng.NextBounded(1 << 12);
    dq.Add(ts, v);
    ref.Add(ts, v, static_cast<double>(v));
  }
  const auto w = ForwardWeightFn(MonomialG(2.0), 0.0);
  const double t = 100.0;
  const double total = ref.Count(t, w);
  for (double phi : {0.25, 0.5, 0.75, 0.9}) {
    const std::uint64_t est = dq.Quantile(phi);
    const double rank = ref.Rank(t, w, static_cast<double>(est));
    EXPECT_NEAR(rank, phi * total, eps * total + 1.0) << "phi=" << phi;
  }
}

TEST(DecayedQuantilesTest, QuantileValueIsTimeInvariant) {
  Rng rng(9);
  ForwardDecay<MonomialG> decay(MonomialG(1.0), 0.0);
  DecayedQuantiles<MonomialG> dq(decay, 10, 0.05);
  for (int i = 0; i < 5000; ++i) {
    dq.Add(rng.NextDouble() * 50.0, rng.NextBounded(1 << 10));
  }
  // The phi-quantile does not depend on the query time; only ranks do.
  const std::uint64_t q = dq.Quantile(0.5);
  EXPECT_GT(dq.DecayedTotal(50.0), dq.DecayedTotal(100.0));
  EXPECT_EQ(dq.Quantile(0.5), q);
}

TEST(DecayedQuantilesTest, RecentValuesDominateUnderFastDecay) {
  // Early items have value ~100, late items ~3000: with strong decay the
  // decayed median must come from the late regime.
  ForwardDecay<MonomialG> decay(MonomialG(4.0), 0.0);
  DecayedQuantiles<MonomialG> dq(decay, 12, 0.01);
  Rng rng(10);
  for (int i = 0; i < 2000; ++i) {
    dq.Add(1.0 + rng.NextDouble() * 49.0, 100 + rng.NextBounded(100));
  }
  for (int i = 0; i < 2000; ++i) {
    dq.Add(90.0 + rng.NextDouble() * 10.0, 3000 + rng.NextBounded(100));
  }
  EXPECT_GT(dq.Quantile(0.5), 2000u);
}

TEST(DecayedQuantilesTest, MergeCombinesStreams) {
  Rng rng(11);
  ForwardDecay<MonomialG> decay(MonomialG(2.0), 0.0);
  DecayedQuantiles<MonomialG> a(decay, 10, 0.02);
  DecayedQuantiles<MonomialG> b(decay, 10, 0.02);
  for (int i = 0; i < 10000; ++i) {
    const double ts = rng.NextDouble() * 60.0;
    const std::uint64_t v = rng.NextBounded(1 << 10);
    (i % 2 == 0 ? a : b).Add(ts, v);
  }
  const double before = a.DecayedTotal(60.0) + b.DecayedTotal(60.0);
  a.Merge(b);
  EXPECT_NEAR(a.DecayedTotal(60.0), before, before * 1e-9);
}

}  // namespace
}  // namespace fwdecay
