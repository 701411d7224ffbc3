// Tests for DecayedTopK and DecayedHistogram.

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "core/exact_reference.h"
#include "core/histogram.h"
#include "core/topk.h"
#include "util/random.h"
#include "util/zipf.h"

namespace fwdecay {
namespace {

TEST(DecayedTopKTest, FindsTheTrueTopKeysOnSkewedStreams) {
  Rng rng(1);
  ZipfGenerator zipf(1000, 1.3);
  ForwardDecay<MonomialG> decay(MonomialG(2.0), 0.0);
  DecayedTopK<MonomialG> topk(decay, 5, /*slack=*/200);
  ExactDecayedReference ref;
  for (int i = 0; i < 50000; ++i) {
    const double ts = 1.0 + rng.NextDouble() * 59.0;
    const std::uint64_t key = zipf.Next(rng);
    topk.Add(ts, key);
    ref.Add(ts, key, 0.0);
  }
  const auto w = ForwardWeightFn(MonomialG(2.0), 0.0);
  const auto exact = ref.HeavyHitters(60.0, w, 0.0);
  const auto result = topk.Query(60.0);
  ASSERT_EQ(result.size(), 5u);
  // The Zipf head is unambiguous: top-3 must match exactly and in order.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(result[i].key, exact[i].first) << "rank " << i;
  }
  // Guaranteed entries really are in the exact top-5.
  std::set<std::uint64_t> exact_top5;
  for (int i = 0; i < 5; ++i) exact_top5.insert(exact[i].first);
  for (const auto& e : result) {
    if (e.guaranteed) {
      EXPECT_TRUE(exact_top5.contains(e.key));
    }
  }
  EXPECT_TRUE(result[0].guaranteed);
}

TEST(DecayedTopKTest, DecayShiftsTheRanking) {
  // Key 1 dominates early, key 2 late; undecayed top-1 is key 1, the
  // exponentially decayed top-1 is key 2.
  ForwardDecay<NoDecayG> flat(NoDecayG{}, 0.0);
  ForwardDecay<ExponentialG> exp_decay(ExponentialG(0.5), 0.0);
  DecayedTopK<NoDecayG> undecayed(flat, 1, 50);
  DecayedTopK<ExponentialG> decayed(exp_decay, 1, 50);
  for (int i = 0; i < 700; ++i) {
    undecayed.Add(0.01 * i, 1);
    decayed.Add(0.01 * i, 1);
  }
  for (int i = 0; i < 300; ++i) {
    undecayed.Add(30.0 + 0.01 * i, 2);
    decayed.Add(30.0 + 0.01 * i, 2);
  }
  EXPECT_EQ(undecayed.Query(33.0)[0].key, 1u);
  EXPECT_EQ(decayed.Query(33.0)[0].key, 2u);
}

TEST(DecayedTopKTest, MergeCombinesSites) {
  Rng rng(2);
  ForwardDecay<MonomialG> decay(MonomialG(1.0), 0.0);
  DecayedTopK<MonomialG> a(decay, 3, 100);
  DecayedTopK<MonomialG> b(decay, 3, 100);
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t key = rng.NextBounded(20);
    (i % 2 == 0 ? a : b).Add(1.0 + rng.NextDouble() * 9.0, key);
  }
  a.Merge(b);
  EXPECT_EQ(a.Query(10.0).size(), 3u);
}

TEST(DecayedHistogramTest, MassesMatchExactReference) {
  Rng rng(3);
  ForwardDecay<MonomialG> decay(MonomialG(2.0), 0.0);
  DecayedHistogram<MonomialG> hist(decay, 0.0, 100.0, 10);
  ExactDecayedReference ref;
  for (int i = 0; i < 20000; ++i) {
    const double ts = 1.0 + rng.NextDouble() * 49.0;
    const double v = rng.NextDouble() * 100.0;
    hist.Add(ts, v);
    ref.Add(ts, 0, v);
  }
  const auto w = ForwardWeightFn(MonomialG(2.0), 0.0);
  const double t = 50.0;
  EXPECT_NEAR(hist.TotalMass(t), ref.Count(t, w), 1e-6);
  // Bin [20, 30): exact decayed count of values in that range.
  double exact_bin = 0.0;
  exact_bin = ref.Rank(t, w, 30.0 - 1e-12) - ref.Rank(t, w, 20.0 - 1e-12);
  EXPECT_NEAR(hist.BinMass(t, 2), exact_bin, 1e-6);
}

TEST(DecayedHistogramTest, QuantileInterpolation) {
  ForwardDecay<NoDecayG> flat(NoDecayG{}, 0.0);
  DecayedHistogram<NoDecayG> hist(flat, 0.0, 100.0, 100);
  Rng rng(4);
  for (int i = 0; i < 100000; ++i) {
    hist.Add(1.0, rng.NextDouble() * 100.0);
  }
  EXPECT_NEAR(hist.Quantile(0.5), 50.0, 2.0);
  EXPECT_NEAR(hist.Quantile(0.9), 90.0, 2.0);
}

TEST(DecayedHistogramTest, ClampingTracksUnderOverflow) {
  ForwardDecay<NoDecayG> flat(NoDecayG{}, 0.0);
  DecayedHistogram<NoDecayG> hist(flat, 10.0, 20.0, 5);
  hist.Add(1.0, 5.0);    // underflow
  hist.Add(1.0, 25.0);   // overflow
  hist.Add(1.0, 15.0);   // bin 2
  EXPECT_DOUBLE_EQ(hist.UnderflowMass(1.0), 1.0);
  EXPECT_DOUBLE_EQ(hist.OverflowMass(1.0), 1.0);
  EXPECT_DOUBLE_EQ(hist.BinMass(1.0, 2), 1.0);
  EXPECT_DOUBLE_EQ(hist.TotalMass(1.0), 3.0);
}

TEST(DecayedHistogramTest, MergeAndRescale) {
  ForwardDecay<ExponentialG> decay(ExponentialG(0.2), 0.0);
  DecayedHistogram<ExponentialG> a(decay, 0.0, 10.0, 4);
  DecayedHistogram<ExponentialG> b(decay, 0.0, 10.0, 4);
  a.Add(1.0, 2.0);
  b.Add(2.0, 7.0);
  a.Merge(b);
  const double before_bin0 = a.BinMass(5.0, 0);
  const double before_bin2 = a.BinMass(5.0, 2);
  a.RescaleLandmark(3.0);
  EXPECT_NEAR(a.BinMass(5.0, 0), before_bin0, 1e-12);
  EXPECT_NEAR(a.BinMass(5.0, 2), before_bin2, 1e-12);
}

}  // namespace
}  // namespace fwdecay
