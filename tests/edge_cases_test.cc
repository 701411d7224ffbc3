// Edge-case and contract tests across modules: numeric boundaries,
// degenerate inputs, check-macro contracts, and subtle behaviours that
// the main suites don't isolate (EH window straddling, q-digest compress
// idempotence, SpaceSaving ties, bucketed landmarks, Value semantics).

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/aggregates.h"
#include "core/forward_decay.h"
#include "core/landmark.h"
#include "dsms/value.h"
#include "sketch/exp_histogram.h"
#include "sketch/qdigest.h"
#include "sketch/space_saving.h"
#include "sketch/tdigest.h"
#include "util/check.h"
#include "util/random.h"

namespace fwdecay {
namespace {

// --- check macros --------------------------------------------------------------

TEST(CheckTest, PassingCheckIsSilent) {
  FWDECAY_CHECK(1 + 1 == 2);
  FWDECAY_CHECK_MSG(true, "never printed");
}

TEST(CheckTest, FailingCheckAborts) {
  EXPECT_DEATH(FWDECAY_CHECK(false), "FWDECAY_CHECK failed");
  EXPECT_DEATH(FWDECAY_CHECK_MSG(false, "context here"), "context here");
}

// --- decay functions at boundaries ----------------------------------------------

TEST(DecayEdgeTest, MonomialAtZeroAge) {
  MonomialG g(2.0);
  EXPECT_DOUBLE_EQ(g.G(0.0), 0.0);
  EXPECT_TRUE(std::isinf(g.LogG(0.0)));
  // An item arriving exactly at the landmark has weight 0 forever.
  ForwardDecay<MonomialG> decay(g, 100.0);
  EXPECT_DOUBLE_EQ(decay.Weight(100.0, 110.0), 0.0);
}

TEST(DecayEdgeTest, ConstructorContractViolations) {
  EXPECT_DEATH(MonomialG(-1.0), "positive");
  EXPECT_DEATH(ExponentialG(0.0), "positive");
  EXPECT_DEATH(PolynomialG({1.0, -2.0}), "non-negative");
  EXPECT_DEATH(PolynomialG({}), "coefficients");
}

TEST(DecayEdgeTest, HugeTimestampsStayFiniteForPolynomials) {
  ForwardDecay<MonomialG> decay(MonomialG(3.0), 0.0);
  const double w = decay.StaticWeight(1e15);
  EXPECT_TRUE(std::isfinite(w));
  EXPECT_DOUBLE_EQ(decay.Weight(1e15, 1e15), 1.0);
}

// --- bucketed landmark policy -----------------------------------------------------

TEST(BucketedForwardDecayTest, MatchesTheGsqlIdiom) {
  // (time % 60)^2 / 3600 at query time = bucket end.
  BucketedForwardDecay<MonomialG> bucketed(MonomialG(2.0), 60.0);
  for (double ti : {61.0, 90.0, 119.0}) {
    const double expected =
        std::pow(std::fmod(ti, 60.0), 2.0) / 3600.0;
    EXPECT_NEAR(bucketed.StaticWeight(ti) / 3600.0, expected, 1e-12);
    EXPECT_NEAR(bucketed.Weight(ti, 119.999), expected * 3600.0 /
                                                   std::pow(59.999, 2.0),
                1e-9);
  }
}

TEST(BucketedForwardDecayTest, CrossBucketWeightIsAContractViolation) {
  BucketedForwardDecay<MonomialG> bucketed(MonomialG(2.0), 60.0);
  EXPECT_DEATH(bucketed.Weight(59.0, 61.0), "different buckets");
}

TEST(BucketedForwardDecayTest, DecayForBucketReproducesPerBucketMath) {
  BucketedForwardDecay<ExponentialG> bucketed(ExponentialG(0.1), 60.0);
  const auto decay = bucketed.DecayForBucket(2);  // [120, 180)
  EXPECT_DOUBLE_EQ(decay.landmark(), 120.0);
  EXPECT_NEAR(decay.StaticWeight(150.0), bucketed.StaticWeight(150.0),
              1e-12);
}

// --- exponential histogram straddling ---------------------------------------------

TEST(EhEdgeTest, WindowLargerThanStreamReturnsNearTotal) {
  EhCount eh(0.1);
  for (int i = 1; i <= 1000; ++i) eh.Insert(static_cast<double>(i));
  const double est = eh.CountInWindow(1000.0, 1e9);
  EXPECT_NEAR(est, 1000.0, 0.1 * 1000.0);
}

TEST(EhEdgeTest, TinyWindowCountsOnlyNewest) {
  EhCount eh(0.1);
  for (int i = 1; i <= 1000; ++i) eh.Insert(static_cast<double>(i));
  // Window covering only the final arrival.
  const double est = eh.CountInWindow(1000.0, 0.5);
  EXPECT_GE(est, 0.0);
  EXPECT_LE(est, 8.0);  // at most a few buckets' worth of slack
}

TEST(EhEdgeTest, DuplicateTimestampsAllowed) {
  EhCount eh(0.1);
  for (int i = 0; i < 100; ++i) eh.Insert(5.0);
  EXPECT_EQ(eh.TotalCount(), 100u);
  EXPECT_NEAR(eh.CountInWindow(5.0, 1.0), 100.0, 11.0);
}

// --- q-digest compress idempotence -------------------------------------------------

TEST(QDigestEdgeTest, RepeatedCompressConvergesAndPreservesWeight) {
  // A single bottom-up pass is not strictly idempotent (merging a parent
  // upward can newly enable its children to merge), but repeated passes
  // must monotonically shrink, converge, keep the total weight exact,
  // and keep quantiles within the error bound.
  Rng rng(1);
  QDigest qd(10, 0.05);
  for (int i = 0; i < 10000; ++i) qd.Update(rng.NextBounded(1 << 10), 1.0);
  qd.Compress();
  std::size_t prev = qd.NodeCount();
  const std::uint64_t median_once = qd.Quantile(0.5);
  for (int pass = 0; pass < 5; ++pass) {
    qd.Compress();
    EXPECT_LE(qd.NodeCount(), prev);
    prev = qd.NodeCount();
  }
  // Median stays within the rank error band (values uniform in [0,1024):
  // eps=0.05 rank slack ~ value slack of ~0.05 * 1024 * 2).
  EXPECT_NEAR(static_cast<double>(qd.Quantile(0.5)),
              static_cast<double>(median_once), 110.0);
  EXPECT_DOUBLE_EQ(qd.TotalWeight(), 10000.0);
}

TEST(QDigestEdgeTest, MaxUniverseValueAccepted) {
  QDigest qd(10, 0.1);
  qd.Update((1 << 10) - 1, 1.0);
  EXPECT_EQ(qd.Quantile(1.0), static_cast<std::uint64_t>((1 << 10) - 1));
  EXPECT_DEATH(qd.Update(1 << 10, 1.0), "universe");
}

TEST(QDigestEdgeTest, WeightSpanningManyOrdersOfMagnitude) {
  QDigest qd(10, 0.01);
  qd.Update(100, 1e-6);
  qd.Update(200, 1.0);
  qd.Update(300, 1e6);
  // Essentially all mass sits at 300.
  EXPECT_EQ(qd.Quantile(0.5), 300u);
  EXPECT_NEAR(qd.Rank(250) / qd.TotalWeight(), 1e-6, 1e-5);
}

// --- SpaceSaving ties and degenerate capacities -------------------------------------

TEST(SpaceSavingEdgeTest, AllKeysIdentical) {
  WeightedSpaceSaving ss(4);
  for (int i = 0; i < 1000; ++i) ss.Update(7, 2.0);
  EXPECT_DOUBLE_EQ(ss.Estimate(7), 2000.0);
  EXPECT_EQ(ss.size(), 1u);
  const auto hh = ss.Query(0.99);
  ASSERT_EQ(hh.size(), 1u);
  EXPECT_DOUBLE_EQ(hh[0].error, 0.0);
}

TEST(SpaceSavingEdgeTest, EqualCountTiesEvictConsistently) {
  WeightedSpaceSaving ss(2);
  ss.Update(1, 1.0);
  ss.Update(2, 1.0);
  ss.Update(3, 1.0);  // evicts one of the ties
  EXPECT_EQ(ss.size(), 2u);
  EXPECT_DOUBLE_EQ(ss.TotalWeight(), 3.0);
  EXPECT_DOUBLE_EQ(ss.Estimate(3), 2.0);  // inherited 1.0 + own 1.0
}

TEST(SpaceSavingEdgeTest, TinyWeightsDoNotUnderflowOrdering) {
  WeightedSpaceSaving ss(4);
  ss.Update(1, 1e-300);
  ss.Update(2, 1e-300);
  ss.Update(1, 1e-300);
  EXPECT_GT(ss.Estimate(1), ss.Estimate(2));
}

// --- t-digest degenerate shapes ------------------------------------------------------

TEST(TDigestEdgeTest, AllIdenticalValues) {
  TDigest td(50.0);
  for (int i = 0; i < 10000; ++i) td.Add(7.0, 1.0);
  EXPECT_DOUBLE_EQ(td.Quantile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(td.Quantile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(td.Quantile(1.0), 7.0);
  // Tail clusters have small capacity by design, so identical values
  // still occupy multiple centroids — but far fewer than 2*compression.
  EXPECT_LE(td.CentroidCount(), 100u);
}

TEST(TDigestEdgeTest, RejectsNonFiniteValues) {
  TDigest td(50.0);
  EXPECT_DEATH(td.Add(std::numeric_limits<double>::infinity(), 1.0),
               "finite");
  EXPECT_DEATH(td.Add(std::numeric_limits<double>::quiet_NaN(), 1.0),
               "finite");
}

TEST(TDigestEdgeTest, TwoPointDistributionInterpolates) {
  TDigest td(50.0);
  td.Add(0.0, 1.0);
  td.Add(10.0, 1.0);
  const double q = td.Quantile(0.5);
  EXPECT_GE(q, 0.0);
  EXPECT_LE(q, 10.0);
}

// --- Value semantics -------------------------------------------------------------------

TEST(ValueEdgeTest, DivisionByZeroContracts) {
  using dsms::Value;
  const Value a(std::int64_t{10});
  const Value zero(std::int64_t{0});
  // Integer division is total (util/int_div.h): x / 0 == 0 and
  // x % 0 == x, so (x / y) * y + x % y == x still holds.
  EXPECT_EQ((a / zero).AsInt(), 0);
  EXPECT_TRUE((a / zero).is_int());
  EXPECT_EQ((a % zero).AsInt(), 10);
  const Value min(std::numeric_limits<std::int64_t>::min());
  const Value minus_one(std::int64_t{-1});
  EXPECT_EQ((min / minus_one).AsInt(), min.AsInt());
  EXPECT_EQ((min % minus_one).AsInt(), 0);
  // Floating division by zero is IEEE inf.
  const Value fz(0.0);
  EXPECT_TRUE(std::isinf((a / fz).AsDouble()));
}

TEST(ValueEdgeTest, StringArithmeticRejected) {
  using dsms::Value;
  const Value s(std::string("x"));
  const Value i(std::int64_t{1});
  EXPECT_DEATH(s + i, "arithmetic on string");
  EXPECT_DEATH(Compare(s, i), "comparing string");  // found via ADL
}

TEST(ValueEdgeTest, NegativeIntegerDivisionTruncatesTowardZero) {
  using dsms::Value;
  const Value a(std::int64_t{-7});
  const Value b(std::int64_t{2});
  EXPECT_EQ((a / b).AsInt(), -3);  // C++ semantics, documented behaviour
  EXPECT_EQ((a % b).AsInt(), -1);
}

// --- aggregates with zero-weight inputs ---------------------------------------------

TEST(AggregateEdgeTest, LandmarkItemsContributeNothing) {
  ForwardDecay<MonomialG> decay(MonomialG(2.0), 100.0);
  DecayedMoments<MonomialG> m(decay);
  m.Add(100.0, 1e9);  // weight 0
  m.Add(105.0, 4.0);
  EXPECT_NEAR(m.Sum(110.0), 0.25 * 4.0, 1e-12);
  EXPECT_NEAR(*m.Average(), 4.0, 1e-12);
}

TEST(AggregateEdgeTest, QueryBeforeAnyArrivalIsZero) {
  ForwardDecay<ExponentialG> decay(ExponentialG(0.1), 0.0);
  DecayedCount<ExponentialG> count(decay);
  EXPECT_DOUBLE_EQ(count.Value(100.0), 0.0);
}

}  // namespace
}  // namespace fwdecay
