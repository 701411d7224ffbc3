// Observability layer (DESIGN.md §9): the registry's exposition format
// is pinned by an exact golden test, the forward-decayed rate is
// validated against the brute-force ExactDecayedReference, and the
// engine / checkpoint / fault-injection integrations are checked as
// counter deltas on the process-wide registry.
//
// The unit tests target metrics::impl directly (always compiled, so
// this file passes under -DFWDECAY_METRICS=OFF too); integration tests
// go through the aliases and skip themselves when metrics are compiled
// out. metrics_noop_helper.cc is force-compiled with the metrics
// disabled and linked in, proving mixed-setting TUs coexist.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/decay.h"
#include "core/exact_reference.h"
#include "dsms/engine.h"
#include "dsms/netgen.h"
#include "util/fault_fs.h"
#include "util/metrics.h"

namespace fwdecay::metrics_noop_check {
std::uint64_t ExerciseDisabledMetrics();
}

namespace {

using namespace fwdecay;
using metrics::impl::Counter;
using metrics::impl::DecayedRate;
using metrics::impl::Gauge;
using metrics::impl::LatencyReservoir;
using metrics::impl::MetricsRegistry;
using metrics::impl::ScopedTimerSample;
using metrics::impl::StatsReporter;

// Value of the first sample line for `name` (exact-name match on the
// unlabelled instance), or NaN when the family is absent.
double MetricValue(const std::string& exposition, const std::string& name) {
  std::size_t pos = 0;
  while (pos < exposition.size()) {
    std::size_t eol = exposition.find('\n', pos);
    if (eol == std::string::npos) eol = exposition.size();
    const std::string line = exposition.substr(pos, eol - pos);
    if (line.compare(0, name.size() + 1, name + " ") == 0) {
      return std::strtod(line.c_str() + name.size() + 1, nullptr);
    }
    pos = eol + 1;
  }
  return std::nan("");
}

double GlobalMetric(const std::string& name) {
  std::string text;
  metrics::MetricsRegistry::Instance().RenderPrometheus(&text);
  const double v = MetricValue(text, name);
  return std::isnan(v) ? 0.0 : v;
}

TEST(MetricNameTest, ValidatesPrefixAndCharset) {
  EXPECT_TRUE(metrics::ValidMetricName("fwdecay_requests_total"));
  EXPECT_TRUE(metrics::ValidMetricName("fwdecay_x9"));
  EXPECT_FALSE(metrics::ValidMetricName(""));
  EXPECT_FALSE(metrics::ValidMetricName("fwdecay_"));
  EXPECT_FALSE(metrics::ValidMetricName("requests_total"));
  EXPECT_FALSE(metrics::ValidMetricName("fwdecay_Requests"));
  EXPECT_FALSE(metrics::ValidMetricName("fwdecay_req-total"));
  EXPECT_FALSE(metrics::ValidMetricName("fwdecay_req total"));
}

TEST(FormatValueTest, IntegralValuesDropThePoint) {
  EXPECT_EQ(metrics::FormatValue(0.0), "0");
  EXPECT_EQ(metrics::FormatValue(5.0), "5");
  EXPECT_EQ(metrics::FormatValue(-3.0), "-3");
  EXPECT_EQ(metrics::FormatValue(1234567.0), "1234567");
  EXPECT_EQ(metrics::FormatValue(49.6), "49.6");
  EXPECT_EQ(metrics::FormatValue(2.5), "2.5");
}

TEST(CounterTest, IncrementsAndReportsPreValue) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(c.Increment(), 0u);
  EXPECT_EQ(c.Increment(41), 1u);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.Set(2.5);
  g.Set(-7.0);
  EXPECT_EQ(g.value(), -7.0);
}

// The decayed count must equal the brute-force reference exactly
// (same arithmetic, Definition 5); the rate is count * alpha.
TEST(DecayedRateTest, MatchesExactReference) {
  const double alpha = 0.5;
  DecayedRate rate(alpha);
  ExactDecayedReference ref;
  for (int i = 0; i < 1000; ++i) {
    const double t = 0.01 * i;
    rate.Mark(t);
    ref.Add(t, /*key=*/0, /*value=*/1.0);
  }
  const double t_end = 0.01 * 999;
  const double want =
      ref.Count(t_end, BackwardWeightFn(ExponentialF(alpha)));
  EXPECT_NEAR(rate.DecayedCountValue(t_end), want, 1e-9 * want);
  EXPECT_NEAR(rate.RatePerSecond(t_end), want * alpha, 1e-9 * want);
  rate.CheckInvariants();
}

// For steady arrivals at rate r the decayed count converges to r/alpha
// (Poisson argument in the header), so RatePerSecond estimates r.
TEST(DecayedRateTest, ConvergesToArrivalRate) {
  const double alpha = 0.5;
  DecayedRate rate(alpha);
  for (int i = 0; i <= 2000; ++i) rate.Mark(0.01 * i);  // 100 events/s, 20 s
  EXPECT_NEAR(rate.RatePerSecond(20.0), 100.0, 2.0);
}

// Marks far past the landmark trigger the write-time rebase (Section
// VI-A); the observable value must not jump.
TEST(DecayedRateTest, LandmarkRescalePreservesValue) {
  const double alpha = 0.1;
  DecayedRate rate(alpha);
  ExactDecayedReference ref;
  for (const double t : {0.0, 700.0, 1400.0}) {  // 0.1 * 700 > kRescaleLogLimit
    rate.Mark(t);
    ref.Add(t, 0, 1.0);
  }
  const double want = ref.Count(1400.0, BackwardWeightFn(ExponentialF(alpha)));
  EXPECT_NEAR(rate.DecayedCountValue(1400.0), want, 1e-9);
  rate.CheckInvariants();
}

TEST(LatencyReservoirTest, QuantilesOfSmallSample) {
  LatencyReservoir r(/*k=*/8, /*alpha=*/0.015);
  for (const double v : {10.0, 20.0, 30.0, 40.0, 50.0}) r.Observe(0.0, v);
  const ReservoirSnapshot snap = r.Snapshot();
  EXPECT_EQ(snap.size, 5u);
  EXPECT_DOUBLE_EQ(snap.median, 30.0);
  EXPECT_DOUBLE_EQ(snap.p75, 40.0);
  EXPECT_DOUBLE_EQ(snap.p95, 48.0);
  EXPECT_DOUBLE_EQ(snap.p99, 49.6);
  EXPECT_EQ(r.observations(), 5u);
  r.CheckInvariants();
}

TEST(LatencyReservoirTest, ObservationsAreCumulativeSampleIsBounded) {
  LatencyReservoir r(/*k=*/4, /*alpha=*/0.1);
  for (int i = 0; i < 100; ++i) r.Observe(0.1 * i, i);
  EXPECT_EQ(r.observations(), 100u);
  EXPECT_LE(r.Snapshot().size, 4u);
  r.CheckInvariants();
}

TEST(ScopedTimerSampleTest, RecordsElapsedTimeOrNothing) {
  LatencyReservoir r(/*k=*/4, /*alpha=*/0.1);
  { ScopedTimerSample null_sample(nullptr, 0.0); }  // must not observe/crash
  EXPECT_EQ(r.observations(), 0u);
  { ScopedTimerSample sample(&r, 0.0); }
  EXPECT_EQ(r.observations(), 1u);
  EXPECT_GE(r.Snapshot().min, 0.0);
}

TEST(MetricsRegistryTest, HandlesAreStableAndSharedByName) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("fwdecay_reqs_total", "Requests.");
  Counter* b = reg.GetCounter("fwdecay_reqs_total", "Requests.");
  EXPECT_EQ(a, b);
  Counter* labelled =
      reg.GetCounter("fwdecay_reqs_total", "Requests.", "shard=\"0\"");
  EXPECT_NE(a, labelled);
  EXPECT_EQ(reg.MetricCount(), 2u);
  reg.CheckInvariants();
}

TEST(MetricsRegistryTest, GoldenExposition) {
  MetricsRegistry reg;
  reg.GetGauge("fwdecay_queue_depth", "Current depth.")->Set(2.5);
  reg.GetCounter("fwdecay_requests_total", "Requests served.")->Increment(3);
  reg.GetCounter("fwdecay_requests_total", "Requests served.", "shard=\"1\"")
      ->Increment(4);
  LatencyReservoir* rpc =
      reg.GetReservoir("fwdecay_rpc_ns", "RPC latency.", 8, 0.015);
  for (const double v : {10.0, 20.0, 30.0, 40.0, 50.0}) rpc->Observe(0.0, v);
  reg.GetDecayedRate("fwdecay_tuple_rate", "Decayed tuple rate.", 0.5)
      ->Mark(10.0, 10.0);

  std::string got;
  reg.RenderPrometheus(&got, /*now=*/10.0);
  EXPECT_EQ(got,
            "# HELP fwdecay_queue_depth Current depth.\n"
            "# TYPE fwdecay_queue_depth gauge\n"
            "fwdecay_queue_depth 2.5\n"
            "# HELP fwdecay_requests_total Requests served.\n"
            "# TYPE fwdecay_requests_total counter\n"
            "fwdecay_requests_total 3\n"
            "fwdecay_requests_total{shard=\"1\"} 4\n"
            "# HELP fwdecay_rpc_ns RPC latency.\n"
            "# TYPE fwdecay_rpc_ns summary\n"
            "fwdecay_rpc_ns{quantile=\"0.5\"} 30\n"
            "fwdecay_rpc_ns{quantile=\"0.75\"} 40\n"
            "fwdecay_rpc_ns{quantile=\"0.95\"} 48\n"
            "fwdecay_rpc_ns{quantile=\"0.99\"} 49.6\n"
            "fwdecay_rpc_ns_count 5\n"
            "# HELP fwdecay_tuple_rate Decayed tuple rate.\n"
            "# TYPE fwdecay_tuple_rate gauge\n"
            "fwdecay_tuple_rate 5\n");
  reg.CheckInvariants();
}

TEST(MetricsRegistryDeathTest, RejectsBadNamesAndKindChanges) {
  MetricsRegistry reg;
  EXPECT_DEATH(reg.GetCounter("bad_name_total", "h"),
               "metric names must match");
  reg.GetCounter("fwdecay_thing_total", "h");
  EXPECT_DEATH(reg.GetGauge("fwdecay_thing_total", "h"),
               "metric re-registered with a different kind");
  EXPECT_DEATH(reg.GetGauge("fwdecay_thing_total", "h", "shard=\"1\""),
               "metric family spans two kinds");
  reg.GetDecayedRate("fwdecay_thing_rate", "h", 0.5);
  EXPECT_DEATH(reg.GetDecayedRate("fwdecay_thing_rate", "h", 0.25),
               "decayed rate re-registered with a different alpha");
}

// Registration, writes, and renders race from several threads; run
// under TSan in CI. The per-label counters must survive uncorrupted.
TEST(MetricsRegistryTest, ConcurrentRegistrationAndRender) {
  MetricsRegistry reg;
  constexpr int kThreads = 4;
  constexpr int kIters = 1000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&reg, w] {
      const std::string label = "writer=\"" + std::to_string(w) + "\"";
      for (int i = 0; i < kIters; ++i) {
        reg.GetCounter("fwdecay_conc_total", "Concurrent.", label)
            ->Increment();
        reg.GetReservoir("fwdecay_conc_ns", "Concurrent.", 16, 0.1)
            ->Observe(reg.NowSeconds(), i);
      }
    });
  }
  std::thread reader([&reg] {
    std::string text;
    for (int i = 0; i < 200; ++i) {
      reg.RenderPrometheus(&text);
      reg.CheckInvariants();
    }
  });
  for (std::thread& t : writers) t.join();
  reader.join();

  std::string text;
  reg.RenderPrometheus(&text);
  for (int w = 0; w < kThreads; ++w) {
    const std::string line = "fwdecay_conc_total{writer=\"" +
                             std::to_string(w) + "\"} " +
                             std::to_string(kIters) + "\n";
    EXPECT_NE(text.find(line), std::string::npos) << line;
  }
  EXPECT_EQ(
      reg.GetReservoir("fwdecay_conc_ns", "Concurrent.", 16, 0.1)
          ->observations(),
      static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(StatsReporterTest, EmitsPeriodicReports) {
  MetricsRegistry reg;
  reg.GetCounter("fwdecay_reporter_probe_total", "Probe.")->Increment(9);
  std::atomic<int> seen{0};
  std::string last;
  Mutex mu;
  {
    StatsReporter reporter(&reg, /*period_seconds=*/0.01,
                           [&](const std::string& text) {
                             MutexLock lock(mu);
                             last = text;
                             seen.fetch_add(1);
                           });
    while (seen.load() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    reporter.Stop();
    EXPECT_GE(reporter.reports_emitted(), 1u);
  }
  MutexLock lock(mu);
  EXPECT_NE(last.find("fwdecay_reporter_probe_total 9"), std::string::npos);
}

TEST(NoopBuildTest, DisabledTranslationUnitDoesNothing) {
  EXPECT_EQ(metrics_noop_check::ExerciseDisabledMetrics(), 0u);
  // The probe names the helper used must never leak into the real
  // registry: the helper's aliases resolved to the noop shells.
  std::string text;
  metrics::MetricsRegistry::Instance().RenderPrometheus(&text);
  EXPECT_EQ(text.find("fwdecay_noop_probe"), std::string::npos);
}

// --------------------------------------------------------------------
// Integration: instrumented engine paths move the global families.

TEST(EngineIntegrationTest, IngestMovesEngineCounters) {
  if (!FWDECAY_METRICS_ENABLED) GTEST_SKIP() << "metrics compiled out";
  dsms::TraceConfig cfg;
  cfg.seed = 11;
  dsms::PacketGenerator gen(cfg);
  const auto trace = gen.Generate(5000);

  std::string error;
  auto plan = dsms::CompiledQuery::Compile(
      "select destPort, count(*) from TCP group by destPort", &error);
  ASSERT_NE(plan, nullptr) << error;

  const double packets0 = GlobalMetric("fwdecay_engine_packets_total");
  const double tuples0 = GlobalMetric("fwdecay_engine_tuples_total");
  auto exec = plan->NewExecution();
  for (const auto& p : trace) exec->Consume(p);
  const std::uint64_t aggregated = exec->tuples_aggregated();
  exec->Finish();  // publishes the tail delta

  EXPECT_EQ(GlobalMetric("fwdecay_engine_packets_total") - packets0,
            static_cast<double>(trace.size()));
  EXPECT_EQ(GlobalMetric("fwdecay_engine_tuples_total") - tuples0,
            static_cast<double>(aggregated));
}

TEST(EngineIntegrationTest, CheckpointRestoreAndFaultCountersMove) {
  if (!FWDECAY_METRICS_ENABLED) GTEST_SKIP() << "metrics compiled out";
  dsms::TraceConfig cfg;
  cfg.seed = 12;
  dsms::PacketGenerator gen(cfg);
  const auto trace = gen.Generate(2000);

  std::string error;
  auto plan = dsms::CompiledQuery::Compile(
      "select destPort, count(*) from TCP group by destPort", &error);
  ASSERT_NE(plan, nullptr) << error;
  auto exec = plan->NewExecution();
  for (const auto& p : trace) exec->Consume(p);

  const std::string path = testing::TempDir() + "metrics_test.ckpt";
  const double ckpt0 = GlobalMetric("fwdecay_checkpoint_total");
  const double writes0 = GlobalMetric("fwdecay_faultfs_writes_total");
  const double wfail0 = GlobalMetric("fwdecay_faultfs_write_failures_total");
  const double faults0 = GlobalMetric("fwdecay_faultfs_faults_injected_total");
  const double restores0 = GlobalMetric("fwdecay_restore_total");

  ASSERT_TRUE(exec->Checkpoint(path, &error)) << error;
  EXPECT_EQ(GlobalMetric("fwdecay_checkpoint_total") - ckpt0, 1.0);
  EXPECT_EQ(GlobalMetric("fwdecay_faultfs_writes_total") - writes0, 1.0);
  EXPECT_GT(GlobalMetric("fwdecay_checkpoint_bytes_total"), 0.0);

  auto restored = plan->NewExecution();
  ASSERT_TRUE(restored->Restore(path, &error)) << error;
  EXPECT_EQ(GlobalMetric("fwdecay_restore_total") - restores0, 1.0);
  EXPECT_EQ(restored->tuples_aggregated(), exec->tuples_aggregated());

  // An injected fsync failure shows up in both the fault counter and
  // the write-failure counter.
  FaultFs::Instance().SetPlan({FaultPoint::kFsyncError, 0});
  EXPECT_FALSE(exec->Checkpoint(path, &error));
  FaultFs::Instance().ClearPlan();
  EXPECT_EQ(GlobalMetric("fwdecay_faultfs_faults_injected_total") - faults0,
            1.0);
  EXPECT_EQ(GlobalMetric("fwdecay_faultfs_write_failures_total") - wfail0,
            1.0);
  std::remove(path.c_str());
}

TEST(EngineIntegrationTest, ShardedIngestPopulatesShardFamilies) {
  if (!FWDECAY_METRICS_ENABLED) GTEST_SKIP() << "metrics compiled out";
  dsms::TraceConfig cfg;
  cfg.seed = 13;
  dsms::PacketGenerator gen(cfg);
  const auto trace = gen.Generate(4000);
  dsms::PacketBatch batch(trace.size());
  for (const auto& p : trace) batch.Append(p);

  std::string error;
  auto plan = dsms::CompiledQuery::Compile(
      "select destPort, count(*) from TCP group by destPort", &error);
  ASSERT_NE(plan, nullptr) << error;

  std::vector<double> before(2);
  std::string text;
  metrics::MetricsRegistry::Instance().RenderPrometheus(&text);
  for (int s = 0; s < 2; ++s) {
    const double v = MetricValue(
        text, "fwdecay_shard_tuples_total{shard=\"" + std::to_string(s) +
                  "\"}");
    before[static_cast<std::size_t>(s)] = std::isnan(v) ? 0.0 : v;
  }

  dsms::PipelinedQueryExecution::Options options;
  options.num_shards = 2;
  dsms::PipelinedQueryExecution pipeline(*plan, options);
  pipeline.Consume(batch);
  pipeline.Quiesce();
  const std::uint64_t aggregated = pipeline.tuples_aggregated();
  pipeline.Finish();  // shard deltas publish here

  metrics::MetricsRegistry::Instance().RenderPrometheus(&text);
  double delta = 0.0;
  for (int s = 0; s < 2; ++s) {
    const double v = MetricValue(
        text, "fwdecay_shard_tuples_total{shard=\"" + std::to_string(s) +
                  "\"}");
    ASSERT_FALSE(std::isnan(v));
    delta += v - before[static_cast<std::size_t>(s)];
  }
  EXPECT_EQ(delta, static_cast<double>(aggregated));
}

}  // namespace
