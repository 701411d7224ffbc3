// Engine observability tour (DESIGN.md §9): the DSMS instruments
// itself with the paper's own machinery. Counters are plain atomics,
// but every *time-windowed* statistic — tuple arrival rate, batch and
// fsync latency quantiles — is forward-decayed: rates use
// DecayedCount<ExponentialG> (Definition 5) and latency reservoirs use
// the log-key decaying reservoir (Section V), so neither needs a
// background rescaling thread.
//
// This example runs the ingest pipeline end to end (batched ingest,
// pipelined ingest, checkpoint + restore), lets a StatsReporter thread
// emit periodic reports, registers an application-level metric of its
// own, and finally scrapes the registry the way a Prometheus /metrics
// endpoint would.

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "dsms/batch.h"
#include "dsms/engine.h"
#include "dsms/netgen.h"
#include "dsms/udafs.h"
#include "util/metrics.h"

namespace {

std::vector<fwdecay::dsms::PacketBatch> Rebatch(
    const std::vector<fwdecay::dsms::Packet>& trace) {
  using fwdecay::dsms::PacketBatch;
  std::vector<PacketBatch> batches;
  PacketBatch batch(PacketBatch::kDefaultCapacity);
  for (const auto& p : trace) {
    batch.Append(p);
    if (batch.full()) {
      batches.push_back(std::move(batch));
      batch = PacketBatch(PacketBatch::kDefaultCapacity);
    }
  }
  if (!batch.empty()) batches.push_back(std::move(batch));
  return batches;
}

}  // namespace

int main() {
  using namespace fwdecay;
  using namespace fwdecay::dsms;
  RegisterPaperUdafs();

  auto& registry = metrics::MetricsRegistry::Instance();

  // Application code can register its own families alongside the
  // engine's; names must match ^fwdecay_[a-z0-9_]+$ (checked).
  metrics::Counter* demo_runs = registry.GetCounter(
      "fwdecay_example_runs_total", "Completed engine_metrics example runs.");

  // Periodic reporting: a background thread renders the registry every
  // period. The default sink writes the exposition to stderr; here a
  // custom sink just proves liveness without drowning stdout.
  metrics::StatsReporter reporter(
      &registry, /*period_seconds=*/0.05, [](const std::string& text) {
        std::printf("[stats-report] %zu bytes of exposition\n", text.size());
      });

  TraceConfig cfg;
  cfg.flow_structured = true;
  cfg.num_servers = 500;
  cfg.ports_per_server = 4;
  cfg.seed = 7;
  PacketGenerator gen(cfg);
  const auto trace = gen.Generate(200000);
  const auto batches = Rebatch(trace);

  std::string error;
  CompiledQuery::Options opts;
  opts.two_level = true;
  opts.low_level_slots = 1024;
  auto plan = CompiledQuery::Compile(
      "select destPort, count(*), sum(len), avg(len) from TCP "
      "group by destPort",
      &error, opts);
  if (plan == nullptr) {
    std::fprintf(stderr, "compile error: %s\n", error.c_str());
    return 1;
  }

  // Batched single-execution ingest with a mid-stream checkpoint: the
  // checkpoint/restore cycle also exercises the fault_fs I/O counters
  // and the fsync latency reservoir.
  const std::string ckpt = "engine_metrics.ckpt";
  auto exec = plan->NewExecution();
  for (std::size_t i = 0; i < batches.size(); ++i) {
    exec->Consume(batches[i]);
    if (i == batches.size() / 2 && !exec->Checkpoint(ckpt, &error)) {
      std::fprintf(stderr, "checkpoint failed: %s\n", error.c_str());
      return 1;
    }
  }
  auto restored = plan->NewExecution();
  if (!restored->Restore(ckpt, &error)) {
    std::fprintf(stderr, "restore failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("single execution: %llu tuples, %zu groups "
              "(restored checkpoint holds %llu tuples)\n",
              static_cast<unsigned long long>(exec->tuples_aggregated()),
              exec->GroupCount(),
              static_cast<unsigned long long>(restored->tuples_aggregated()));
  exec->Finish();
  restored->Finish();
  std::remove(ckpt.c_str());

  // Pipelined ingest: per-shard counters land in labelled families
  // (fwdecay_shard_tuples_total{shard="0"} etc.).
  PipelinedQueryExecution::Options pipeline_options;
  pipeline_options.num_shards = 2;
  PipelinedQueryExecution pipeline(*plan, pipeline_options);
  for (const PacketBatch& b : batches) pipeline.Consume(b);
  pipeline.Quiesce();
  std::printf("pipelined execution: %llu tuples across %zu shards\n",
              static_cast<unsigned long long>(pipeline.tuples_aggregated()),
              pipeline.num_shards());
  pipeline.Finish();

  demo_runs->Increment();

  // Give the reporter a chance to fire at least once, then detach it.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  reporter.Stop();
  std::printf("reporter emitted %llu report(s)\n",
              static_cast<unsigned long long>(reporter.reports_emitted()));

  // The scrape itself: what an HTTP /metrics handler would return.
  std::string exposition;
  registry.RenderPrometheus(&exposition);
  std::printf("\n>> /metrics\n%s", exposition.c_str());

#if !FWDECAY_METRICS_ENABLED
  std::printf("(built with FWDECAY_METRICS=OFF: every call above "
              "compiled to a no-op and the exposition is empty)\n");
#endif
  return 0;
}
