// engine_paper: every pass runs the paper's query set once over one
// pre-generated flow-structured netgen trace, batch by batch, the way a
// stream engine serves several standing queries: each 1024-packet batch
// goes to every plan before the next batch is read.

#include <memory>
#include <utility>
#include <vector>

#include "dsms/engine.h"
#include "dsms/tumbling.h"
#include "dsms/udafs.h"
#include "gates.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {

using fwdecay::dsms::CompiledQuery;
using fwdecay::dsms::PacketBatch;
using fwdecay::dsms::PipelinedQueryExecution;
using fwdecay::dsms::QueryExecution;
using fwdecay::dsms::ResultSet;
using fwdecay::dsms::TumblingRunner;

namespace {

// 64 batches of 1024 packets at 100k packets/s: 0.65 s of trace time,
// so the tumbling runner's 0.2 s buckets close several times per pass.
// Short passes give many samples per run for the fast-phase statistics.
constexpr std::size_t kTraceBatches = 64;
constexpr double kBucketSeconds = 0.2;
// Passes per window for the Finish-time (poll) percentiles.
constexpr std::size_t kPollWindow = 10;
constexpr std::size_t kPipelineShards = 2;

// Indices into the single-thread plan list.
constexpr std::size_t kCs1l = 0;
constexpr std::size_t kCs2l = 1;
constexpr std::size_t kPrisampIndex = 4;
constexpr std::size_t kNumSingle = 6;
constexpr const char* kConsumeSpan[kNumSingle] = {
    "engine.consume.count_sum_1l", "engine.consume.count_sum_2l",
    "engine.consume.fwd_exp",      "udaf.consume.fdhh",
    "udaf.consume.prisamp",        "udaf.consume.fdquantile"};
constexpr const char* kFinishSpan[kNumSingle] = {
    "engine.finish.count_sum_1l", "engine.finish.count_sum_2l",
    "engine.finish.fwd_exp",      "udaf.finish.fdhh",
    "udaf.finish.prisamp",        "udaf.finish.fdquantile"};

std::vector<PlanSpec> PaperSpecs() {
  auto spec = [](const char* name, const char* gsql, bool two_level) {
    PlanSpec s;
    s.name = name;
    s.gsql = gsql;
    s.two_level = two_level;
    return s;
  };
  return {spec("count_sum_1l", kCountSum, false),
          spec("count_sum_2l", kCountSum, true),
          spec("fwd_exp", kForwardExp, true),
          spec("fdhh", kFdhh, false),
          spec("prisamp", kPrisamp, false),
          spec("fdquantile", kFdquantile, false)};
}

struct PaperSet {
  std::vector<std::unique_ptr<CompiledQuery>> plans;
};

PaperSet Compile(const std::vector<PlanSpec>& specs) {
  fwdecay::dsms::RegisterPaperUdafs();
  PaperSet set;
  for (const auto& s : specs) set.plans.push_back(MustCompile(s.gsql, s.two_level));
  return set;
}

PipelinedQueryExecution::Options PipeOptions() {
  PipelinedQueryExecution::Options opts;
  opts.num_shards = kPipelineShards;
  return opts;
}

struct PassResult {
  double wall_s = 0;
  double cpu_s = 0;
  double finish_ms = 0;
  std::vector<double> batch_us;
  std::vector<ResultSet> single;
  ResultSet pipeline;
  std::vector<std::pair<std::int64_t, ResultSet>> buckets;
};

PassResult RunPass(const PaperSet& set, const std::vector<PacketBatch>& trace) {
  PassResult out;
  const double cpu0 = SelfCpuSec();
  const std::int64_t t0 = NowNs();
  Span pass_span("pass");
  std::vector<std::unique_ptr<QueryExecution>> execs;
  for (const auto& plan : set.plans) execs.push_back(plan->NewExecution());
  TumblingRunner tumbling(
      set.plans[kCs2l].get(), kBucketSeconds,
      [&out](std::int64_t bucket, ResultSet rs) {
        out.buckets.emplace_back(bucket, std::move(rs));
      });
  out.batch_us.reserve(trace.size());
  for (const auto& b : trace) {
    const std::int64_t b0 = NowNs();
    for (std::size_t i = 0; i < kNumSingle; ++i) {
      Span s(kConsumeSpan[i]);
      execs[i]->Consume(b);
    }
    {
      Span s("windows.consume");
      for (std::size_t i = 0; i < b.size(); ++i) tumbling.Consume(b.Get(i));
    }
    out.batch_us.push_back(static_cast<double>(NowNs() - b0) / 1e3);
  }
  const std::int64_t f0 = NowNs();
  for (std::size_t i = 0; i < kNumSingle; ++i) {
    Span s(kFinishSpan[i]);
    out.single.push_back(execs[i]->Finish());
  }
  {
    Span s("windows.flush");
    tumbling.Flush();
  }
  out.finish_ms = static_cast<double>(NowNs() - f0) / 1e6;
  // The 2-shard pipeline runs after the single-thread plans rather than
  // beside them: its workers spin while they wait for batches, so they
  // live only while the router keeps them fed.
  {
    PipelinedQueryExecution pipe(*set.plans[kCs1l], PipeOptions());
    for (const auto& b : trace) {
      Span s("pipeline.consume");
      pipe.Consume(b);
    }
    Span s("pipeline.finish");
    out.pipeline = pipe.Finish();
  }
  const std::int64_t t1 = NowNs();
  out.wall_s = static_cast<double>(t1 - t0) / 1e9;
  out.cpu_s = SelfCpuSec() - cpu0;
  return out;
}

// Gates on one pass; `first` is null for the first pass.
bool GatePass(const PassResult& pass, const PassResult* first,
              const ExactCountSum& exact, Report* report) {
  bool ok = true;
  auto gate = [&](const char* name, const std::string& mismatch) {
    if (mismatch.empty()) return;
    report->Fail(name, mismatch);
    ok = false;
  };
  gate("pipeline-vs-single",
       CheckIntColumns(pass.pipeline, pass.single[kCs1l]));
  if (first == nullptr) {
    gate("count-sum-exact-1l", CheckCountSum(pass.single[kCs1l], exact));
    gate("count-sum-exact-2l", CheckCountSum(pass.single[kCs2l], exact));
    gate("tumbling-sums", CheckBucketsSum(pass.buckets, pass.single[kCs1l]));
    return ok;
  }
  for (std::size_t i = 0; i < kNumSingle; ++i) {
    const std::string m =
        i == kPrisampIndex ? CheckSameSampleSize(pass.single[i], first->single[i], 1)
                      : CheckSame(pass.single[i], first->single[i]);
    gate("pass-vs-first", m.empty() ? m : std::string(kConsumeSpan[i]) + ": " + m);
  }
  gate("pass-vs-first", CheckSame(pass.pipeline, first->pipeline));
  if (pass.buckets.size() != first->buckets.size()) {
    gate("pass-vs-first", "bucket count differs");
  } else {
    for (std::size_t i = 0; i < pass.buckets.size(); ++i) {
      gate("pass-vs-first",
           CheckSame(pass.buckets[i].second, first->buckets[i].second));
    }
  }
  return ok;
}

}  // namespace

void RunEnginePaper(const Args& args, Report* report) {
  fwdecay::dsms::TraceConfig cfg;
  cfg.rate_pps = 100000.0;
  // engine_wide draws fresh endpoints per packet instead of repeating
  // flows, so the group tables hold several times more groups per pass.
  cfg.flow_structured = args.workload != "engine_wide";
  cfg.seed = args.seed;
  const std::vector<PacketBatch> trace = GenerateBatches(cfg, kTraceBatches);
  const double rss_after_trace = ProcStatusMiB(0, "VmRSS:");
  double packets = 0;
  for (const auto& b : trace) packets += static_cast<double>(b.size());
  const ExactCountSum exact = BuildExactCountSum(trace);
  const std::vector<PlanSpec> specs = PaperSpecs();

  // Set-up: UDAF registration, compiling every plan, building the
  // executions and starting the pipeline workers. One trial runs after
  // every pass, so the median spans the run's host phases.
  std::vector<double> setup_s;
  auto setup_trial = [&] {
    const std::int64_t t0 = NowNs();
    PaperSet trial = Compile(specs);
    std::vector<std::unique_ptr<QueryExecution>> execs;
    for (const auto& plan : trial.plans) execs.push_back(plan->NewExecution());
    auto pipe = std::make_unique<PipelinedQueryExecution>(*trial.plans[kCs1l],
                                                          PipeOptions());
    TumblingRunner tumbling(trial.plans[kCs2l].get(), kBucketSeconds,
                            [](std::int64_t, ResultSet) {});
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  };
  setup_trial();
  const PaperSet set = Compile(specs);

  // Warm-up pass (page faults, arena growth), gated but not timed.
  report->Attempt();
  PassResult first = RunPass(set, trace);
  if (!GatePass(first, nullptr, exact, report)) report->FailOp();

  // In-process recovery: every single-thread plan rebuilt from its
  // FWDSNAP1 image must finish equal to the never-restored execution.
  // The images are taken once; one trial runs after every pass.
  std::vector<std::vector<std::uint8_t>> images(kNumSingle);
  std::vector<ResultSet> never_crashed;
  for (std::size_t i = 0; i < kNumSingle; ++i) {
    auto exec = set.plans[i]->NewExecution();
    for (const auto& b : trace) exec->Consume(b);
    std::string error;
    if (!exec->CheckpointBytes(&images[i], &error)) {
      report->Fail("recovery-checkpoint", error);
    }
    never_crashed.push_back(exec->Finish());
  }
  std::vector<double> recovery_s;
  auto recovery_trial = [&] {
    report->Attempt();
    const std::int64_t t0 = NowNs();
    std::vector<ResultSet> restored;
    bool same = true;
    for (std::size_t i = 0; i < kNumSingle; ++i) {
      Span s("snapshot.restore_and_finish");
      auto exec = set.plans[i]->NewExecution();
      std::string error;
      if (!exec->RestoreBytes(images[i].data(), images[i].size(), &error)) {
        report->Fail("recovery-restore", error);
        same = false;
      }
      restored.push_back(exec->Finish());
    }
    recovery_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    for (std::size_t i = 0; i < kNumSingle; ++i) {
      const std::string m = CheckSame(restored[i], never_crashed[i]);
      if (!m.empty()) {
        report->Fail("recovered-vs-never-crashed", m);
        same = false;
      }
    }
    if (!same) report->FailOp();
  };

  std::vector<double> pps, cpu_per_mpkt, finish_ms, batch_p50, batch_p90;
  std::vector<double> traced_pps, all_pps;
  const double deadline = NowSec() + args.seconds;
  std::size_t index = 0;
  while (NowSec() < deadline) {
    const bool traced = args.trace && (index % 2 == 1);
    ++index;
    Tracer::Get().SetActive(traced);
    report->Attempt();
    PassResult pass = RunPass(set, trace);
    Tracer::Get().SetActive(false);
    if (!GatePass(pass, &first, exact, report)) {
      report->FailOp();
      continue;
    }
    all_pps.push_back(packets / pass.wall_s);
    if (traced) {
      traced_pps.push_back(packets / pass.wall_s);
      continue;
    }
    pps.push_back(packets / pass.wall_s);
    cpu_per_mpkt.push_back(pass.cpu_s / (packets / 1e6));
    finish_ms.push_back(pass.finish_ms);
    batch_p50.push_back(Quantile(pass.batch_us, 0.5));
    batch_p90.push_back(Quantile(pass.batch_us, 0.9));
    recovery_trial();
    setup_trial();
  }

  // Statistics (README "Statistics"): a value per pass or per window of
  // passes, then the median across the run.
  NoteSeries("ingest_pps", pps);
  NoteSeries("cpu_s_per_mpkt", cpu_per_mpkt);
  NoteSeries("ack_p50_us", batch_p50);
  NoteSeries("ack_p90_us", batch_p90);
  NoteSeries("poll_p50_ms", WindowQuantiles(finish_ms, kPollWindow, 0.5));
  NoteSeries("poll_p90_ms", WindowQuantiles(finish_ms, kPollWindow, 0.9));
  NoteSeries("recovery_s", recovery_s);
  NoteSeries("setup_s", setup_s);
  report->Set("ingest_pps", Median(pps), "1/s");
  report->Set("cpu_s_per_mpkt", Median(cpu_per_mpkt), "s");
  report->Set("ack_p50_us", Median(batch_p50), "us");
  report->Set("ack_p90_us", Median(batch_p90), "us");
  report->Set("poll_p50_ms", Median(WindowQuantiles(finish_ms, kPollWindow, 0.5)),
              "ms");
  report->Set("poll_p90_ms", Median(WindowQuantiles(finish_ms, kPollWindow, 0.9)),
              "ms");
  report->Set("recovery_s", Median(recovery_s), "s");
  report->Set("setup_s", Median(setup_s), "s");
  report->Set("peak_rss_mb", ProcStatusMiB(0, "VmHWM:") - rss_after_trace,
              "MiB");
  report->Note("%s: %zu timed passes of %.0f packets, %zu batch "
               "acks per pass, %zu recovery trials, %zu set-ups",
               args.workload.c_str(), pps.size(), packets, trace.size(), recovery_s.size(),
               setup_s.size());
  ReportPassDiagnostics(args.trace ? all_pps : pps, args.trace, report);

  if (!args.trace) return;
  report->Set("trace.overhead_frac",
              1.0 - Median(traced_pps) / Median(pps), "ratio");
  LayerInputs in;
  in.batches = &trace;
  in.state_plans = specs;
  in.work_dir = args.workdir;
  RunLayerProbes(in, report);
  // fwdecayd has no paper UDAFs registered, so the daemon-side probe
  // serves the built-in members of the set.
  RunDaemonLayerProbe(args, trace,
                      {specs[0], specs[1], specs[2]}, report);
}

}  // namespace perfbench
