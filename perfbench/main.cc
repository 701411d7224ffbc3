// The fwdecay benchmark binary. Usually started through perfbench/run.py,
// which builds it; see perfbench/README.md.
//
//   perfbench --workload engine_paper|engine_wide|serve_ingest|serve_state
//                    --seed N --seconds S --trace 0|1
//                    --workdir DIR --bindir DIR [--trace-out FILE]
//   perfbench --selftest
//
// Prints diagnostics, then one JSON result object as the last line of
// stdout. Exits 1 when a correctness gate fails or a metric is missing.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"
#include "dsms/tumbling.h"
#include "dsms/udafs.h"
#include "gates.h"
#include "queries.h"
#include "workloads.h"

namespace perfbench {

std::unique_ptr<fwdecay::dsms::CompiledQuery> MustCompile(
    const std::string& gsql, bool two_level) {
  fwdecay::dsms::CompiledQuery::Options opts;
  opts.two_level = two_level;
  std::string error;
  auto plan = fwdecay::dsms::CompiledQuery::Compile(gsql, &error, opts);
  if (plan == nullptr) {
    std::fprintf(stderr, "perfbench: cannot compile '%s': %s\n", gsql.c_str(),
                 error.c_str());
    std::exit(2);
  }
  return plan;
}

namespace {

const std::vector<std::string> kEndToEnd = {
    "ingest_pps",  "cpu_s_per_mpkt", "ack_p50_us", "ack_p90_us",
    "poll_p50_ms", "poll_p90_ms",    "recovery_s", "setup_s",
    "peak_rss_mb", "ok_frac"};

struct LayerMetric {
  const char* name;
  const char* moves;  // the end-to-end metric and workload it should move
};

const std::vector<LayerMetric> kPerLayer = {
    {"compile.plan_us", "setup_s on every workload"},
    {"engine.filter_ns_per_pkt", "ingest_pps, cpu_s_per_mpkt on engine_paper"},
    {"engine.group_ns_per_pkt",
     "ingest_pps, cpu_s_per_mpkt on engine_paper; ack_p50_us on serve_ingest"},
    {"engine.agg_ns_per_pkt", "ingest_pps, cpu_s_per_mpkt on engine_paper"},
    {"engine.two_level_ns_per_pkt",
     "ingest_pps, cpu_s_per_mpkt on engine_paper"},
    {"engine.expdecay_ns_per_pkt", "ingest_pps, cpu_s_per_mpkt on engine_paper"},
    {"engine.finish_ms",
     "ingest_pps on engine_paper; poll_p50_ms on serve_state"},
    {"engine.groups", "ingest_pps, cpu_s_per_mpkt on engine_paper"},
    {"engine.low_evictions_per_kpkt",
     "ingest_pps, cpu_s_per_mpkt on engine_paper"},
    {"engine.shed_ns_per_pkt",
     "ack_p50_us, ingest_pps on serve_state; none elsewhere"},
    {"engine.groups_shed_per_kpkt",
     "ack_p50_us, ingest_pps on serve_state; none elsewhere"},
    {"udaf.fdhh_ns_per_pkt", "ingest_pps on engine_paper"},
    {"udaf.prisamp_ns_per_pkt", "ingest_pps on engine_paper"},
    {"udaf.fdquantile_ns_per_pkt", "ingest_pps on engine_paper"},
    {"sketch.space_saving_update_ns", "ingest_pps on engine_paper"},
    {"sketch.qdigest_update_ns", "ingest_pps on engine_paper"},
    {"sampling.priority_update_ns", "ingest_pps on engine_paper"},
    {"windows.tumbling_ns_per_pkt", "ingest_pps on engine_paper"},
    {"pipeline.route_ns_per_pkt", "ingest_pps on engine_paper"},
    {"pipeline.drain_ms", "ingest_pps on engine_paper"},
    {"pipeline.merge_ms", "ingest_pps on engine_paper"},
    {"pipeline.speedup_vs_single", "ingest_pps on engine_paper"},
    {"frame.encode_ingest_ns_per_pkt", "ack_p50_us on serve_ingest"},
    {"net.stats_rtt_us", "ack_p50_us on serve_ingest"},
    {"frame.encode_result_ms", "poll_p50_ms on serve_state"},
    {"journal.append_fsync_us", "ack_p50_us, ingest_pps on serve_ingest"},
    {"journal.fsyncs_per_batch", "ack_p50_us, ingest_pps on serve_ingest"},
    {"daemon.apply_us", "ack_p50_us, ack_p90_us on serve_ingest"},
    {"daemon.fanout_us_per_batch", "ack_p50_us, ack_p90_us on serve_ingest"},
    {"daemon.queue_depth_mean", "ack_p50_us, ack_p90_us on serve_ingest"},
    {"daemon.queue_wait_us", "ack_p50_us, ack_p90_us on serve_ingest"},
    {"daemon.checkpoint_ms", "ack_p90_us on serve_state"},
    {"snapshot.checkpoint_bytes_ms",
     "poll_p50_ms, recovery_s, ack_p90_us on serve_state"},
    {"snapshot.restore_bytes_ms", "poll_p50_ms, recovery_s on serve_state"},
    {"snapshot.image_mb", "poll_p50_ms, recovery_s on serve_state"},
    {"recovery.replayed_batches", "recovery_s on serve_state"},
    {"bench.pass_pps_p10", "none (host phase)"},
    {"bench.pass_pps_p50", "none (host phase)"},
    {"bench.pass_count", "none (host phase)"},
    {"trace.overhead_frac", "none (cost of tracing)"},
};

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --workdir DIR --bindir DIR [--trace-out FILE]\n"
               "       perfbench --selftest\n"
               "workloads: engine_paper engine_wide serve_ingest "
               "serve_state\n");
}

bool ParseArgs(int argc, char** argv, Args* args, bool* selftest) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      *selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--bindir") {
      args->bindir = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  if (*selftest) return true;
  const bool known = args->workload == "engine_paper" ||
                     args->workload == "engine_wide" ||
                     args->workload == "serve_ingest" ||
                     args->workload == "serve_state";
  return known && args->seconds > 0 && !args->workdir.empty() &&
         !args->bindir.empty();
}

}  // namespace

// --- selftest: every gate must trip on a corrupted reference ----------------

bool RunSelftest() {
  using fwdecay::dsms::PacketBatch;
  using fwdecay::dsms::ResultSet;
  using fwdecay::dsms::Value;
  fwdecay::dsms::RegisterPaperUdafs();
  bool all = true;
  auto expect = [&all](const char* gate, const std::string& clean,
                       const std::string& corrupted) {
    const bool ok = clean.empty() && !corrupted.empty();
    std::printf("selftest %-28s clean: %s, corrupted: %s -> %s\n", gate,
                clean.empty() ? "pass" : clean.c_str(),
                corrupted.empty() ? "NOT TRIPPED" : "tripped",
                ok ? "ok" : "FAIL");
    all = all && ok;
  };

  fwdecay::dsms::TraceConfig cfg;
  cfg.flow_structured = true;
  cfg.seed = 7;
  const std::vector<PacketBatch> trace = GenerateBatches(cfg, 32);
  auto run = [&](const char* gsql, bool two_level) {
    auto plan = MustCompile(gsql, two_level);
    auto exec = plan->NewExecution();
    for (const auto& b : trace) exec->Consume(b);
    return exec->Finish();
  };
  const ResultSet cs = run(kCountSum, false);

  // engine_paper: count/sum equals the exact map.
  ExactCountSum exact = BuildExactCountSum(trace);
  ExactCountSum bad_exact = exact;
  bad_exact.begin()->second.first += 1;
  expect("count-sum-exact", CheckCountSum(cs, exact),
         CheckCountSum(cs, bad_exact));

  // engine_paper: pipeline matches single-thread on integer columns.
  auto plan = MustCompile(kCountSum, false);
  fwdecay::dsms::PipelinedQueryExecution::Options opts;
  opts.num_shards = 2;
  fwdecay::dsms::PipelinedQueryExecution pipe(*plan, opts);
  for (const auto& b : trace) pipe.Consume(b);
  const ResultSet piped = pipe.Finish();
  ResultSet bad_single = cs;
  bad_single.rows.back()[3] = Value(bad_single.rows.back()[3].AsInt() + 1);
  expect("pipeline-vs-single", CheckIntColumns(piped, cs),
         CheckIntColumns(piped, bad_single));

  // engine_paper: tumbling buckets sum to the unwindowed totals.
  auto plan2 = MustCompile(kCountSum, true);
  std::vector<std::pair<std::int64_t, ResultSet>> buckets;
  fwdecay::dsms::TumblingRunner tumbling(
      plan2.get(), 0.05, [&](std::int64_t b, ResultSet rs) {
        buckets.emplace_back(b, std::move(rs));
      });
  for (const auto& b : trace) {
    for (std::size_t i = 0; i < b.size(); ++i) tumbling.Consume(b.Get(i));
  }
  tumbling.Flush();
  ResultSet bad_total = cs;
  bad_total.rows.front()[4] = Value(bad_total.rows.front()[4].AsInt() - 1);
  expect("tumbling-sums", CheckBucketsSum(buckets, cs),
         CheckBucketsSum(buckets, bad_total));

  // engine_paper: every pass matches the first (bit-exact doubles).
  const ResultSet exp1 = run(kForwardExp, true);
  const ResultSet exp2 = run(kForwardExp, true);
  ResultSet bad_first = exp1;
  bad_first.rows[0][3] =
      Value(std::nextafter(bad_first.rows[0][3].AsDouble(), 1e300));
  expect("pass-vs-first", CheckSame(exp2, exp1), CheckSame(exp2, bad_first));
  const ResultSet samp1 = run(kPrisamp, false);
  const ResultSet samp2 = run(kPrisamp, false);
  ResultSet bad_samp = samp1;
  bad_samp.rows[0][1] = Value(bad_samp.rows[0][1].AsString() + ",0");
  expect("pass-vs-first (sample)", CheckSameSampleSize(samp2, samp1, 1),
         CheckSameSampleSize(samp2, bad_samp, 1));

  // serve_ingest: a poll equals the reference fed the acked batches in
  // global_seq order; a reference missing one acked batch must differ.
  PlanSpec spec;
  spec.gsql = kCountSum;
  std::vector<AckedBatch> acks;
  for (std::uint32_t i = 0; i < trace.size(); ++i) {
    acks.push_back({trace.size() - i, static_cast<std::uint32_t>(trace.size() - 1 - i)});
  }
  const ResultSet polled = ReferenceFromAcks({spec}, acks, trace)[0];
  std::vector<AckedBatch> short_acks(acks.begin() + 1, acks.end());
  expect("poll-vs-reference", CheckSame(polled, cs),
         CheckSame(polled, ReferenceFromAcks({spec}, short_acks, trace)[0]));

  // serve_state: polls after restart equal the polls before the kill.
  auto fwd_plan = MustCompile(kForwardExp, true);
  auto live = fwd_plan->NewExecution();
  for (const auto& b : trace) live->Consume(b);
  std::vector<std::uint8_t> image;
  std::string error;
  live->CheckpointBytes(&image, &error);
  auto restored = fwd_plan->NewExecution();
  restored->RestoreBytes(image.data(), image.size(), &error);
  const ResultSet after = restored->Finish();
  ResultSet bad_before = exp1;
  bad_before.rows.pop_back();
  expect("recovered-vs-never-crashed", CheckSame(after, exp1),
         CheckSame(after, bad_before));
  return all;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool selftest = false;
  if (!ParseArgs(argc, argv, &args, &selftest)) {
    Usage();
    return 2;
  }
  InstallSignalHandlers();
  if (selftest) return RunSelftest() ? 0 : 1;

  Tracer::Get().Configure(args.trace, args.seed);
  Tracer::Get().SetActive(false);
  Report report;
  std::printf("perfbench: workload %s seed %llu seconds %.0f trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  if (args.workload == "engine_paper" || args.workload == "engine_wide") {
    RunEnginePaper(args, &report);
  } else {
    RunServe(args, &report);
  }
  if (report.attempted() > 0) {
    report.Set("ok_frac",
               static_cast<double>(report.attempted() - report.failed()) /
                   static_cast<double>(report.attempted()),
               "ratio");
  }

  std::vector<std::string> names;
  bool complete = true;
  if (args.trace) {
    if (!args.trace_out.empty() && !Tracer::Get().WriteJsonl(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
    }
    for (const auto& [name, totals] : Tracer::Get().Summarize()) {
      std::printf("span %-36s count %8llu total %10.3f ms self %10.3f ms\n",
                  name.c_str(), static_cast<unsigned long long>(totals.count),
                  totals.total_ns / 1e6, totals.self_ns / 1e6);
    }
    for (const auto& m : kPerLayer) {
      names.push_back(m.name);
      std::printf("layer %-32s %14.6g  moves %s\n", m.name,
                  report.Get(m.name), m.moves);
    }
  } else {
    names = kEndToEnd;
    for (const auto& name : names) {
      std::printf("metric %-16s %14.6g\n", name.c_str(), report.Get(name));
    }
  }
  for (const auto& name : names) {
    if (!report.Has(name)) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   name.c_str());
      complete = false;
    }
  }
  std::printf("%s\n", report.Json(names).c_str());
  std::fflush(stdout);
  return report.correct() && complete ? 0 : 1;
}
