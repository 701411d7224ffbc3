// Ingest-path throughput: per-tuple Consume(Packet) vs batched columnar
// Consume(PacketBatch) vs PipelinedQueryExecution (shared-nothing SPSC
// pipeline) at 1/2/4/8 shards, over a flow-structured netgen trace and
// the paper-style two-level query
//
//   select destPort, count(*), sum(len), avg(len) from TCP
//   group by destPort
//
// Every mode runs the same trace and must produce the same groups; the
// harness cross-checks the result tables before reporting numbers
// (batched vs per-tuple bit-identical; pipeline checked on the
// integer-exact columns, DESIGN.md §14.4).
//
// Results append to BENCH_ingest.json as one JSON object per line so CI
// runs accumulate. Records carry no wall-clock timestamps — machine
// identity and run ordering are the log file's job — but do record
// hardware concurrency: on a single-core runner the pipeline rows
// measure router + handoff overhead, not parallel speedup, and must be
// read alongside the "nproc" field. Pipeline rows also carry a
// "pipeline" generation tag ("spsc-v2"; older rows in the file also
// hold the retired "router-v1" mutex router) so one generation is never
// compared against another.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dsms/batch.h"
#include "dsms/engine.h"
#include "dsms/netgen.h"
#include "dsms/packet.h"
#include "util/metrics.h"
#include "util/simd.h"
#include "util/table_printer.h"
#include "util/timer.h"

#include "bench_util.h"

namespace {

using namespace fwdecay;
using namespace fwdecay::bench;

constexpr char kQuery[] =
    "select destPort, count(*), sum(len), avg(len) from TCP "
    "group by destPort";
constexpr std::size_t kBatchCapacity = dsms::PacketBatch::kDefaultCapacity;

struct ModeResult {
  std::string mode;
  std::string pipeline;     // pipeline rows: "spsc-v2"
  std::size_t shards = 0;   // 0 = unsharded
  std::size_t threads = 1;
  double ns_per_packet = 0.0;
  dsms::ResultSet result;
  std::uint64_t tuples_aggregated = 0;
};

// L1D cache-line size as the kernel reports it; 64 when the sysconf key
// is unsupported (0/-1). Recorded per row: flat-table probe costs and
// the SIMD kernels' effective bandwidth are functions of the line size,
// so rows from machines with different lines must not be compared raw.
long CacheLineBytes() {
#ifdef _SC_LEVEL1_DCACHE_LINESIZE
  const long sz = sysconf(_SC_LEVEL1_DCACHE_LINESIZE);
  if (sz > 0) return sz;
#endif
  return 64;
}

std::unique_ptr<dsms::CompiledQuery> CompilePlan() {
  std::string error;
  dsms::CompiledQuery::Options opts;
  opts.two_level = true;
  opts.low_level_slots = 4096;
  auto plan = dsms::CompiledQuery::Compile(kQuery, &error, opts);
  if (plan == nullptr) {
    std::fprintf(stderr, "compile error: %s\n", error.c_str());
    std::abort();
  }
  return plan;
}

std::vector<dsms::PacketBatch> Rebatch(const std::vector<dsms::Packet>& trace) {
  std::vector<dsms::PacketBatch> batches;
  batches.reserve(trace.size() / kBatchCapacity + 1);
  dsms::PacketBatch batch(kBatchCapacity);
  for (const dsms::Packet& p : trace) {
    batch.Append(p);
    if (batch.full()) {
      batches.push_back(std::move(batch));
      batch = dsms::PacketBatch(kBatchCapacity);
    }
  }
  if (!batch.empty()) batches.push_back(std::move(batch));
  return batches;
}

ModeResult RunPerTuple(const dsms::CompiledQuery& plan,
                       const std::vector<dsms::Packet>& trace) {
  ModeResult r;
  r.mode = "per_tuple";
  auto exec = plan.NewExecution();
  Timer timer;
  for (const dsms::Packet& p : trace) exec->Consume(p);
  r.ns_per_packet = static_cast<double>(timer.ElapsedNanos()) /
                    static_cast<double>(trace.size());
  r.tuples_aggregated = exec->tuples_aggregated();
  r.result = exec->Finish();
  return r;
}

ModeResult RunBatched(const dsms::CompiledQuery& plan,
                      const std::vector<dsms::PacketBatch>& batches,
                      std::size_t n_packets) {
  ModeResult r;
  r.mode = "batched";
  auto exec = plan.NewExecution();
  Timer timer;
  for (const dsms::PacketBatch& b : batches) exec->Consume(b);
  r.ns_per_packet = static_cast<double>(timer.ElapsedNanos()) /
                    static_cast<double>(n_packets);
  r.tuples_aggregated = exec->tuples_aggregated();
  r.result = exec->Finish();
  return r;
}

ModeResult RunPipeline(const dsms::CompiledQuery& plan,
                       const std::vector<dsms::PacketBatch>& batches,
                       std::size_t n_packets, std::size_t num_shards,
                       std::size_t ring_capacity) {
  ModeResult r;
  r.mode = "pipeline";
  r.pipeline = "spsc-v2";
  r.shards = num_shards;
  r.threads = num_shards + 1;  // N shard workers + the router thread
  dsms::PipelinedQueryExecution::Options options;
  options.num_shards = num_shards;
  options.ring_capacity = ring_capacity;
  options.batch_capacity = kBatchCapacity;
  dsms::PipelinedQueryExecution pipeline(plan, options);
  // The timer covers routing + the full drain (Quiesce), so the number
  // is end-to-end ingest; the merge in Finish() stays off the clock.
  Timer timer;
  for (const dsms::PacketBatch& b : batches) pipeline.Consume(b);
  pipeline.Quiesce();
  r.ns_per_packet = static_cast<double>(timer.ElapsedNanos()) /
                    static_cast<double>(n_packets);
  r.tuples_aggregated = pipeline.tuples_aggregated();
  r.result = pipeline.Finish();
  return r;
}

// Cross-mode sanity: same groups, same integer-exact aggregate columns
// (count(*) col 1, sum(len) col 2; group key col 0). The batched mode is
// additionally required to match per-tuple on every column.
void CheckAgainstReference(const ModeResult& got, const ModeResult& want,
                           bool all_columns) {
  auto die = [&](const char* what) {
    std::fprintf(stderr, "RESULT MISMATCH (%s vs %s): %s\n", got.mode.c_str(),
                 want.mode.c_str(), what);
    std::abort();
  };
  if (got.tuples_aggregated != want.tuples_aggregated) die("tuple counts");
  if (got.result.rows.size() != want.result.rows.size()) die("row counts");
  const std::size_t cols = all_columns ? 4 : 3;
  for (std::size_t i = 0; i < got.result.rows.size(); ++i) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (!(got.result.rows[i][c] == want.result.rows[i][c])) die("cells");
    }
  }
}

void AppendJson(const std::string& path, const ModeResult& r,
                std::size_t n_packets, double speedup, bool quick) {
  std::ofstream out(path, std::ios::app);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for append\n", path.c_str());
    return;
  }
  // Pipeline rows carry the generation tag; unsharded rows
  // omit the field.
  char pipeline_field[48] = "";
  if (!r.pipeline.empty()) {
    std::snprintf(pipeline_field, sizeof(pipeline_field),
                  "\"pipeline\":\"%s\",", r.pipeline.c_str());
  }
  char line[512];
  std::snprintf(
      line, sizeof(line),
      "{\"bench\":\"ingest\",\"mode\":\"%s\",%s\"shards\":%zu,"
      "\"threads\":%zu,\"packets\":%zu,\"batch_capacity\":%zu,"
      "\"ns_per_packet\":%.2f,\"mpps\":%.3f,\"speedup_vs_per_tuple\":%.3f,"
      "\"nproc\":%u,\"cache_line\":%ld,\"simd\":\"%s\","
      "\"metrics\":\"%s\",\"quick\":%s}",
      r.mode.c_str(), pipeline_field, r.shards, r.threads, n_packets,
      r.mode == "per_tuple" ? std::size_t{1} : kBatchCapacity,
      r.ns_per_packet, 1e3 / r.ns_per_packet, speedup,
      std::thread::hardware_concurrency(), CacheLineBytes(),
      simd::ActiveArchName(), FWDECAY_METRICS_ENABLED ? "on" : "off",
      quick ? "true" : "false");
  out << line << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n_packets = 1000000;
  std::size_t max_shards = 8;
  std::size_t ring_capacity = 64;
  std::string json_path = "BENCH_ingest.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
      n_packets = 100000;
    } else if (arg.rfind("--packets=", 0) == 0) {
      n_packets = static_cast<std::size_t>(
          std::strtoull(arg.c_str() + 10, nullptr, 10));
    } else if (arg.rfind("--shards=", 0) == 0) {
      max_shards = static_cast<std::size_t>(
          std::strtoull(arg.c_str() + 9, nullptr, 10));
    } else if (arg.rfind("--ring=", 0) == 0) {
      ring_capacity = static_cast<std::size_t>(
          std::strtoull(arg.c_str() + 7, nullptr, 10));
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--packets=N] [--shards=N] "
                   "[--ring=SLOTS] [--json=PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (n_packets == 0 || max_shards == 0) {
    std::fprintf(stderr, "--packets and --shards must be positive\n");
    return 2;
  }
  if (ring_capacity < 2 || (ring_capacity & (ring_capacity - 1)) != 0) {
    std::fprintf(stderr, "--ring must be a power of two >= 2\n");
    return 2;
  }

  PrintHeader("Ingest throughput",
              "per-tuple vs batched vs pipeline (DESIGN.md §8, §14)");
  std::printf("trace: %zu flow-structured packets; query: %s\n", n_packets,
              kQuery);
  std::printf("hardware_concurrency: %u  cache_line: %ld  simd: %s  "
              "metrics: %s\n\n",
              std::thread::hardware_concurrency(), CacheLineBytes(),
              simd::ActiveArchName(),
              FWDECAY_METRICS_ENABLED ? "on" : "off");

  dsms::TraceConfig cfg;
  cfg.flow_structured = true;
  cfg.num_servers = 2000;
  cfg.ports_per_server = 8;
  cfg.target_active_flows = 512;
  cfg.mean_flow_len = 16.0;
  cfg.seed = 42;
  dsms::PacketGenerator gen(cfg);
  const std::vector<dsms::Packet> trace = gen.Generate(n_packets);
  const std::vector<dsms::PacketBatch> batches = Rebatch(trace);
  const auto plan = CompilePlan();

  std::vector<ModeResult> results;
  results.push_back(RunPerTuple(*plan, trace));
  results.push_back(RunBatched(*plan, batches, trace.size()));
  for (std::size_t shards = 1; shards <= max_shards; shards *= 2) {
    results.push_back(RunPipeline(*plan, batches, trace.size(), shards,
                                  ring_capacity));
  }

  const ModeResult& reference = results.front();
  CheckAgainstReference(results[1], reference, /*all_columns=*/true);
  for (std::size_t i = 2; i < results.size(); ++i) {
    // Pipeline two-level runs evict at different points, so only
    // the integer-exact columns are compared (avg differs in the last
    // ulp).
    CheckAgainstReference(results[i], reference, /*all_columns=*/false);
  }

  TablePrinter table(
      {"mode", "shards", "threads", "ns/packet", "Mpkt/s", "speedup"});
  for (const ModeResult& r : results) {
    const double speedup = reference.ns_per_packet / r.ns_per_packet;
    table.AddRow({r.mode, r.shards == 0 ? "-" : std::to_string(r.shards),
                  std::to_string(r.threads),
                  TablePrinter::Fmt(r.ns_per_packet, 1),
                  TablePrinter::Fmt(1e3 / r.ns_per_packet, 3),
                  TablePrinter::Fmt(speedup, 2) + "x"});
    AppendJson(json_path, r, trace.size(), speedup, quick);
  }
  table.Print(stdout);
  std::printf("\nresults appended to %s\n", json_path.c_str());
  return 0;
}
