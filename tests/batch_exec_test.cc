// Differential tests for the batched columnar ingest path (DESIGN.md §8)
// and the sharded pipeline (DESIGN.md §14): both must reproduce the
// per-tuple reference *bit for bit* — same result values (double bit
// patterns included), same counters, same shedding decisions — because
// the batch path reorders no FP operation and shard routing keeps every
// group's update sequence intact.

#include <sys/wait.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <compare>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/aggregates.h"
#include "core/forward_decay.h"
#include "dsms/batch.h"
#include "dsms/engine.h"
#include "dsms/expr.h"
#include "dsms/netgen.h"
#include "dsms/packet.h"
#include "dsms/trace_io.h"
#include "dsms/udafs.h"
#include "dsms/value.h"
#include "util/crc32c.h"

namespace fwdecay::dsms {
namespace {

TraceConfig FlowConfig(std::uint64_t seed = 42) {
  TraceConfig config;
  config.flow_structured = true;
  config.num_servers = 200;
  config.ports_per_server = 8;
  config.target_active_flows = 64;
  config.mean_flow_len = 12.0;
  config.seed = seed;
  return config;
}

std::vector<Packet> MakeTrace(std::size_t n, std::uint64_t seed = 42) {
  PacketGenerator gen(FlowConfig(seed));
  return gen.Generate(n);
}

std::vector<PacketBatch> Rebatch(const std::vector<Packet>& packets,
                                 std::size_t capacity) {
  std::vector<PacketBatch> batches;
  PacketBatch batch(capacity);
  for (const Packet& p : packets) {
    batch.Append(p);
    if (batch.full()) {
      batches.push_back(std::move(batch));
      batch = PacketBatch(capacity);
    }
  }
  if (!batch.empty()) batches.push_back(std::move(batch));
  return batches;
}

std::unique_ptr<CompiledQuery> MustCompile(const std::string& gsql,
                                           CompiledQuery::Options options) {
  RegisterPaperUdafs();
  std::string error;
  auto plan = CompiledQuery::Compile(gsql, &error, options);
  EXPECT_NE(plan, nullptr) << error;
  return plan;
}

// Bit-exact ResultSet comparison: same column names, same row count,
// same value types, and doubles compared by bit pattern (EXPECT_EQ on
// doubles would accept -0.0 == 0.0 and reject equal NaNs).
void ExpectBitIdentical(const ResultSet& got, const ResultSet& want) {
  ASSERT_EQ(got.columns, want.columns);
  ASSERT_EQ(got.rows.size(), want.rows.size());
  for (std::size_t r = 0; r < got.rows.size(); ++r) {
    ASSERT_EQ(got.rows[r].size(), want.rows[r].size()) << "row " << r;
    for (std::size_t c = 0; c < got.rows[r].size(); ++c) {
      const Value& a = got.rows[r][c];
      const Value& b = want.rows[r][c];
      ASSERT_EQ(a.is_double(), b.is_double()) << "row " << r << " col " << c;
      if (a.is_double()) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.AsDouble()),
                  std::bit_cast<std::uint64_t>(b.AsDouble()))
            << "row " << r << " col " << c << ": " << a.ToString() << " vs "
            << b.ToString();
      } else {
        EXPECT_TRUE(a == b) << "row " << r << " col " << c << ": "
                            << a.ToString() << " vs " << b.ToString();
      }
    }
  }
}

// Runs the same trace through the per-tuple and batched entry points of
// two independent executions and requires bit-identical results and
// counters.
void RunBatchDifferential(const std::string& gsql,
                          CompiledQuery::Options options,
                          const OverloadPolicy* policy,
                          std::size_t batch_capacity = 256,
                          std::size_t n_packets = 20000) {
  auto plan = MustCompile(gsql, options);
  ASSERT_NE(plan, nullptr);
  const std::vector<Packet> trace = MakeTrace(n_packets);

  auto per_tuple = plan->NewExecution();
  auto batched = plan->NewExecution();
  if (policy != nullptr) {
    per_tuple->SetOverloadPolicy(*policy);
    batched->SetOverloadPolicy(*policy);
  }

  for (const Packet& p : trace) per_tuple->Consume(p);
  for (const PacketBatch& b : Rebatch(trace, batch_capacity)) {
    batched->Consume(b);
  }

  EXPECT_EQ(batched->packets_consumed(), per_tuple->packets_consumed());
  EXPECT_EQ(batched->tuples_aggregated(), per_tuple->tuples_aggregated());
  EXPECT_EQ(batched->low_level_evictions(), per_tuple->low_level_evictions());
  EXPECT_EQ(batched->groups_shed(), per_tuple->groups_shed());
  EXPECT_EQ(batched->tuples_shed(), per_tuple->tuples_shed());
  batched->CheckInvariants();

  ExpectBitIdentical(batched->Finish(), per_tuple->Finish());
}

// --- PacketBatch basics -----------------------------------------------------

TEST(PacketBatchTest, AppendGetClearRoundTrip) {
  const std::vector<Packet> trace = MakeTrace(10);
  PacketBatch batch(8);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(batch.Append(trace[i]));
  }
  EXPECT_TRUE(batch.full());
  EXPECT_FALSE(batch.Append(trace[8]));  // full: rejected, unchanged
  ASSERT_EQ(batch.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    const Packet p = batch.Get(i);
    EXPECT_EQ(p.time, trace[i].time);
    EXPECT_EQ(p.src_ip, trace[i].src_ip);
    EXPECT_EQ(p.dest_ip, trace[i].dest_ip);
    EXPECT_EQ(p.src_port, trace[i].src_port);
    EXPECT_EQ(p.dest_port, trace[i].dest_port);
    EXPECT_EQ(p.len, trace[i].len);
    EXPECT_EQ(p.protocol, trace[i].protocol);
  }
  batch.Clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.capacity(), 8u);
  EXPECT_TRUE(batch.Append(trace[9]));
  EXPECT_EQ(batch.size(), 1u);
}

TEST(PacketBatchTest, ColumnsMirrorRows) {
  const std::vector<Packet> trace = MakeTrace(64);
  PacketBatch batch(64);
  for (const Packet& p : trace) batch.Append(p);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(batch.time()[i], trace[i].time);
    EXPECT_EQ(batch.dest_ip()[i], trace[i].dest_ip);
    EXPECT_EQ(batch.dest_port()[i], trace[i].dest_port);
    EXPECT_EQ(batch.len()[i], trace[i].len);
    EXPECT_EQ(batch.protocol()[i], trace[i].protocol);
  }
}

// --- Batched expression evaluation ------------------------------------------

TEST(BatchEvalTest, ExprBatchMatchesPerTuple) {
  const std::vector<Packet> trace = MakeTrace(512);
  PacketBatch batch(512);
  for (const Packet& p : trace) batch.Append(p);

  std::string error;
  ParseResult parsed = ParseQuery(
      "select destPort from PKT where "
      "len * 2 + srcPort % 7 - floor(sqrt(len)) > 0 group by destPort");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const Expr& where = *parsed.query->where;

  std::vector<std::uint32_t> sel(trace.size());
  for (std::size_t i = 0; i < sel.size(); ++i) {
    sel[i] = static_cast<std::uint32_t>(i);
  }
  BatchEvalScratch scratch;
  ValueColumn out;
  EvalExprBatch(where, batch, sel.data(), sel.size(), &scratch, &out);
  ASSERT_EQ(out.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Value expect = EvalExpr(where, trace[i]);
    ASSERT_EQ(out[i].is_double(), expect.is_double()) << "row " << i;
    EXPECT_TRUE(out[i] == expect) << "row " << i;
  }
}

TEST(BatchEvalTest, PredicateShortCircuitGuardsDivision) {
  // `x > 0 and K/x > c` must not evaluate the division on rows where the
  // guard already failed — Value division CHECK-fails on a zero integer
  // divisor, so an eager columnar AND would abort. Build packets where
  // srcPort is often zero.
  PacketBatch batch(64);
  std::vector<Packet> rows;
  for (std::size_t i = 0; i < 64; ++i) {
    Packet p;
    p.time = static_cast<double>(i);
    p.src_port = static_cast<std::uint16_t>(i % 4 == 0 ? 0 : i);
    p.len = 100;
    p.protocol = kProtoTcp;
    rows.push_back(p);
    batch.Append(p);
  }
  ParseResult parsed = ParseQuery(
      "select srcPort from PKT where srcPort > 0 and 1000 / srcPort < 300 "
      "group by srcPort");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const Expr& where = *parsed.query->where;

  std::vector<std::uint32_t> sel(rows.size());
  for (std::size_t i = 0; i < sel.size(); ++i) {
    sel[i] = static_cast<std::uint32_t>(i);
  }
  BatchEvalScratch scratch;
  const std::size_t n =
      EvalPredicateBatch(where, batch, sel.data(), sel.size(), &scratch);

  std::vector<std::uint32_t> expect;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (EvalPredicate(where, rows[i])) {
      expect.push_back(static_cast<std::uint32_t>(i));
    }
  }
  ASSERT_EQ(n, expect.size());
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(sel[i], expect[i]);
}

TEST(BatchEvalTest, PredicateOrPreservesShortCircuitAndOrder) {
  // `srcPort = 0 or 1000 / srcPort > 9` — the rhs may only run on rows
  // the lhs rejected (division by zero is CHECK-guarded), and the
  // surviving selection must stay in ascending row order.
  PacketBatch batch(64);
  std::vector<Packet> rows;
  for (std::size_t i = 0; i < 64; ++i) {
    Packet p;
    p.time = static_cast<double>(i);
    p.src_port = static_cast<std::uint16_t>(i % 3 == 0 ? 0 : i * 7);
    p.protocol = kProtoTcp;
    rows.push_back(p);
    batch.Append(p);
  }
  ParseResult parsed = ParseQuery(
      "select srcPort from PKT where srcPort = 0 or 1000 / srcPort > 9 "
      "group by srcPort");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const Expr& where = *parsed.query->where;

  std::vector<std::uint32_t> sel(rows.size());
  for (std::size_t i = 0; i < sel.size(); ++i) {
    sel[i] = static_cast<std::uint32_t>(i);
  }
  BatchEvalScratch scratch;
  const std::size_t n =
      EvalPredicateBatch(where, batch, sel.data(), sel.size(), &scratch);

  std::vector<std::uint32_t> expect;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (EvalPredicate(where, rows[i])) {
      expect.push_back(static_cast<std::uint32_t>(i));
    }
  }
  ASSERT_EQ(n, expect.size());
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(sel[i], expect[i]);
}

// --- Batched vs per-tuple engine differentials ------------------------------

constexpr char kBuiltinsQuery[] =
    "select destPort, count(*), sum(len), avg(len), min(len), max(len) "
    "from TCP group by destPort";

// avg() and expweight() produce genuinely fractional doubles, so these
// queries exercise the FP-order half of the bit-exactness contract.
constexpr char kDecayedQuery[] =
    "select destPort, sum(len * expweight(time, 60, 0.1)), "
    "avg(len), fdmax(len, expweight(time, 60, 0.1)) "
    "from TCP where len > 60 group by destPort";

constexpr char kUdafQuery[] =
    "select destPort, fdhh(destIP, expweight(time, 60, 0.1), 0.05, 0.02), "
    "fdquantile(len, expweight(time, 60, 0.1), 0.5), "
    "fddistinct(srcIP, expweight(time, 60, 0.1)) "
    "from TCP group by destPort";

TEST(BatchDifferentialTest, OneLevelBuiltins) {
  RunBatchDifferential(kBuiltinsQuery, {}, nullptr);
}

TEST(BatchDifferentialTest, TwoLevelBuiltins) {
  CompiledQuery::Options options;
  options.two_level = true;
  options.low_level_slots = 16;  // tiny: force heavy eviction traffic
  RunBatchDifferential(kBuiltinsQuery, options, nullptr);
}

TEST(BatchDifferentialTest, OneLevelDecayedDoubles) {
  RunBatchDifferential(kDecayedQuery, {}, nullptr);
}

TEST(BatchDifferentialTest, TwoLevelDecayedDoubles) {
  CompiledQuery::Options options;
  options.two_level = true;
  options.low_level_slots = 32;
  RunBatchDifferential(kDecayedQuery, options, nullptr);
}

TEST(BatchDifferentialTest, OneLevelUdafs) {
  RunBatchDifferential(kUdafQuery, {}, nullptr);
}

TEST(BatchDifferentialTest, TwoLevelUdafs) {
  CompiledQuery::Options options;
  options.two_level = true;
  options.low_level_slots = 32;
  RunBatchDifferential(kUdafQuery, options, nullptr);
}

// FDQUANTILE saturates values outside its q-digest universe into
// [0, 2^bits - 1]: negative lengths, 32-bit addresses against the
// default 16-bit universe, and both sides of a 4-bit one.
constexpr char kFdquantileOutOfUniverseQuery[] =
    "select destPort, fdquantile(len - 1000, 1, 0.5), "
    "fdquantile(srcIP, expweight(time, 60, 0.1), 0.9), "
    "fdquantile(len - 500, 1, 0.5, 4) "
    "from TCP group by destPort";

TEST(BatchDifferentialTest, FdquantileSaturatesOutOfUniverseValues) {
  RunBatchDifferential(kFdquantileOutOfUniverseQuery, {}, nullptr);
  CompiledQuery::Options options;
  options.two_level = true;
  options.low_level_slots = 32;
  RunBatchDifferential(kFdquantileOutOfUniverseQuery, options, nullptr);

  auto plan = MustCompile(
      "select fdquantile(len - 100000, 1, 0.5), "
      "fdquantile(len + 100000, 1, 0.5, 4) from TCP",
      {});
  ASSERT_NE(plan, nullptr);
  auto exec = plan->NewExecution();
  for (const PacketBatch& b : Rebatch(MakeTrace(2000), 256)) exec->Consume(b);
  const ResultSet rs = exec->Finish();
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].AsInt(), 0);   // every value below the universe
  EXPECT_EQ(rs.rows[0][1].AsInt(), 15);  // every value above 2^4 - 1
}

TEST(BatchDifferentialTest, OneLevelWithOverloadPolicy) {
  OverloadPolicy policy;
  policy.max_groups = 40;  // well below the trace's group cardinality
  policy.decay_alpha = 0.05;
  RunBatchDifferential(kDecayedQuery, {}, &policy);
}

TEST(BatchDifferentialTest, TwoLevelWithOverloadPolicy) {
  CompiledQuery::Options options;
  options.two_level = true;
  options.low_level_slots = 16;
  OverloadPolicy policy;
  policy.max_groups = 40;
  policy.decay_alpha = 0.05;
  RunBatchDifferential(kDecayedQuery, options, &policy);
}

// A composite all-int64 key (the paper's (tb, destIP, destPort) shape):
// hashed, run-scanned and probed as raw int64 columns.
constexpr char kCompositeKeyQuery[] =
    "select tb, destIP, destPort, count(*), sum(len * expweight(time, 60, "
    "0.1)) from TCP group by time/10 as tb, destIP, destPort";

// A key mixing an int and a double column takes the per-row RowRef path.
constexpr char kMixedKeyQuery[] =
    "select destPort, half, count(*), sum(len) from TCP "
    "group by destPort, len * 0.5 as half";

TEST(BatchDifferentialTest, CompositeIntKeys) {
  RunBatchDifferential(kCompositeKeyQuery, {}, nullptr);
  CompiledQuery::Options options;
  options.two_level = true;
  options.low_level_slots = 16;
  RunBatchDifferential(kCompositeKeyQuery, options, nullptr);
  OverloadPolicy policy;
  policy.max_groups = 40;
  policy.decay_alpha = 0.05;
  RunBatchDifferential(kCompositeKeyQuery, {}, &policy);
}

TEST(BatchDifferentialTest, MixedIntDoubleKeys) {
  RunBatchDifferential(kMixedKeyQuery, {}, nullptr);
  CompiledQuery::Options options;
  options.two_level = true;
  options.low_level_slots = 16;
  RunBatchDifferential(kMixedKeyQuery, options, nullptr);
}

// Double key columns are grouped, hashed and ordered by bit pattern
// (DESIGN.md §13.1): NaNs with one bit pattern are one group, -0.0 and
// +0.0 are two, and groups sort in IEEE totalOrder (-NaN < -inf < ... <
// -0.0 < +0.0 < ... < +inf < +NaN). ln of a negative number is NaN and
// ln(0) is -inf, so the first and third keys are mostly NaN; the second
// is -0.0 for srcPort < 30000 and +0.0 otherwise.
const char* const kDoubleKeyQueries[] = {
    "select k, count(*), sum(len) from TCP group by ln(srcPort - 30000) as k",
    "select k, count(*), sum(len) from TCP "
    "group by (0.0 - (len - len)) * (srcPort - 30000) as k",
    "select k, count(*), sum(len) from TCP group by ln(destPort - 1000) as k",
};

// `rs` (columns k, count, sum) has one row per distinct bit pattern of
// the query's key over the trace's TCP packets, with that pattern's
// packet count, in totalOrder.
void ExpectOneGroupPerKeyBits(const std::string& gsql,
                              const std::vector<Packet>& trace,
                              const ResultSet& rs) {
  ParseResult parsed = ParseQuery(gsql);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const Expr& key = *parsed.query->group_by[0].expr;
  std::map<std::uint64_t, std::int64_t> want;  // key bits -> packets
  for (const Packet& p : trace) {
    if (p.protocol != kProtoTcp) continue;
    ++want[std::bit_cast<std::uint64_t>(EvalExpr(key, p).AsDouble())];
  }
  ASSERT_EQ(rs.rows.size(), want.size()) << gsql;
  for (std::size_t r = 0; r < rs.rows.size(); ++r) {
    const double k = rs.rows[r][0].AsDouble();
    const auto it = want.find(std::bit_cast<std::uint64_t>(k));
    ASSERT_NE(it, want.end()) << gsql << ": row " << r;
    EXPECT_EQ(rs.rows[r][1].AsInt(), it->second) << gsql << ": row " << r;
    if (r > 0) {
      EXPECT_TRUE(std::strong_order(rs.rows[r - 1][0].AsDouble(), k) < 0)
          << gsql << ": rows " << r - 1 << ", " << r << " out of order";
    }
  }
}

TEST(BatchDifferentialTest, DoubleKeysGroupByBitPattern) {
  CompiledQuery::Options two_level;
  two_level.two_level = true;
  two_level.low_level_slots = 16;
  const std::vector<Packet> trace = MakeTrace(20000);
  for (const char* gsql : kDoubleKeyQueries) {
    RunBatchDifferential(gsql, {}, nullptr);
    RunBatchDifferential(gsql, two_level, nullptr);
    for (const CompiledQuery::Options& options : {CompiledQuery::Options{},
                                                  two_level}) {
      auto plan = MustCompile(gsql, options);
      ASSERT_NE(plan, nullptr);
      auto exec = plan->NewExecution();
      for (const PacketBatch& b : Rebatch(trace, 256)) exec->Consume(b);
      exec->CheckInvariants();
      ExpectOneGroupPerKeyBits(gsql, trace, exec->Finish());
    }
  }

  // The named cases: one NaN group of many packets, and -0.0 before
  // +0.0 as two groups.
  auto nan_plan = MustCompile(kDoubleKeyQueries[0], {});
  ASSERT_NE(nan_plan, nullptr);
  auto nan_exec = nan_plan->NewExecution();
  for (const PacketBatch& b : Rebatch(trace, 256)) nan_exec->Consume(b);
  // std::log returns one NaN bit pattern for every negative argument.
  std::size_t nan_rows = 0;
  std::int64_t nan_packets = 0;
  for (const auto& row : nan_exec->Finish().rows) {
    if (!std::isnan(row[0].AsDouble())) continue;
    ++nan_rows;
    nan_packets += row[1].AsInt();
  }
  EXPECT_EQ(nan_rows, 1u);
  EXPECT_GT(nan_packets, 1);

  auto zero_plan = MustCompile(kDoubleKeyQueries[1], {});
  ASSERT_NE(zero_plan, nullptr);
  auto zero_exec = zero_plan->NewExecution();
  for (const PacketBatch& b : Rebatch(trace, 256)) zero_exec->Consume(b);
  const ResultSet zero_rs = zero_exec->Finish();
  ASSERT_EQ(zero_rs.rows.size(), 2u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(zero_rs.rows[0][0].AsDouble()),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(zero_rs.rows[1][0].AsDouble()),
            std::bit_cast<std::uint64_t>(0.0));
}

TEST(BatchDifferentialTest, OddBatchSizesAndPartialTails) {
  // Batch boundaries must be invisible: capacity 1 (degenerate), a
  // prime, and a capacity larger than the trace all agree.
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{37},
                                     std::size_t{50000}}) {
    RunBatchDifferential(kBuiltinsQuery, {}, nullptr, capacity,
                         /*n_packets=*/5000);
  }
}

// --- Sharded pipeline -------------------------------------------------------

// Runs `batches` through a pipeline of `shards` workers and quiesces it,
// so the shard-summed stats are readable.
std::unique_ptr<PipelinedQueryExecution> RunPipeline(
    const CompiledQuery& plan, std::size_t shards,
    const std::vector<PacketBatch>& batches,
    const OverloadPolicy* policy = nullptr) {
  PipelinedQueryExecution::Options options;
  options.num_shards = shards;
  auto pipeline = std::make_unique<PipelinedQueryExecution>(plan, options);
  if (policy != nullptr) pipeline->SetOverloadPolicy(*policy);
  for (const PacketBatch& b : batches) pipeline->Consume(b);
  pipeline->Quiesce();
  return pipeline;
}

// One-level sharding is bit-exact even for fractional doubles: every
// group lives wholly in one shard and receives its updates in stream
// order, and the Finish() merge moves disjoint groups without touching
// their accumulators.
TEST(ShardedDifferentialTest, OneLevelBitIdenticalAcrossShardCounts) {
  auto plan = MustCompile(kDecayedQuery, {});
  ASSERT_NE(plan, nullptr);
  const std::vector<Packet> trace = MakeTrace(20000);
  const std::vector<PacketBatch> batches = Rebatch(trace, 256);

  auto reference = plan->NewExecution();
  for (const Packet& p : trace) reference->Consume(p);
  const ResultSet want = reference->Finish();

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}}) {
    auto pipeline = RunPipeline(*plan, shards, batches);
    EXPECT_EQ(pipeline->packets_consumed(), trace.size());
    pipeline->CheckInvariants();
    EXPECT_EQ(pipeline->tuples_aggregated(), reference->tuples_aggregated());
    ExpectBitIdentical(pipeline->Finish(), want);
  }
}

// Two-level sharding splits the low-level table per shard, so eviction
// (partial-group merge) points differ from the single-table run. For
// integer-exact aggregates every addition is exact, so the results are
// still identical; fractional doubles would differ in the last ulp and
// are deliberately excluded (DESIGN.md §14.4).
TEST(ShardedDifferentialTest, TwoLevelIntegerExactAggregates) {
  CompiledQuery::Options options;
  options.two_level = true;
  options.low_level_slots = 16;
  auto plan = MustCompile(kBuiltinsQuery, options);
  ASSERT_NE(plan, nullptr);
  const std::vector<Packet> trace = MakeTrace(20000);

  auto reference = plan->NewExecution();
  for (const Packet& p : trace) reference->Consume(p);
  const ResultSet want = reference->Finish();

  auto pipeline = RunPipeline(*plan, 4, Rebatch(trace, 256));
  pipeline->CheckInvariants();
  ExpectBitIdentical(pipeline->Finish(), want);
}

// A single shard is the single-thread engine behind a router: with a
// shedding policy installed it must make byte-for-byte the same
// decisions (including shedding during the Finish() flush).
TEST(ShardedDifferentialTest, SingleShardWithPolicyMatchesPerTuple) {
  CompiledQuery::Options options;
  options.two_level = true;
  options.low_level_slots = 16;
  auto plan = MustCompile(kDecayedQuery, options);
  ASSERT_NE(plan, nullptr);
  OverloadPolicy policy;
  policy.max_groups = 40;
  policy.decay_alpha = 0.05;
  const std::vector<Packet> trace = MakeTrace(20000);

  auto reference = plan->NewExecution();
  reference->SetOverloadPolicy(policy);
  for (const Packet& p : trace) reference->Consume(p);

  auto pipeline = RunPipeline(*plan, 1, Rebatch(trace, 256), &policy);
  EXPECT_EQ(pipeline->tuples_aggregated(), reference->tuples_aggregated());
  EXPECT_EQ(pipeline->low_level_evictions(),
            reference->low_level_evictions());
  EXPECT_EQ(pipeline->groups_shed(), reference->groups_shed());
  EXPECT_EQ(pipeline->tuples_shed(), reference->tuples_shed());
  EXPECT_EQ(pipeline->GroupCount(), reference->GroupCount());
  ExpectBitIdentical(pipeline->Finish(), reference->Finish());
}

// With N shards each shard bounds its own table, so the documented
// contract is a bound of N * max_groups on the retained groups — not
// the single-execution bound. CheckInvariants() audits the per-shard
// bound; the total is checked here.
TEST(ShardedDifferentialTest, PerShardSheddingBound) {
  // Group by destIP (200 distinct servers) so the 10-group bound bites.
  auto plan = MustCompile(
      "select destIP, count(*), sum(len) from TCP group by destIP", {});
  ASSERT_NE(plan, nullptr);
  OverloadPolicy policy;
  policy.max_groups = 10;
  policy.decay_alpha = 0.05;

  auto pipeline =
      RunPipeline(*plan, 4, Rebatch(MakeTrace(20000), 256), &policy);
  pipeline->CheckInvariants();  // audits <= max_groups per shard
  EXPECT_LE(pipeline->GroupCount(), 4 * policy.max_groups);
  EXPECT_GT(pipeline->groups_shed(), 0u);
}

// The pipeline's k-way merge of shard-sorted groups is the single-thread
// sort only under a strict total order on keys: NaN and signed-zero
// double keys included.
TEST(ShardedDifferentialTest, DoubleKeysBitIdenticalAcrossShardCounts) {
  const std::vector<Packet> trace = MakeTrace(20000);
  const std::vector<PacketBatch> batches = Rebatch(trace, 256);
  for (const char* gsql : kDoubleKeyQueries) {
    auto plan = MustCompile(gsql, {});
    ASSERT_NE(plan, nullptr);
    auto reference = plan->NewExecution();
    for (const Packet& p : trace) reference->Consume(p);
    const ResultSet want = reference->Finish();
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                     std::size_t{3}}) {
      SCOPED_TRACE(std::string(gsql) + " at " + std::to_string(shards) +
                   " shards");
      auto pipeline = RunPipeline(*plan, shards, batches);
      pipeline->CheckInvariants();
      ExpectBitIdentical(pipeline->Finish(), want);
    }
  }
}

// --- Segment exactness ------------------------------------------------------
//
// Batched ingest first resolves every row of a batch to its group, then
// updates aggregate states a segment at a time. A segment closes before
// every low-level eviction and every shed, so a merged or shed state
// holds exactly the rows the per-tuple loop had given it when the
// eviction or shed happened. These cases put evictions and sheds in the
// middle of batches. The per-tuple reference cannot go wrong this way —
// a one-row batch never has rows pending at an eviction or shed.

// Bit-exact text of a result plus the counters that record evictions
// and sheds: value type tags, doubles as hex floats.
std::string Render(const ResultSet& rs, std::uint64_t evictions,
                   std::uint64_t groups_shed, std::uint64_t tuples_shed) {
  std::string out = "evictions=" + std::to_string(evictions) +
                    " shed=" + std::to_string(groups_shed) + "/" +
                    std::to_string(tuples_shed) + "\n";
  for (const auto& row : rs.rows) {
    for (const Value& v : row) {
      char buf[48];
      if (v.is_double()) {
        std::snprintf(buf, sizeof(buf), "d:%a|", v.AsDouble());
        out += buf;
      } else {
        out += (v.is_int() ? "i:" : "s:") + v.ToString() + "|";
      }
    }
    out += "\n";
  }
  return out;
}

// Runs one execution of `plan` over `trace` — per tuple when
// `batch_capacity` is 0, else in batches of that size — and renders it.
std::string RunAndRender(const CompiledQuery& plan,
                         const OverloadPolicy* policy,
                         const std::vector<Packet>& trace,
                         std::size_t batch_capacity) {
  auto exec = plan.NewExecution();
  if (policy != nullptr) exec->SetOverloadPolicy(*policy);
  if (batch_capacity == 0) {
    for (const Packet& p : trace) exec->Consume(p);
  } else {
    for (const PacketBatch& b : Rebatch(trace, batch_capacity)) {
      exec->Consume(b);
    }
  }
  exec->CheckInvariants();
  const std::uint64_t evictions = exec->low_level_evictions();
  const std::uint64_t groups_shed = exec->groups_shed();
  const std::uint64_t tuples_shed = exec->tuples_shed();
  return Render(exec->Finish(), evictions, groups_shed, tuples_shed);
}

// Runs `fn` in a forked child that starts from this process's exact
// state and returns the string it wrote. Sampler UDAFs seed each new
// state from a process-wide counter, so a reference run in this process
// would leave a later run with different seeds; a child run from the
// same point draws the same ones.
std::string RunInChild(const std::function<std::string()>& fn) {
  int fds[2];
  if (pipe(fds) != 0) {
    ADD_FAILURE() << "pipe() failed";
    return "";
  }
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    const std::string out = fn();
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t w = write(fds[1], out.data() + off, out.size() - off);
      if (w <= 0) _exit(1);
      off += static_cast<std::size_t>(w);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string out;
  char buf[4096];
  ssize_t r = 0;
  while ((r = read(fds[0], buf, sizeof(buf))) > 0) {
    out.append(buf, static_cast<std::size_t>(r));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  return out;
}

// (destIP, destPort) has hundreds of keys, so two low-level slots
// collide on nearly every run and evict inside every batch.
constexpr char kWideKeyQuery[] =
    "select destIP, destPort, count(*), sum(len * expweight(time, 60, 0.1)), "
    "avg(len), fdmax(len, expweight(time, 60, 0.1)), "
    "fdhh(srcIP, expweight(time, 60, 0.1), 0.1, 0.05) "
    "from TCP group by destIP, destPort";

TEST(SegmentExactnessTest, TwoLevelTwoSlotsWithCollidingKeys) {
  CompiledQuery::Options options;
  options.two_level = true;
  options.low_level_slots = 2;
  auto plan = MustCompile(kWideKeyQuery, options);
  ASSERT_NE(plan, nullptr);
  const std::vector<Packet> trace = MakeTrace(20000);
  const std::string want = RunAndRender(*plan, nullptr, trace, 0);
  EXPECT_EQ(want.rfind("evictions=0 ", 0), std::string::npos);
  for (const std::size_t capacity : {std::size_t{64}, std::size_t{1024}}) {
    EXPECT_EQ(RunAndRender(*plan, nullptr, trace, capacity), want)
        << "batch capacity " << capacity;
  }
}

TEST(SegmentExactnessTest, OneLevelShedsMidBatch) {
  auto plan = MustCompile(kWideKeyQuery, {});
  ASSERT_NE(plan, nullptr);
  OverloadPolicy policy;
  policy.max_groups = 24;
  policy.decay_alpha = 0.05;
  const std::vector<Packet> trace = MakeTrace(20000);
  const std::string want = RunAndRender(*plan, &policy, trace, 0);
  EXPECT_EQ(want.find(" shed=0/"), std::string::npos);
  for (const std::size_t capacity : {std::size_t{64}, std::size_t{1024}}) {
    EXPECT_EQ(RunAndRender(*plan, &policy, trace, capacity), want)
        << "batch capacity " << capacity;
  }
}

// Samplers draw from their RNG per row and seed each state at creation,
// so a row applied to the wrong state or after the wrong eviction changes
// both the sample and every later seed.
TEST(SegmentExactnessTest, SamplersAcrossSegmentBoundaries) {
  const char* query =
      "select destIP, PRISAMP(srcIP, len * expweight(time, 60, 0.1), 4), "
      "RESSAMP(len, 4), count(*) from TCP group by destIP";
  CompiledQuery::Options two_level;
  two_level.two_level = true;
  two_level.low_level_slots = 2;
  auto plan_2l = MustCompile(query, two_level);
  auto plan_1l = MustCompile(query, {});
  ASSERT_NE(plan_2l, nullptr);
  ASSERT_NE(plan_1l, nullptr);
  OverloadPolicy policy;
  policy.max_groups = 24;
  policy.decay_alpha = 0.05;
  const std::vector<Packet> trace = MakeTrace(20000);
  struct Case {
    const CompiledQuery* plan;
    const OverloadPolicy* policy;
  };
  for (const Case& c : {Case{plan_2l.get(), nullptr},
                        Case{plan_1l.get(), &policy}}) {
    const std::string want = RunInChild(
        [&] { return RunAndRender(*c.plan, c.policy, trace, 0); });
    EXPECT_TRUE(want.rfind("evictions=0 shed=0/", 0) == std::string::npos);
    EXPECT_EQ(RunAndRender(*c.plan, c.policy, trace, 1024), want)
        << (c.policy != nullptr ? "one-level, shedding" : "two-level");
  }
}

// The pipeline k-way merges the shards' key-sorted groups, then applies
// HAVING, ORDER BY and LIMIT once — the single-thread order exactly.
TEST(SegmentExactnessTest, PipelineMatchesSingleThreadWithHavingOrderLimit) {
  auto plan = MustCompile(
      "select destIP, destPort, count(*) as n, "
      "sum(len * expweight(time, 60, 0.1)) as w from TCP "
      "group by destIP, destPort having count(*) > 2 "
      "order by w desc, n limit 40",
      {});
  ASSERT_NE(plan, nullptr);
  const std::vector<Packet> trace = MakeTrace(20000);
  const std::vector<PacketBatch> batches = Rebatch(trace, 256);
  auto reference = plan->NewExecution();
  for (const Packet& p : trace) reference->Consume(p);
  const ResultSet want = reference->Finish();
  ASSERT_EQ(want.rows.size(), 40u);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}}) {
    ExpectBitIdentical(RunPipeline(*plan, shards, batches)->Finish(), want);
  }
  // One shard under a shedding policy sheds mid-batch exactly as the
  // single-thread reference does.
  OverloadPolicy policy;
  policy.max_groups = 24;
  policy.decay_alpha = 0.05;
  auto shed_reference = plan->NewExecution();
  shed_reference->SetOverloadPolicy(policy);
  for (const Packet& p : trace) shed_reference->Consume(p);
  auto pipeline = RunPipeline(*plan, 1, batches, &policy);
  EXPECT_GT(pipeline->groups_shed(), 0u);
  EXPECT_EQ(pipeline->groups_shed(), shed_reference->groups_shed());
  EXPECT_EQ(pipeline->tuples_shed(), shed_reference->tuples_shed());
  ExpectBitIdentical(pipeline->Finish(), shed_reference->Finish());
}

// FWDSNAP1 images of the run below, recorded from the engine that kept
// one heap state per group and updated it a group-run at a time.
constexpr std::size_t kPinnedMidBytes = 14661;
constexpr std::uint32_t kPinnedMidCrc = 0xddd20d3du;
constexpr std::uint32_t kPinnedEndCrc = 0xdae72ebdu;

// A checkpoint taken between batches of a run that evicts and sheds
// mid-batch, restored and continued: the FWDSNAP1 images, pinned by
// CRC32C, are those of the engine that applied rows one group-run at a
// time, and the restored run ends byte-identical to the uninterrupted one.
TEST(SegmentExactnessTest, CheckpointRestoreBytesArePinned) {
  CompiledQuery::Options options;
  options.two_level = true;
  options.low_level_slots = 4;
  auto plan = MustCompile(kWideKeyQuery, options);
  ASSERT_NE(plan, nullptr);
  OverloadPolicy policy;
  policy.max_groups = 48;
  policy.decay_alpha = 0.05;
  const std::vector<PacketBatch> batches = Rebatch(MakeTrace(20000), 512);
  const std::size_t cut = batches.size() / 2;

  auto uninterrupted = plan->NewExecution();
  uninterrupted->SetOverloadPolicy(policy);
  for (std::size_t i = 0; i < cut; ++i) uninterrupted->Consume(batches[i]);
  std::vector<std::uint8_t> mid;
  std::string error;
  ASSERT_TRUE(uninterrupted->CheckpointBytes(&mid, &error)) << error;
  EXPECT_GT(uninterrupted->low_level_evictions(), 0u);
  EXPECT_GT(uninterrupted->groups_shed(), 0u);
  EXPECT_EQ(mid.size(), kPinnedMidBytes);
  EXPECT_EQ(Crc32c(mid.data(), mid.size()), kPinnedMidCrc);

  auto restored = plan->NewExecution();
  ASSERT_TRUE(restored->RestoreBytes(mid.data(), mid.size(), &error)) << error;
  for (std::size_t i = cut; i < batches.size(); ++i) {
    uninterrupted->Consume(batches[i]);
    restored->Consume(batches[i]);
  }
  std::vector<std::uint8_t> end_a;
  std::vector<std::uint8_t> end_b;
  ASSERT_TRUE(uninterrupted->CheckpointBytes(&end_a, &error)) << error;
  ASSERT_TRUE(restored->CheckpointBytes(&end_b, &error)) << error;
  EXPECT_EQ(end_a, end_b);
  EXPECT_EQ(Crc32c(end_a.data(), end_a.size()), kPinnedEndCrc);
  ExpectBitIdentical(restored->Finish(), uninterrupted->Finish());
}

// --- Batch producers --------------------------------------------------------

TEST(NetgenBatchTest, GenerateBatchMatchesGenerate) {
  PacketGenerator row_gen(FlowConfig());
  PacketGenerator batch_gen(FlowConfig());
  const std::vector<Packet> rows = row_gen.Generate(1000);
  const PacketBatch batch = batch_gen.GenerateBatch(1000);
  ASSERT_EQ(batch.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Packet p = batch.Get(i);
    EXPECT_EQ(p.time, rows[i].time);
    EXPECT_EQ(p.dest_ip, rows[i].dest_ip);
    EXPECT_EQ(p.len, rows[i].len);
  }
}

TEST(NetgenBatchTest, NextBatchRespectsCapacityAndBudget) {
  PacketGenerator gen(FlowConfig());
  PacketBatch batch(8);
  EXPECT_EQ(gen.NextBatch(&batch, 100), 8u);  // bounded by capacity
  EXPECT_TRUE(batch.full());
  batch.Clear();
  EXPECT_EQ(gen.NextBatch(&batch, 3), 3u);  // bounded by budget
  EXPECT_EQ(batch.size(), 3u);
}

TEST(TraceIoBatchTest, BatchedWriteReadRoundTrip) {
  const std::vector<Packet> rows = MakeTrace(1000);
  const std::vector<PacketBatch> batches = Rebatch(rows, 128);
  const std::string path = testing::TempDir() + "/batch_trace.bin";
  std::string error;
  ASSERT_TRUE(WriteTrace(path, batches, &error)) << error;

  // The batched writer is byte-compatible with the row reader...
  auto read_rows = ReadTrace(path, &error);
  ASSERT_TRUE(read_rows.has_value()) << error;
  ASSERT_EQ(read_rows->size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ((*read_rows)[i].time, rows[i].time);
    EXPECT_EQ((*read_rows)[i].dest_ip, rows[i].dest_ip);
    EXPECT_EQ((*read_rows)[i].len, rows[i].len);
  }

  // ...and the batch reader re-chunks at any capacity.
  auto read_batches = ReadTraceBatches(path, 300, &error);
  ASSERT_TRUE(read_batches.has_value()) << error;
  std::size_t total = 0;
  for (const PacketBatch& b : *read_batches) {
    EXPECT_LE(b.size(), 300u);
    for (std::size_t i = 0; i < b.size(); ++i) {
      const Packet p = b.Get(i);
      EXPECT_EQ(p.time, rows[total].time);
      EXPECT_EQ(p.dest_port, rows[total].dest_port);
      ++total;
    }
  }
  EXPECT_EQ(total, rows.size());
}

// --- Core accumulators ------------------------------------------------------

TEST(CoreAddBatchTest, DecayedCountBatchMatchesLoop) {
  ForwardDecay<ExponentialG> decay(ExponentialG(0.1), 100.0);
  DecayedCount<ExponentialG> loop(decay);
  DecayedCount<ExponentialG> batch(decay);
  std::vector<Timestamp> times;
  for (int i = 0; i < 1000; ++i) times.push_back(100.0 + 0.37 * i);
  for (Timestamp t : times) loop.Add(t);
  batch.AddBatch(times);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(loop.RawWeightedCount()),
            std::bit_cast<std::uint64_t>(batch.RawWeightedCount()));
}

TEST(CoreAddBatchTest, DecayedMomentsAndExtremumBatchMatchLoop) {
  ForwardDecay<ExponentialG> decay(ExponentialG(0.1), 100.0);
  DecayedMoments<ExponentialG> loop_m(decay);
  DecayedMoments<ExponentialG> batch_m(decay);
  DecayedMax<ExponentialG> loop_x(decay);
  DecayedMax<ExponentialG> batch_x(decay);
  std::vector<Timestamp> times;
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) {
    times.push_back(100.0 + 0.37 * i);
    values.push_back(40.0 + (i * 31) % 1460);
  }
  for (std::size_t i = 0; i < times.size(); ++i) {
    loop_m.Add(times[i], values[i]);
    loop_x.Add(times[i], values[i]);
  }
  batch_m.AddBatch(times, values);
  batch_x.AddBatch(times, values);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(loop_m.Sum(200.0)),
            std::bit_cast<std::uint64_t>(batch_m.Sum(200.0)));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(*loop_m.Variance()),
            std::bit_cast<std::uint64_t>(*batch_m.Variance()));
  ASSERT_TRUE(batch_x.Value(200.0).has_value());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(*loop_x.Value(200.0)),
            std::bit_cast<std::uint64_t>(*batch_x.Value(200.0)));
}

}  // namespace
}  // namespace fwdecay::dsms
