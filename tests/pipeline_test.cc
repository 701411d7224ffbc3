// Handoff-queue + pipelined-execution tests (util/bounded_queue.h,
// dsms::PipelinedQueryExecution, DESIGN.md §14):
//
//   * single-threaded queue coverage: FIFO order across the slot-index
//     wrap, the capacity bound, a refused push leaving a move-only item
//     intact, Close() draining then refusing, destructor drain;
//   * a real-thread multi-producer handoff stress with a parked consumer
//     (TSan leg in CI);
//   * pipeline differentials: Finish() bit-identical to the
//     single-threaded reference (single-level plans) and to a serial
//     partitioned reference — single-thread runs over the pipeline's
//     own per-shard streams (two-level plans, shedding policies) — with
//     tiny queues/batches so backpressure and wraparound are on the path,
//     including under schedule exploration;
//   * abandonment: a pipeline destroyed mid-stream without Finish()
//     returns, with a backed-up shard and a parked worker.
//
// Replay: FWDECAY_SCHED_REPLAY tokens naming pipeline_merge re-run that
// schedule here (this binary's EnvTokenReplay skips tokens owned by
// other fixtures).

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dsms/batch.h"
#include "dsms/engine.h"
#include "dsms/packet.h"
#include "dsms/udafs.h"
#include "dsms/value.h"
#include "util/bounded_queue.h"
#include "util/random.h"
#include "util/sched.h"
#include "util/simd.h"

namespace fwdecay {
namespace {

using dsms::CompiledQuery;
using dsms::OverloadPolicy;
using dsms::Packet;
using dsms::PacketBatch;
using dsms::PipelinedQueryExecution;
using dsms::QueryExecution;
using dsms::ResultSet;
using dsms::Value;

// --------------------------------------------------------------------
// Handoff queue
// --------------------------------------------------------------------

// The two SpscRingTest cases keep the IDs of the lock-free ring's tests
// that this queue replaced; they now check the queue's FIFO order,
// capacity bound and full/empty verdicts.
TEST(SpscRingTest, FifoOrderAndCapacityBound) {
  BoundedQueue<int> queue(4);
  int out = -1;
  EXPECT_FALSE(queue.TryPop(&out));
  for (int v = 0; v < 4; ++v) EXPECT_TRUE(queue.TryPush(int{v}));
  EXPECT_EQ(queue.depth(), 4u);
  EXPECT_FALSE(queue.TryPush(99));  // full
  for (int v = 0; v < 4; ++v) {
    ASSERT_TRUE(queue.TryPop(&out));
    EXPECT_EQ(out, v);
  }
  EXPECT_FALSE(queue.TryPop(&out));
  EXPECT_EQ(queue.depth(), 0u);
  BoundedQueue<int> one(0);  // capacity 0 counts as 1
  EXPECT_TRUE(one.TryPush(1));
  EXPECT_FALSE(one.TryPush(2));
}

// Full (size == capacity) and empty (size == 0) put the head on the
// same slot index. A 2-slot queue filled and emptied over 100 laps, and
// a 3-slot queue (not a power of two) popped one to three at a time
// over 50 laps so the head stops at each slot, check every verdict.
TEST(SpscRingTest, FullEmptyBoundaryExactAcrossManyLaps) {
  BoundedQueue<int> pair(2);
  int out = -1;
  for (int lap = 0; lap < 100; ++lap) {
    EXPECT_TRUE(pair.TryPush(2 * lap));
    EXPECT_TRUE(pair.TryPush(2 * lap + 1));
    EXPECT_FALSE(pair.TryPush(-1));
    ASSERT_TRUE(pair.TryPop(&out));
    EXPECT_EQ(out, 2 * lap);
    ASSERT_TRUE(pair.TryPop(&out));
    EXPECT_EQ(out, 2 * lap + 1);
    EXPECT_FALSE(pair.TryPop(&out));
  }

  BoundedQueue<int> queue(3);
  int next_in = 0;
  int next_out = 0;
  for (int lap = 0; lap < 50; ++lap) {
    while (queue.TryPush(int{next_in})) ++next_in;
    EXPECT_EQ(queue.depth(), 3u);
    EXPECT_FALSE(queue.TryPush(99));
    // Pop one to three, so the head stops at a different slot each lap.
    for (int k = 0; k <= lap % 3; ++k) {
      ASSERT_TRUE(queue.TryPop(&out));
      EXPECT_EQ(out, next_out++);
    }
  }
  while (queue.TryPop(&out)) EXPECT_EQ(out, next_out++);
  EXPECT_EQ(next_out, next_in);
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(BoundedQueueTest, FailedTryPushLeavesMoveOnlyItemIntact) {
  BoundedQueue<std::unique_ptr<int>> queue(1);
  EXPECT_TRUE(queue.TryPush(std::make_unique<int>(1)));
  auto refused = std::make_unique<int>(42);
  EXPECT_FALSE(queue.TryPush(std::move(refused)));  // full
  ASSERT_NE(refused, nullptr);
  EXPECT_EQ(*refused, 42);
  std::unique_ptr<int> got;
  ASSERT_TRUE(queue.TryPop(&got));
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, 1);
  queue.Close();
  EXPECT_FALSE(queue.TryPush(std::move(refused)));  // closed
  ASSERT_NE(refused, nullptr);
  EXPECT_EQ(*refused, 42);

  // Items never popped are destroyed with the queue (use_count is the
  // witness; ASan/LSan watch the rest).
  auto token = std::make_shared<int>(7);
  {
    BoundedQueue<std::shared_ptr<int>> shared(4);
    EXPECT_TRUE(shared.TryPush(std::shared_ptr<int>(token)));
    EXPECT_TRUE(shared.TryPush(std::shared_ptr<int>(token)));
    std::shared_ptr<int> out;
    ASSERT_TRUE(shared.TryPop(&out));
    out.reset();
    EXPECT_EQ(token.use_count(), 2);  // one item still queued
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(BoundedQueueTest, CloseDrainsQueuedItemsThenPopReturnsFalse) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  queue.Close();
  queue.Close();  // idempotent
  EXPECT_FALSE(queue.TryPush(3));
  int out = 0;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 1);
  ASSERT_TRUE(queue.TryPop(&out));
  EXPECT_EQ(out, 2);
  // Closed and drained: every later pop says so, and none blocks.
  EXPECT_FALSE(queue.Pop(&out));
  EXPECT_FALSE(queue.TryPop(&out));
  EXPECT_FALSE(queue.Pop(&out));
  EXPECT_EQ(queue.depth(), 0u);

  // A consumer parked on an empty queue wakes when it is closed.
  BoundedQueue<int> empty(2);
  bool popped = true;
  sched::Thread consumer([&] { popped = empty.Pop(&out); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  empty.Close();
  consumer.Join();
  EXPECT_FALSE(popped);
}

// Real threads (the CI TSan leg runs this under instrumentation): two
// producers push tagged sequences through a tight queue, backing off
// when it is full, while the consumer parks in Pop. Each producer's
// items must arrive complete and in order.
TEST(BoundedQueueTest, TwoThreadHandoffStress) {
  BoundedQueue<std::uint64_t> queue(8);
  constexpr std::uint64_t kItems = 100000;
  constexpr std::uint64_t kTag = std::uint64_t{1} << 32;
  auto produce = [&](std::uint64_t tag) {
    for (std::uint64_t v = 0; v < kItems; ++v) {
      while (!queue.TryPush(tag | v)) std::this_thread::yield();
    }
  };
  sched::Thread first([&] { produce(0); });
  sched::Thread second([&] { produce(kTag); });
  sched::Thread closer([&] {
    first.Join();
    second.Join();
    queue.Close();
  });
  std::uint64_t want[2] = {0, 0};
  std::uint64_t got = 0;
  while (queue.Pop(&got)) {
    const std::size_t from = got >> 32;
    ASSERT_LT(from, 2u);
    ASSERT_EQ(got & (kTag - 1), want[from]);
    ++want[from];
  }
  closer.Join();
  EXPECT_EQ(want[0], kItems);
  EXPECT_EQ(want[1], kItems);
}

// --------------------------------------------------------------------
// Pipeline differentials
// --------------------------------------------------------------------

constexpr char kPipelineQuery[] =
    "select srcPort, count(*), sum(len), avg(len) from TCP "
    "group by srcPort";

// Mixed-port TCP feed with some UDP rows so the protocol filter is on
// the routed path too.
std::vector<PacketBatch> MakeFeed(std::size_t n_packets,
                                  std::size_t batch_capacity,
                                  std::uint16_t port_spread) {
  Rng rng(0xfeedULL + port_spread);
  std::vector<PacketBatch> batches;
  PacketBatch batch(batch_capacity);
  double t = 0.0;
  for (std::size_t i = 0; i < n_packets; ++i) {
    t += 0.001;
    Packet p;
    p.time = t;
    p.src_ip = 0x0a000001u + static_cast<std::uint32_t>(i % 7);
    p.dest_ip = 0x0a00ff01u;
    p.src_port =
        static_cast<std::uint16_t>(1000 + i % port_spread);
    p.dest_port = 443;
    p.len = 40 + static_cast<std::uint32_t>(rng.NextBounded(1400));
    p.protocol = (i % 9 == 0) ? dsms::kProtoUdp : dsms::kProtoTcp;
    batch.Append(p);
    if (batch.full()) {
      batches.push_back(std::move(batch));
      batch = PacketBatch(batch_capacity);
    }
  }
  if (!batch.empty()) batches.push_back(std::move(batch));
  return batches;
}

bool BitIdentical(const ResultSet& got, const ResultSet& want) {
  if (got.columns != want.columns || got.rows.size() != want.rows.size()) {
    return false;
  }
  for (std::size_t r = 0; r < got.rows.size(); ++r) {
    if (got.rows[r].size() != want.rows[r].size()) return false;
    for (std::size_t c = 0; c < got.rows[r].size(); ++c) {
      const Value& a = got.rows[r][c];
      const Value& b = want.rows[r][c];
      if (a.is_double() != b.is_double()) return false;
      if (a.is_double()) {
        if (std::bit_cast<std::uint64_t>(a.AsDouble()) !=
            std::bit_cast<std::uint64_t>(b.AsDouble())) {
          return false;
        }
      } else if (!(a == b)) {
        return false;
      }
    }
  }
  return true;
}

// Single-level plans: every group moves wholesale at the merge, so the
// pipeline's Finish() is bit-identical to the single-threaded reference
// — doubles included — at every shard count. Tiny queues and sub-batches
// put backpressure, wraparound, and partial-fill flush on the path.
TEST(PipelinedExecutionTest, FinishBitIdenticalToSingleThreadReference) {
  dsms::RegisterPaperUdafs();
  std::string error;
  auto plan = CompiledQuery::Compile(kPipelineQuery, &error, {});
  ASSERT_NE(plan, nullptr) << error;

  const std::vector<PacketBatch> feed =
      MakeFeed(/*n_packets=*/4096, /*batch_capacity=*/64, /*port_spread=*/13);
  auto reference = plan->NewExecution();
  for (const PacketBatch& b : feed) reference->Consume(b);
  const ResultSet want = reference->Finish();

  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    PipelinedQueryExecution::Options options;
    options.num_shards = shards;
    options.ring_capacity = 4;
    options.batch_capacity = 32;
    PipelinedQueryExecution pipeline(*plan, options);
    for (const PacketBatch& b : feed) pipeline.Consume(b);
    const ResultSet got = pipeline.Finish();
    EXPECT_EQ(pipeline.packets_consumed(), 4096u) << shards << " shards";
    EXPECT_TRUE(BitIdentical(got, want))
        << shards << " shards:\n--- got ---\n" << got.ToString()
        << "--- want ---\n" << want.ToString();
  }
}

// Serial partitioned reference for a pipeline of `num_shards` over
// kPipelineQuery: splits the feed by the pipeline's own routing — the
// srcPort group hash (simd::GroupHashI64 under kGroupHashSeed) remixed
// into a shard index (simd::ShardIndexU64 under kShardRouteSeed) — and
// feeds each part, in stream order, to its own single-thread execution
// of `plan` under `policy`. Rows the plan's filter drops may land in any
// part; each part drops them again.
std::vector<std::unique_ptr<QueryExecution>> RunPartitioned(
    const CompiledQuery& plan, const std::vector<PacketBatch>& feed,
    std::size_t num_shards, const OverloadPolicy& policy) {
  std::vector<std::unique_ptr<QueryExecution>> parts;
  for (std::size_t s = 0; s < num_shards; ++s) {
    parts.push_back(plan.NewExecution());
    parts.back()->SetOverloadPolicy(policy);
  }
  std::vector<std::int64_t> keys;
  std::vector<std::uint64_t> hashes;
  std::vector<std::uint32_t> shard_of;
  for (const PacketBatch& b : feed) {
    const std::size_t n = b.size();
    keys.assign(b.src_port(), b.src_port() + n);
    hashes.resize(n);
    shard_of.resize(n);
    simd::GroupHashI64(keys.data(), n, /*value_seed=*/1, dsms::kGroupHashSeed,
                       hashes.data());
    simd::ShardIndexU64(hashes.data(), n, dsms::kShardRouteSeed,
                        static_cast<std::uint32_t>(num_shards),
                        shard_of.data());
    for (std::size_t i = 0; i < n; ++i) parts[shard_of[i]]->Consume(b.Get(i));
  }
  return parts;
}

// The parts' results merged in key order (column 0 is the srcPort key;
// the parts' key spaces are disjoint).
ResultSet MergeInKeyOrder(
    const std::vector<std::unique_ptr<QueryExecution>>& parts) {
  ResultSet merged;
  for (const auto& part : parts) {
    ResultSet rs = part->Finish();
    merged.columns = rs.columns;
    for (auto& row : rs.rows) merged.rows.push_back(std::move(row));
  }
  std::sort(merged.rows.begin(), merged.rows.end(),
            [](const std::vector<Value>& a, const std::vector<Value>& b) {
              return a[0].AsInt() < b[0].AsInt();
            });
  return merged;
}

template <typename Getter>
std::uint64_t SumParts(const std::vector<std::unique_ptr<QueryExecution>>& parts,
                       Getter getter) {
  std::uint64_t total = 0;
  for (const auto& part : parts) total += getter(*part);
  return total;
}

// Two-level plans: each shard sees exactly its part of the stream, in
// stream order, and aggregation state is invariant to batch
// segmentation — so the pipeline stays bit-identical to the serial
// partitioned reference even through low-level evictions (the tiny
// 64-slot low table keeps eviction points on the path).
TEST(PipelinedExecutionTest, MatchesMutexRouterBitExactTwoLevel) {
  dsms::RegisterPaperUdafs();
  std::string error;
  CompiledQuery::Options copts;
  copts.two_level = true;
  copts.low_level_slots = 64;
  auto plan = CompiledQuery::Compile(kPipelineQuery, &error, copts);
  ASSERT_NE(plan, nullptr) << error;

  const std::vector<PacketBatch> feed =
      MakeFeed(/*n_packets=*/4096, /*batch_capacity=*/128,
               /*port_spread=*/251);
  const auto parts = RunPartitioned(*plan, feed, /*num_shards=*/4, {});
  const std::uint64_t want_evictions = SumParts(
      parts, [](const QueryExecution& e) { return e.low_level_evictions(); });
  ASSERT_GT(want_evictions, 0u);

  PipelinedQueryExecution::Options options;
  options.num_shards = 4;
  options.ring_capacity = 8;
  options.batch_capacity = 64;
  PipelinedQueryExecution pipeline(*plan, options);
  for (const PacketBatch& b : feed) pipeline.Consume(b);
  pipeline.Quiesce();
  EXPECT_EQ(pipeline.low_level_evictions(), want_evictions);
  const ResultSet got = pipeline.Finish();
  const ResultSet want = MergeInKeyOrder(parts);
  EXPECT_TRUE(BitIdentical(got, want))
      << "--- got ---\n" << got.ToString()
      << "--- want ---\n" << want.ToString();
}

// Overload shedding is a per-shard decision on the per-shard stream, so
// the pipeline sheds exactly the groups the serial partitioned
// reference sheds; the frozen post-Quiesce stats must equal the parts'
// sums and the group-table audit must pass.
TEST(PipelinedExecutionTest, OverloadPolicyStatsAndAuditAfterQuiesce) {
  dsms::RegisterPaperUdafs();
  std::string error;
  auto plan = CompiledQuery::Compile(kPipelineQuery, &error, {});
  ASSERT_NE(plan, nullptr) << error;

  const std::vector<PacketBatch> feed =
      MakeFeed(/*n_packets=*/2048, /*batch_capacity=*/64, /*port_spread=*/64);
  OverloadPolicy policy;
  policy.max_groups = 4;
  policy.decay_alpha = 0.01;
  const auto parts = RunPartitioned(*plan, feed, /*num_shards=*/2, policy);

  PipelinedQueryExecution::Options options;
  options.num_shards = 2;
  options.ring_capacity = 4;
  options.batch_capacity = 32;
  PipelinedQueryExecution pipeline(*plan, options);
  pipeline.SetOverloadPolicy(policy);
  for (const PacketBatch& b : feed) pipeline.Consume(b);
  pipeline.Quiesce();
  pipeline.Quiesce();  // idempotent

  EXPECT_EQ(pipeline.packets_consumed(), 2048u);
  EXPECT_LE(pipeline.GroupCount(), 2u * policy.max_groups);
  EXPECT_GT(pipeline.groups_shed(), 0u);
  EXPECT_EQ(pipeline.GroupCount(),
            SumParts(parts, [](const QueryExecution& e) {
              return std::uint64_t{e.GroupCount()};
            }));
  EXPECT_EQ(pipeline.tuples_aggregated(),
            SumParts(parts, [](const QueryExecution& e) {
              return e.tuples_aggregated();
            }));
  EXPECT_EQ(pipeline.groups_shed(),
            SumParts(parts,
                     [](const QueryExecution& e) { return e.groups_shed(); }));
  EXPECT_EQ(pipeline.tuples_shed(),
            SumParts(parts,
                     [](const QueryExecution& e) { return e.tuples_shed(); }));
  pipeline.CheckInvariants();

  EXPECT_TRUE(BitIdentical(pipeline.Finish(), MergeInKeyOrder(parts)));
}

// Abandonment: a pipeline destroyed mid-stream, without Finish(), must
// close its queues and join its workers rather than hang. Every TCP row
// carries the same srcPort, so one shard receives all of them while the
// other shard's worker never receives a batch and stays parked in Pop.
// The busy worker runs two UDAFs per row and the router only routes, so
// the busy shard's 2-slot queue of 8-row sub-batches stays full: the
// destructor finds it full in most rounds (an instrumented run counted
// thousands of refused pushes per round). Several rounds vary where the
// destructor catches the busy worker.
TEST(PipelinedExecutionTest, AbandonedMidStreamReturnsWithParkedWorker) {
  dsms::RegisterPaperUdafs();
  std::string error;
  auto plan = CompiledQuery::Compile(
      "select srcPort, FDQUANTILE(len, (time % 60) * (time % 60) + 1, 0.5, "
      "11), FDHH(destIP, exp((time % 60) / 10.0), 0.05, 0.01) from TCP "
      "group by srcPort",
      &error, {});
  ASSERT_NE(plan, nullptr) << error;

  const std::vector<PacketBatch> feed =
      MakeFeed(/*n_packets=*/2048, /*batch_capacity=*/512, /*port_spread=*/1);
  for (int round = 0; round < 8; ++round) {
    PipelinedQueryExecution::Options options;
    options.num_shards = 2;
    options.ring_capacity = 2;
    options.batch_capacity = 8;
    PipelinedQueryExecution pipeline(*plan, options);
    for (const PacketBatch& b : feed) pipeline.Consume(b);
    EXPECT_EQ(pipeline.packets_consumed(), 2048u);
  }
}

// The explored pipeline differential: a tiny pipeline (2 workers, 2-slot
// queues, 2-row sub-batches) driven from the explored thread, whose
// Finish() must be bit-identical to the single-threaded reference.
struct PipelineMergeFixture {
  std::unique_ptr<CompiledQuery> plan;
  std::vector<PacketBatch> feed;
  ResultSet want;

  void Run() const {
    PipelinedQueryExecution::Options options;
    options.num_shards = 2;
    options.ring_capacity = 2;
    options.batch_capacity = 2;
    PipelinedQueryExecution pipeline(*plan, options);
    for (const PacketBatch& b : feed) {
      pipeline.Consume(b);
      sched::Yield();
    }
    sched::Expect(pipeline.packets_consumed() == 12,
                  "pipeline: router dropped or double-counted packets");
    sched::Expect(BitIdentical(pipeline.Finish(), want),
                  "pipeline: Finish() diverged from the single-threaded "
                  "reference under this schedule");
  }
};

// Null when the plan does not compile.
std::unique_ptr<PipelineMergeFixture> MakePipelineMergeFixture() {
  dsms::RegisterPaperUdafs();
  auto fx = std::make_unique<PipelineMergeFixture>();
  std::string error;
  fx->plan = CompiledQuery::Compile(kPipelineQuery, &error, {});
  if (fx->plan == nullptr) return nullptr;
  fx->feed =
      MakeFeed(/*n_packets=*/12, /*batch_capacity=*/4, /*port_spread=*/5);
  auto reference = fx->plan->NewExecution();
  for (const PacketBatch& b : fx->feed) reference->Consume(b);
  fx->want = reference->Finish();
  return fx;
}

// Finish() must match on EVERY explored schedule. Inside the explored
// region each queue's Pop polls and yields instead of parking, so the
// explorer decides when each worker runs. The default build explores
// spawn/join/yield orderings; the CI sched-explore build
// (-DFWDECAY_SCHED=ON) also makes every queue lock a scheduling point.
TEST(SpscRingModelTest, PipelineFinishBitExactUnderExploration) {
  const auto fx = MakePipelineMergeFixture();
  ASSERT_NE(fx, nullptr);
  const auto body = [&] { fx->Run(); };

  sched::ExploreOptions random_options;
  random_options.name = "pipeline_merge";
  random_options.mode = sched::Mode::kRandom;
  random_options.max_schedules = 24;
  random_options.seed = 0xf00fULL;
  if (const char* env = std::getenv("FWDECAY_SCHED_SEED");
      env != nullptr && env[0] != '\0') {
    random_options.seed = std::strtoull(env, nullptr, 0);
  }
  const sched::ExploreResult random_result =
      sched::Explore(random_options, body);
  EXPECT_FALSE(random_result.failed)
      << random_result.failure << "\nseed: " << random_options.seed
      << "\nreplay: " << random_result.replay_token;

  sched::ExploreOptions dfs_options;
  dfs_options.name = "pipeline_merge";
  dfs_options.max_schedules = 32;
  const sched::ExploreResult dfs_result = sched::Explore(dfs_options, body);
  EXPECT_FALSE(dfs_result.failed)
      << dfs_result.failure << "\nreplay: " << dfs_result.replay_token;
}

// --------------------------------------------------------------------
// Replay entry point for the pipeline_merge exploration (tokens from the
// explored test above; scripts/reproduce.sh forwards
// FWDECAY_SCHED_REPLAY).
// --------------------------------------------------------------------

TEST(SpscRingReplayTest, EnvTokenReplay) {
  const char* token = std::getenv("FWDECAY_SCHED_REPLAY");
  if (token == nullptr || token[0] == '\0') {
    GTEST_SKIP() << "FWDECAY_SCHED_REPLAY not set";
  }
  std::string name;
  std::string error;
  ASSERT_TRUE(sched::ParseReplayToken(token, &name, &error)) << error;
  if (name != "pipeline_merge") {
    GTEST_SKIP() << "token names fixture '" << name
                 << "', which is not owned by this binary";
  }
  const auto fx = MakePipelineMergeFixture();
  ASSERT_NE(fx, nullptr);
  const sched::ExploreResult replay =
      sched::Replay(token, name.c_str(), [&] { fx->Run(); });
  EXPECT_FALSE(replay.failed)
      << "replayed schedule fails: " << replay.failure;
}

}  // namespace
}  // namespace fwdecay
