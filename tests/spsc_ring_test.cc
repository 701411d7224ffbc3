// SPSC ring + pipelined-execution tests (util/spsc_ring.h,
// dsms::PipelinedQueryExecution, DESIGN.md §14):
//
//   * single-threaded boundary coverage: FIFO order, full/empty
//     verdicts across many counter laps, ownership transfer (move-only
//     payloads), destructor drain;
//   * a real-thread producer/consumer handoff stress (TSan leg in CI);
//   * schedule-explored fixtures running the REAL weak-memory model in
//     every build (the ring is instantiated on sched::ModelAtomic
//     directly): the publish memory-order contract — whose relaxed
//     mutation the explorer must catch — plus wraparound and full/empty
//     ABA exploration of the actual SpscRing;
//   * pipeline differentials: Finish() bit-identical to the
//     single-threaded reference (single-level plans) and to a serial
//     partitioned reference — single-thread runs over the pipeline's
//     own per-shard streams (two-level plans, shedding policies) — with
//     tiny rings/batches so backpressure and wraparound are on the path,
//     including under schedule exploration.
//
// Replay: FWDECAY_SCHED_REPLAY tokens naming ring_publish[_fixed] /
// ring_wrap / ring_full_empty re-run that schedule here (this binary's
// EnvTokenReplay skips tokens owned by other fixtures).

#include <algorithm>
#include <bit>
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
#include "util/random.h"
#include "util/sched.h"
#include "util/simd.h"
#include "util/spsc_ring.h"

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
// Single-threaded ring coverage
// --------------------------------------------------------------------

TEST(SpscRingTest, FifoOrderAndCapacityBound) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  int out = 0;
  EXPECT_FALSE(ring.TryPop(&out));
  for (int v = 0; v < 4; ++v) EXPECT_TRUE(ring.TryPush(int{v}));
  EXPECT_FALSE(ring.TryPush(99));  // full: the element is not consumed
  for (int v = 0; v < 4; ++v) {
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, v);
  }
  EXPECT_FALSE(ring.TryPop(&out));
}

// The monotonic-counter design keeps full (tail - head == capacity)
// and empty (tail - head == 0) distinct even though both map to the
// same slot index — the ABA that bites pointer-cursor rings. Drive a
// cap-2 ring through 100 laps and check every boundary verdict.
TEST(SpscRingTest, FullEmptyBoundaryExactAcrossManyLaps) {
  SpscRing<int> ring(2);
  int out = 0;
  for (int lap = 0; lap < 100; ++lap) {
    EXPECT_TRUE(ring.TryPush(2 * lap));
    EXPECT_TRUE(ring.TryPush(2 * lap + 1));
    EXPECT_FALSE(ring.TryPush(-1));
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, 2 * lap);
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, 2 * lap + 1);
    EXPECT_FALSE(ring.TryPop(&out));
  }
}

TEST(SpscRingTest, OwnershipTransferAndDestructorDrain) {
  // Move-only payloads compile and transfer ownership whole.
  SpscRing<std::unique_ptr<int>> uring(2);
  EXPECT_TRUE(uring.TryPush(std::make_unique<int>(42)));
  std::unique_ptr<int> got;
  ASSERT_TRUE(uring.TryPop(&got));
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, 42);

  // Elements never popped are destroyed by the ring destructor
  // (use_count is the witness; ASan/LSan watch the rest).
  auto token = std::make_shared<int>(7);
  {
    SpscRing<std::shared_ptr<int>> ring(4);
    EXPECT_TRUE(ring.TryPush(std::shared_ptr<int>(token)));
    EXPECT_TRUE(ring.TryPush(std::shared_ptr<int>(token)));
    EXPECT_EQ(token.use_count(), 3);
    std::shared_ptr<int> out;
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(*out, 7);
    out.reset();
    EXPECT_EQ(token.use_count(), 2);  // one element still in the ring
  }
  EXPECT_EQ(token.use_count(), 1);  // drained on destruction
}

// Real-thread handoff (the CI TSan leg runs this under instrumentation):
// a tight ring forces constant full/empty transitions and cursor-cache
// refreshes on both sides.
TEST(SpscRingTest, TwoThreadHandoffStress) {
  SpscRing<std::uint64_t> ring(8);
  constexpr std::uint64_t kItems = 200000;
  sched::Thread producer([&] {
    for (std::uint64_t v = 0; v < kItems; ++v) {
      while (!ring.TryPush(std::uint64_t{v})) std::this_thread::yield();
    }
  });
  std::uint64_t got = 0;
  for (std::uint64_t want = 0; want < kItems; ++want) {
    while (!ring.TryPop(&got)) std::this_thread::yield();
    ASSERT_EQ(got, want);
  }
  producer.Join();
  EXPECT_FALSE(ring.TryPop(&got));
}

// --------------------------------------------------------------------
// Schedule-explored fixtures (real weak-memory model in every build)
// --------------------------------------------------------------------

// The §14 publish edge, modeled. SpscRing's slots are plain memory
// (placement-new of arbitrary T) which the model cannot reorder, so
// this miniature mirror re-states the protocol with a ModelAtomic slot:
// producer writes the slot then publishes tail; consumer acquires tail
// then reads the slot. The buggy variant publishes relaxed — the model
// must find the schedule where the consumer observes the new tail but
// the stale slot.
void RingPublishBody(bool fixed) {
  sched::ModelAtomic<std::uint64_t> slot{0};
  sched::ModelAtomic<std::uint64_t> tail{0};
  sched::Thread producer([&] {
    slot.store(41, std::memory_order_relaxed);
    tail.store(1, fixed ? std::memory_order_release
                        : std::memory_order_relaxed);
  });
  if (tail.load(fixed ? std::memory_order_acquire
                      : std::memory_order_relaxed) == 1) {
    sched::Expect(slot.load(std::memory_order_relaxed) == 41,
                  "ring publish: tail observed before the slot write");
  }
  producer.Join();
}

// Wraparound on the REAL ring (cursors on ModelAtomic): five elements
// through a cap-2 ring wrap the mask twice; a stale-cursor bug shows up
// as a lost, duplicated, or reordered element.
void RingWrapBody() {
  SpscRing<std::uint64_t, sched::ModelAtomic> ring(2);
  sched::Thread producer([&] {
    for (std::uint64_t v = 0; v < 5; ++v) {
      while (!ring.TryPush(std::uint64_t{v})) sched::Yield();
    }
  });
  std::uint64_t got = 0;
  for (std::uint64_t want = 0; want < 5; ++want) {
    while (!ring.TryPop(&got)) sched::Yield();
    sched::Expect(got == want,
                  "ring wraparound: lost, duplicated, or reordered element");
  }
  producer.Join();
  sched::Expect(!ring.TryPop(&got),
                "ring wraparound: phantom element after drain");
}

// Full/empty ABA: three complete fill/drain cycles per schedule, then a
// quiesced boundary audit — a cursor misjudgement (treating full as
// empty or vice versa across a lap) corrupts the order or the final
// verdicts.
void RingFullEmptyBody() {
  SpscRing<std::uint64_t, sched::ModelAtomic> ring(2);
  sched::Thread producer([&] {
    for (std::uint64_t v = 0; v < 6; ++v) {
      while (!ring.TryPush(std::uint64_t{v})) sched::Yield();
    }
  });
  std::uint64_t got = 0;
  for (std::uint64_t want = 0; want < 6; ++want) {
    while (!ring.TryPop(&got)) sched::Yield();
    sched::Expect(got == want,
                  "full/empty ABA: wrong element across a counter lap");
  }
  producer.Join();
  sched::Expect(!ring.TryPop(&got),
                "full/empty ABA: phantom element after drain");
  sched::Expect(ring.TryPush(std::uint64_t{99}),
                "full/empty ABA: drained ring reports full");
}

TEST(SpscRingModelTest, ExplorationCatchesRelaxedPublish) {
  sched::ExploreOptions options;
  options.name = "ring_publish";
  const sched::ExploreResult result =
      sched::Explore(options, [] { RingPublishBody(false); });
  EXPECT_TRUE(result.failed)
      << "the relaxed-publish ring bug must be caught ("
      << result.schedules_run << " schedules explored)";
}

TEST(SpscRingModelTest, ReleaseAcquirePublishSurvivesExhaustiveExploration) {
  sched::ExploreOptions options;
  options.name = "ring_publish_fixed";
  const sched::ExploreResult result =
      sched::Explore(options, [] { RingPublishBody(true); });
  EXPECT_FALSE(result.failed)
      << result.failure << "\nreplay: " << result.replay_token;
  EXPECT_TRUE(result.exhausted);
}

TEST(SpscRingModelTest, WraparoundSurvivesBoundedExhaustiveExploration) {
  sched::ExploreOptions options;
  options.name = "ring_wrap";
  options.max_schedules = 2000;
  const sched::ExploreResult result = sched::Explore(options, RingWrapBody);
  EXPECT_FALSE(result.failed)
      << result.failure << "\nreplay: " << result.replay_token;
  EXPECT_GT(result.schedules_run, 0u);
}

TEST(SpscRingModelTest, FullEmptyAbaSurvivesBoundedExhaustiveExploration) {
  sched::ExploreOptions options;
  options.name = "ring_full_empty";
  options.max_schedules = 2000;
  const sched::ExploreResult result =
      sched::Explore(options, RingFullEmptyBody);
  EXPECT_FALSE(result.failed)
      << result.failure << "\nreplay: " << result.replay_token;
  EXPECT_GT(result.schedules_run, 0u);
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
// — doubles included — at every shard count. Tiny rings and sub-batches
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

// Schedule-explored pipeline differential: a tiny pipeline (2 workers,
// cap-2 rings, 2-row sub-batches) driven from the explored thread, with
// Finish() bit-identical to the reference on EVERY schedule. In the
// default build the ring cursors are PlainAtomic, so this explores
// spawn/join/yield orderings; the CI sched-explore build
// (-DFWDECAY_SCHED=ON) routes the cursors and the stop flag through the
// weak-memory model.
TEST(SpscRingModelTest, PipelineFinishBitExactUnderExploration) {
  dsms::RegisterPaperUdafs();
  std::string error;
  auto plan = CompiledQuery::Compile(kPipelineQuery, &error, {});
  ASSERT_NE(plan, nullptr) << error;

  const std::vector<PacketBatch> feed =
      MakeFeed(/*n_packets=*/12, /*batch_capacity=*/4, /*port_spread=*/5);
  auto reference = plan->NewExecution();
  for (const PacketBatch& b : feed) reference->Consume(b);
  const ResultSet want = reference->Finish();

  const auto body = [&] {
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
  };

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
// Replay entry point for the ring fixtures (tokens from the explored
// tests above; scripts/reproduce.sh forwards FWDECAY_SCHED_REPLAY).
// --------------------------------------------------------------------

TEST(SpscRingReplayTest, EnvTokenReplay) {
  const char* token = std::getenv("FWDECAY_SCHED_REPLAY");
  if (token == nullptr || token[0] == '\0') {
    GTEST_SKIP() << "FWDECAY_SCHED_REPLAY not set";
  }
  std::string name;
  std::string error;
  ASSERT_TRUE(sched::ParseReplayToken(token, &name, &error)) << error;

  std::function<void()> body;
  if (name == "ring_publish") {
    body = [] { RingPublishBody(false); };
  } else if (name == "ring_publish_fixed") {
    body = [] { RingPublishBody(true); };
  } else if (name == "ring_wrap") {
    body = RingWrapBody;
  } else if (name == "ring_full_empty") {
    body = RingFullEmptyBody;
  } else {
    GTEST_SKIP() << "token names fixture '" << name
                 << "', which is not owned by this binary";
  }
  const sched::ExploreResult replay = sched::Replay(token, name.c_str(), body);
  EXPECT_FALSE(replay.failed)
      << "replayed schedule fails: " << replay.failure;
}

}  // namespace
}  // namespace fwdecay
