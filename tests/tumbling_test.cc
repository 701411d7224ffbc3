// Tests for the tumbling-window runner: per-bucket emission, watermark
// + slack behaviour under out-of-order delivery, late-tuple drops,
// times with no bucket, and a bit-exact differential against a
// per-packet reference.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "dsms/batch.h"
#include "dsms/engine.h"
#include "dsms/netgen.h"
#include "dsms/tumbling.h"

namespace fwdecay::dsms {
namespace {

Packet At(double time, std::uint16_t port = 80) {
  Packet p;
  p.time = time;
  p.dest_port = port;
  p.len = 100;
  p.protocol = kProtoTcp;
  return p;
}

std::unique_ptr<CompiledQuery> CountPlan() {
  std::string error;
  auto plan = CompiledQuery::Compile(
      "select destPort, count(*) from TCP group by destPort", &error);
  EXPECT_NE(plan, nullptr) << error;
  return plan;
}

TEST(TumblingRunnerTest, EmitsBucketsInOrderAsWatermarkAdvances) {
  auto plan = CountPlan();
  std::vector<std::int64_t> emitted;
  std::map<std::int64_t, std::int64_t> counts;
  TumblingRunner runner(plan.get(), /*bucket_seconds=*/60.0,
                        [&](std::int64_t bucket, ResultSet rs) {
                          emitted.push_back(bucket);
                          counts[bucket] = rs.rows[0][1].AsInt();
                        });
  runner.Consume(At(10.0));
  runner.Consume(At(30.0));
  EXPECT_TRUE(emitted.empty());  // bucket 0 still open
  runner.Consume(At(61.0));      // watermark passes bucket 0's end
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0], 0);
  EXPECT_EQ(counts[0], 2);
  runner.Consume(At(200.0));  // closes bucket 1 (bucket 2 stays open)
  ASSERT_EQ(emitted.size(), 2u);
  EXPECT_EQ(emitted[1], 1);
  EXPECT_EQ(counts[1], 1);
  runner.Flush();
  ASSERT_EQ(emitted.size(), 3u);
  EXPECT_EQ(emitted[2], 3);
  EXPECT_EQ(runner.open_buckets(), 0u);
}

TEST(TumblingRunnerTest, SlackToleratesOutOfOrderArrivals) {
  auto plan = CountPlan();
  std::map<std::int64_t, std::int64_t> counts;
  TumblingRunner runner(
      plan.get(), 60.0,
      [&](std::int64_t bucket, ResultSet rs) {
        counts[bucket] = rs.rows[0][1].AsInt();
      },
      /*slack_seconds=*/5.0);
  runner.Consume(At(59.0));
  runner.Consume(At(62.0));  // watermark 62 < 60 + 5: bucket 0 held open
  EXPECT_EQ(runner.open_buckets(), 2u);
  runner.Consume(At(58.0));  // late but within slack: still counted
  runner.Consume(At(66.0));  // watermark 66 >= 65: bucket 0 emits
  EXPECT_EQ(counts.count(0), 1u);
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(runner.late_drops(), 0u);
}

TEST(TumblingRunnerTest, DropsTuplesForEmittedBuckets) {
  auto plan = CountPlan();
  int emissions = 0;
  TumblingRunner runner(plan.get(), 60.0,
                        [&](std::int64_t, ResultSet) { ++emissions; });
  runner.Consume(At(10.0));
  runner.Consume(At(120.0));  // bucket 0 emitted
  EXPECT_EQ(emissions, 1);
  runner.Consume(At(15.0));  // too late
  EXPECT_EQ(runner.late_drops(), 1u);
  runner.Flush();
  EXPECT_EQ(emissions, 2);
}

TEST(TumblingRunnerTest, EndToEndOverJitteredTrace) {
  // A jittered trace through a per-minute count query: bucket counts
  // must sum to (kept) packets, and with enough slack nothing is lost.
  TraceConfig cfg;
  cfg.rate_pps = 5000.0;
  cfg.reorder_jitter = 1.0;
  cfg.tcp_fraction = 1.0;
  cfg.seed = 3;
  PacketGenerator gen(cfg);
  const auto packets = gen.Generate(5000 * 130);  // ~130 seconds

  std::string error;
  auto plan = CompiledQuery::Compile(
      "select tb, count(*) from TCP group by time/60 as tb", &error);
  ASSERT_NE(plan, nullptr) << error;
  std::int64_t total = 0;
  TumblingRunner runner(
      plan.get(), 60.0,
      [&](std::int64_t, ResultSet rs) {
        for (const auto& row : rs.rows) total += row[1].AsInt();
      },
      /*slack_seconds=*/2.0);
  for (const Packet& p : packets) runner.Consume(p);
  runner.Flush();
  EXPECT_EQ(runner.late_drops(), 0u);
  EXPECT_EQ(total, static_cast<std::int64_t>(packets.size()));
}

TEST(TumblingRunnerTest, TimesWithNoRepresentableBucketAreDropped) {
  auto plan = CountPlan();
  std::vector<std::int64_t> emitted;
  std::map<std::int64_t, std::int64_t> counts;
  TumblingRunner runner(plan.get(), 60.0,
                        [&](std::int64_t bucket, ResultSet rs) {
                          emitted.push_back(bucket);
                          counts[bucket] = rs.rows[0][1].AsInt();
                        });
  constexpr double kInf = std::numeric_limits<double>::infinity();
  runner.Consume(At(10.0));
  // None of these may open a bucket or move the watermark.
  for (const double t : {std::numeric_limits<double>::quiet_NaN(), kInf,
                         -kInf, 1e300, -1e300}) {
    runner.Consume(At(t));
  }
  EXPECT_EQ(runner.late_drops(), 5u);
  EXPECT_EQ(runner.open_buckets(), 1u);
  EXPECT_TRUE(emitted.empty());
  runner.Consume(At(20.0));
  runner.Flush();
  ASSERT_EQ(emitted, std::vector<std::int64_t>{0});
  EXPECT_EQ(counts[0], 2);

  // The edges of int64: index -2^63 has a bucket, index 2^63 has none.
  emitted.clear();
  TumblingRunner unit(plan.get(), 1.0,
                      [&](std::int64_t bucket, ResultSet) {
                        emitted.push_back(bucket);
                      });
  unit.Consume(At(-0x1p63));
  EXPECT_EQ(unit.open_buckets(), 1u);
  unit.Consume(At(0x1p63));
  unit.Flush();
  EXPECT_EQ(unit.late_drops(), 1u);
  ASSERT_EQ(emitted,
            std::vector<std::int64_t>{std::numeric_limits<std::int64_t>::min()});
}

TEST(TumblingRunnerTest, BucketsPast2To53CloseOnlyWhenTheWatermarkLeaves) {
  // At 2^60 adjacent doubles are 256 apart, so a one-second bucket's end
  // rounds to its start; readiness must still wait for a later bucket.
  auto plan = CountPlan();
  std::vector<std::int64_t> emitted;
  TumblingRunner unit(plan.get(), 1.0,
                      [&](std::int64_t bucket, ResultSet) {
                        emitted.push_back(bucket);
                      });
  unit.Consume(At(0x1p60));
  unit.Consume(At(0x1p60));
  EXPECT_EQ(unit.open_buckets(), 1u);
  EXPECT_TRUE(emitted.empty());
  unit.Consume(At(0x1p60 + 256.0));
  EXPECT_EQ(emitted, std::vector<std::int64_t>{std::int64_t{1} << 60});
  EXPECT_EQ(unit.open_buckets(), 1u);
  EXPECT_EQ(unit.late_drops(), 0u);
}

// Doubles compared by bit pattern, everything else by value.
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
            << "row " << r << " col " << c;
      } else {
        EXPECT_TRUE(a == b) << "row " << r << " col " << c;
      }
    }
  }
}

// One emitted bucket, tagged with the index of the Consume() call that
// emitted it (the trace length for Flush()).
struct Emission {
  std::size_t at;
  std::int64_t bucket;
  ResultSet result;
};

struct ReferenceRun {
  std::vector<Emission> emissions;
  std::uint64_t late_drops = 0;
  std::uint64_t low_level_evictions = 0;
};

// Per-packet reference for TumblingRunner: a fresh QueryExecution per
// bucket, fed with Consume(Packet), finished once the watermark reaches
// the bucket's end plus the slack.
ReferenceRun RunPerPacketReference(const CompiledQuery& plan,
                                   const std::vector<Packet>& trace,
                                   double width, double slack) {
  ReferenceRun out;
  std::map<std::int64_t, std::unique_ptr<QueryExecution>> open;
  double watermark = -std::numeric_limits<double>::infinity();
  std::int64_t next_unemitted = std::numeric_limits<std::int64_t>::min();
  const auto emit_front = [&](std::size_t at) {
    const auto front = open.begin();
    out.low_level_evictions += front->second->low_level_evictions();
    out.emissions.push_back({at, front->first, front->second->Finish()});
    next_unemitted = front->first + 1;
    open.erase(front);
  };
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Packet& p = trace[i];
    const auto bucket = static_cast<std::int64_t>(std::floor(p.time / width));
    if (bucket < next_unemitted) {
      ++out.late_drops;
      continue;
    }
    auto& exec = open[bucket];
    if (exec == nullptr) exec = plan.NewExecution();
    exec->Consume(p);
    watermark = std::max(watermark, p.time);
    while (!open.empty() &&
           watermark >=
               (static_cast<double>(open.begin()->first) + 1.0) * width +
                   slack) {
      emit_front(i);
    }
  }
  while (!open.empty()) emit_front(trace.size());
  return out;
}

TEST(TumblingRunnerTest, MatchesPerPacketReferenceBitForBit) {
  constexpr double kWidth = 1.0;
  constexpr double kSlack = 0x1p-7;
  TraceConfig cfg;
  cfg.rate_pps = 3000.0;
  cfg.reorder_jitter = 0.5;  // well past the slack: some packets are late
  cfg.seed = 17;
  PacketGenerator gen(cfg);
  std::vector<Packet> trace = gen.Generate(3000 * 8);

  // Insert a packet exactly at bucket 3's end + slack, just before the
  // first packet that would have carried the watermark there, so it is
  // the one that emits bucket 3.
  const double threshold = 4.0 * kWidth + kSlack;
  const auto first_past =
      std::find_if(trace.begin(), trace.end(),
                   [&](const Packet& p) { return p.time >= threshold; });
  ASSERT_NE(first_past, trace.end());
  Packet at_threshold = *first_past;
  at_threshold.time = threshold;
  const auto threshold_index =
      static_cast<std::size_t>(first_past - trace.begin());
  trace.insert(first_past, at_threshold);

  // The trace must exercise both flush triggers: runs of one bucket long
  // enough to fill the pending batch, and out-of-order packets that
  // switch back and forth between two open buckets.
  const auto bucket_of = [&](const Packet& p) {
    return static_cast<std::int64_t>(std::floor(p.time / kWidth));
  };
  std::size_t run = 1;
  std::size_t longest_run = 1;
  std::size_t backward_switches = 0;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    const std::int64_t prev = bucket_of(trace[i - 1]);
    const std::int64_t cur = bucket_of(trace[i]);
    run = cur == prev ? run + 1 : 1;
    longest_run = std::max(longest_run, run);
    if (cur < prev) ++backward_switches;
  }
  EXPECT_GT(longest_run, PacketBatch::kDefaultCapacity);
  EXPECT_GT(backward_switches, 100u);

  std::string error;
  CompiledQuery::Options options;
  options.two_level = true;
  options.low_level_slots = 16;
  auto plan = CompiledQuery::Compile(
      "select destIP, count(*), sum(len), sum(exp(time % 60)) from TCP "
      "group by destIP",
      &error, options);
  ASSERT_NE(plan, nullptr) << error;

  const ReferenceRun want =
      RunPerPacketReference(*plan, trace, kWidth, kSlack);
  EXPECT_GT(want.late_drops, 0u);
  EXPECT_GT(want.low_level_evictions, 0u);
  const auto threshold_emission = std::find_if(
      want.emissions.begin(), want.emissions.end(),
      [](const Emission& e) { return e.bucket == 3; });
  ASSERT_NE(threshold_emission, want.emissions.end());
  EXPECT_EQ(threshold_emission->at, threshold_index);

  std::vector<Emission> got;
  std::size_t at = 0;
  TumblingRunner runner(
      plan.get(), kWidth,
      [&](std::int64_t bucket, ResultSet rs) {
        got.push_back({at, bucket, std::move(rs)});
      },
      kSlack);
  for (; at < trace.size(); ++at) runner.Consume(trace[at]);
  runner.Flush();

  EXPECT_EQ(runner.late_drops(), want.late_drops);
  ASSERT_EQ(got.size(), want.emissions.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("emission " + std::to_string(i));
    EXPECT_EQ(got[i].at, want.emissions[i].at);
    EXPECT_EQ(got[i].bucket, want.emissions[i].bucket);
    ExpectBitIdentical(got[i].result, want.emissions[i].result);
  }
}

}  // namespace
}  // namespace fwdecay::dsms
