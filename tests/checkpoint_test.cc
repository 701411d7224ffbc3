// Checkpoint/recovery tests for the DSMS engine: recovery-replay
// equality against an uninterrupted run (built-ins, UDAFs, both
// aggregation modes), the crash fault matrix on Checkpoint(), hostile
// snapshot rejection, snapshot byte-determinism, and overload shedding
// driven by forward-decayed group weights.

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "dsms/engine.h"
#include "dsms/netgen.h"
#include "dsms/udafs.h"
#include "gtest/gtest.h"
#include "util/bytes.h"
#include "util/crc32c.h"
#include "util/fault_fs.h"

namespace fwdecay::dsms {
namespace {

Packet MakePacket(double time, std::uint32_t dest_ip, std::uint16_t dest_port,
                  std::uint32_t len, std::uint8_t proto = kProtoTcp) {
  Packet p;
  p.time = time;
  p.dest_ip = dest_ip;
  p.dest_port = dest_port;
  p.len = len;
  p.protocol = proto;
  return p;
}

class CheckpointTest : public testing::Test {
 protected:
  void SetUp() override {
    RegisterPaperUdafs();
    // Unique per test: ctest runs suites in parallel processes and a
    // shared path would let them stomp each other's snapshots.
    path_ = testing::TempDir() + "/fwdecay_ckpt_" +
            testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".snap";
    std::remove(path_.c_str());
    std::remove(FaultFs::TempPathFor(path_).c_str());
    FaultFs::Instance().ClearPlan();
  }
  void TearDown() override {
    FaultFs::Instance().ClearPlan();
    std::remove(path_.c_str());
    std::remove(FaultFs::TempPathFor(path_).c_str());
  }

  // Checkpoints an execution at `cut`, lets it run on to completion
  // (the "uninterrupted" outcome), then restores a second execution
  // from the snapshot, re-feeds the trace from the recorded position,
  // and asserts the two final tables are identical. Comparing against
  // the *same* execution's continuation is what makes this valid for
  // RNG-carrying UDAFs too: the snapshot holds their generator state,
  // so the restored run must replay the continuation bit for bit.
  void ExpectRecoveryReplayMatches(const std::string& gsql,
                                   const std::vector<Packet>& packets,
                                   std::size_t cut,
                                   CompiledQuery::Options opts = {}) {
    std::string error;
    auto plan = CompiledQuery::Compile(gsql, &error, opts);
    ASSERT_NE(plan, nullptr) << error;

    auto primary = plan->NewExecution();
    for (std::size_t i = 0; i < cut; ++i) primary->Consume(packets[i]);
    ASSERT_TRUE(primary->Checkpoint(path_, &error)) << error;
    for (std::size_t i = cut; i < packets.size(); ++i) {
      primary->Consume(packets[i]);
    }

    // "Crash": bring up a fresh execution from the snapshot and re-feed
    // the trace from the recorded position.
    auto restored = plan->NewExecution();
    ASSERT_TRUE(restored->Restore(path_, &error)) << error;
    EXPECT_EQ(restored->packets_consumed(), cut);
    for (std::size_t i = restored->packets_consumed(); i < packets.size();
         ++i) {
      restored->Consume(packets[i]);
    }

    const ResultSet want = primary->Finish();
    const ResultSet got = restored->Finish();
    ASSERT_FALSE(want.rows.empty());
    EXPECT_EQ(got.ToString(), want.ToString());
  }

  std::string path_;
};

TEST_F(CheckpointTest, RecoveryReplayMatchesBuiltins) {
  TraceConfig cfg;
  cfg.seed = 7;
  cfg.num_servers = 64;
  PacketGenerator gen(cfg);
  const auto packets = gen.Generate(20000);
  const std::string gsql =
      "select destIP, count(*), sum(len), avg(len), min(len), max(len), "
      "count_distinct(srcIP) from TCP group by destIP";
  ExpectRecoveryReplayMatches(gsql, packets, /*cut=*/9137);

  // Built-ins are RNG-free, so the stronger claim holds too: the
  // restored run matches a completely independent fresh execution.
  std::string error;
  auto plan = CompiledQuery::Compile(gsql, &error);
  ASSERT_NE(plan, nullptr) << error;
  auto fresh = plan->NewExecution();
  for (const Packet& p : packets) fresh->Consume(p);
  auto checkpointed = plan->NewExecution();
  for (std::size_t i = 0; i < 4242; ++i) checkpointed->Consume(packets[i]);
  ASSERT_TRUE(checkpointed->Checkpoint(path_, &error)) << error;
  checkpointed.reset();
  auto restored = plan->NewExecution();
  ASSERT_TRUE(restored->Restore(path_, &error)) << error;
  for (std::size_t i = restored->packets_consumed(); i < packets.size(); ++i) {
    restored->Consume(packets[i]);
  }
  EXPECT_EQ(restored->Finish().ToString(), fresh->Finish().ToString());
}

TEST_F(CheckpointTest, RecoveryReplayMatchesTwoLevel) {
  TraceConfig cfg;
  cfg.seed = 13;
  cfg.num_servers = 400;
  PacketGenerator gen(cfg);
  CompiledQuery::Options opts;
  opts.two_level = true;
  opts.low_level_slots = 64;  // force plenty of evictions around the cut
  ExpectRecoveryReplayMatches(
      "select destIP, count(*), sum(len) from TCP group by destIP",
      gen.Generate(30000), /*cut=*/14551, opts);
}

TEST_F(CheckpointTest, RecoveryReplayMatchesSamplingUdafs) {
  // PRISAMP/WRSAMP carry live RNG state and a heap; bit-identical
  // recovery requires both to round-trip exactly.
  TraceConfig cfg;
  cfg.seed = 21;
  cfg.rate_pps = 1000.0;
  PacketGenerator gen(cfg);
  ExpectRecoveryReplayMatches(
      "select tb, PRISAMP(srcIP, exp(time % 60), 8), "
      "WRSAMP(srcIP, (time % 60) + 1, 8), RESSAMP(srcIP, 8), "
      "AGGSAMP(srcIP, 8) from TCP group by time/60 as tb",
      gen.Generate(15000), /*cut=*/7211);
}

TEST_F(CheckpointTest, RecoveryReplayMatchesSketchUdafs) {
  TraceConfig cfg;
  cfg.seed = 33;
  cfg.num_servers = 100;
  cfg.server_skew = 1.5;
  cfg.rate_pps = 1000.0;
  PacketGenerator gen(cfg);
  const auto packets = gen.Generate(15000);
  ExpectRecoveryReplayMatches(
      "select tb, FDHH(destIP, (time % 60)*(time % 60) + 1, 0.05, 0.01), "
      "UNARYHH(destIP, 0.05, 0.01), "
      "FDQUANTILE(len, (time % 60)*(time % 60) + 1, 0.5, 11), "
      "FDDISTINCT(destIP, (time % 60)*(time % 60) + 1) "
      "from TCP group by time/60 as tb",
      packets, /*cut=*/6733);
  ExpectRecoveryReplayMatches(
      "select tb, SWHH(time, destIP, 0.05, 0.01), EHDSUM(time, len, 0.05) "
      "from TCP group by time/60 as tb",
      packets, /*cut=*/11003);
}

TEST_F(CheckpointTest, CheckpointAtEveryPhaseBoundary) {
  // Cut at the edges: before any input, after one packet, at the end.
  TraceConfig cfg;
  cfg.seed = 5;
  PacketGenerator gen(cfg);
  const auto packets = gen.Generate(2000);
  const std::string gsql =
      "select destPort, count(*), sum(len) from PKT group by destPort";
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, packets.size()}) {
    SCOPED_TRACE(cut);
    ExpectRecoveryReplayMatches(gsql, packets, cut);
  }
}

TEST_F(CheckpointTest, SnapshotBytesAreDeterministic) {
  // Two checkpoints of the same state must be byte-identical — group
  // iteration order must not leak unordered_map layout into the file.
  TraceConfig cfg;
  cfg.seed = 3;
  cfg.num_servers = 128;
  PacketGenerator gen(cfg);
  std::string error;
  auto plan = CompiledQuery::Compile(
      "select destIP, count(*), count_distinct(srcIP) from TCP "
      "group by destIP",
      &error);
  ASSERT_NE(plan, nullptr) << error;
  auto exec = plan->NewExecution();
  for (const Packet& p : gen.Generate(8000)) exec->Consume(p);

  ASSERT_TRUE(exec->Checkpoint(path_, &error)) << error;
  std::vector<std::uint8_t> first;
  ASSERT_TRUE(FaultFs::Instance().ReadFile(path_, &first, &error)) << error;
  ASSERT_TRUE(exec->Checkpoint(path_, &error)) << error;
  std::vector<std::uint8_t> second;
  ASSERT_TRUE(FaultFs::Instance().ReadFile(path_, &second, &error)) << error;
  EXPECT_EQ(first, second);
}

TEST_F(CheckpointTest, FaultMatrixNeverLeavesCorruptSnapshot) {
  // Kill the checkpoint writer at every fault point. Whatever file
  // survives must restore cleanly and behave as either the old or the
  // new snapshot — never a torn hybrid.
  TraceConfig cfg;
  cfg.seed = 17;
  PacketGenerator gen(cfg);
  const auto packets = gen.Generate(6000);
  std::string error;
  auto plan = CompiledQuery::Compile(
      "select destIP, count(*), sum(len) from TCP group by destIP", &error);
  ASSERT_NE(plan, nullptr) << error;

  auto exec = plan->NewExecution();
  for (std::size_t i = 0; i < 2000; ++i) exec->Consume(packets[i]);
  ASSERT_TRUE(exec->Checkpoint(path_, &error)) << error;
  const std::uint64_t old_pos = exec->packets_consumed();
  for (std::size_t i = 2000; i < 5000; ++i) exec->Consume(packets[i]);
  const std::uint64_t new_pos = exec->packets_consumed();

  const FaultPoint points[] = {
      FaultPoint::kOpenForWrite, FaultPoint::kTornWrite,
      FaultPoint::kWriteError, FaultPoint::kFsyncError,
      FaultPoint::kCrashBeforeRename, FaultPoint::kCrashAfterRename};
  for (FaultPoint point : points) {
    SCOPED_TRACE(static_cast<int>(point));
    {
      ScopedFaultPlan plan_guard(point, /*byte_limit=*/53);
      error.clear();
      EXPECT_FALSE(exec->Checkpoint(path_, &error));
      EXPECT_FALSE(error.empty());
    }
    FaultFs::Instance().RemoveStaleTemp(FaultFs::TempPathFor(path_));

    auto restored = plan->NewExecution();
    ASSERT_TRUE(restored->Restore(path_, &error)) << error;
    EXPECT_TRUE(restored->packets_consumed() == old_pos ||
                restored->packets_consumed() == new_pos);
    // The restored state replays to the exact uninterrupted result.
    for (std::size_t i = restored->packets_consumed(); i < packets.size();
         ++i) {
      restored->Consume(packets[i]);
    }
    auto uninterrupted = plan->NewExecution();
    for (const Packet& p : packets) uninterrupted->Consume(p);
    EXPECT_EQ(restored->Finish().ToString(),
              uninterrupted->Finish().ToString());
    // Reset to the known-good old snapshot for the next fault point.
    auto writer = plan->NewExecution();
    for (std::size_t i = 0; i < 2000; ++i) writer->Consume(packets[i]);
    ASSERT_TRUE(writer->Checkpoint(path_, &error)) << error;
  }
}

TEST_F(CheckpointTest, RestoreRejectsCorruptSnapshots) {
  TraceConfig cfg;
  cfg.seed = 29;
  PacketGenerator gen(cfg);
  std::string error;
  auto plan = CompiledQuery::Compile(
      "select destIP, count(*) from TCP group by destIP", &error);
  ASSERT_NE(plan, nullptr) << error;
  auto exec = plan->NewExecution();
  for (const Packet& p : gen.Generate(3000)) exec->Consume(p);
  ASSERT_TRUE(exec->Checkpoint(path_, &error)) << error;

  std::vector<std::uint8_t> good;
  ASSERT_TRUE(FaultFs::Instance().ReadFile(path_, &good, &error)) << error;

  // Any single bit flip in the payload is caught by the CRC frame.
  for (std::size_t pos = 24; pos < good.size(); pos += 131) {
    auto bad = good;
    bad[pos] ^= 0x04;
    ASSERT_TRUE(FaultFs::Instance().AtomicWriteFile(path_, bad, &error));
    auto victim = plan->NewExecution();
    EXPECT_FALSE(victim->Restore(path_, &error))
        << "undetected corruption at byte " << pos;
  }

  // Truncation anywhere is rejected.
  for (std::size_t len : {std::size_t{0}, std::size_t{7}, std::size_t{23},
                          good.size() - 1}) {
    std::vector<std::uint8_t> cut(good.begin(), good.begin() + len);
    ASSERT_TRUE(FaultFs::Instance().AtomicWriteFile(path_, cut, &error));
    auto victim = plan->NewExecution();
    EXPECT_FALSE(victim->Restore(path_, &error)) << "length " << len;
  }

  // A missing file is a plain error, not a crash.
  ASSERT_TRUE(FaultFs::Instance().AtomicWriteFile(path_, good, &error));
  auto victim = plan->NewExecution();
  EXPECT_FALSE(victim->Restore(path_ + ".nope", &error));
}

TEST_F(CheckpointTest, RestoreRejectsDifferentQueryPlan) {
  TraceConfig cfg;
  PacketGenerator gen(cfg);
  std::string error;
  auto plan = CompiledQuery::Compile(
      "select destIP, count(*) from TCP group by destIP", &error);
  ASSERT_NE(plan, nullptr) << error;
  auto exec = plan->NewExecution();
  for (const Packet& p : gen.Generate(1000)) exec->Consume(p);
  ASSERT_TRUE(exec->Checkpoint(path_, &error)) << error;

  auto other = CompiledQuery::Compile(
      "select destIP, sum(len) from TCP group by destIP", &error);
  ASSERT_NE(other, nullptr) << error;
  auto victim = other->NewExecution();
  EXPECT_FALSE(victim->Restore(path_, &error));
  EXPECT_NE(error.find("different query plan"), std::string::npos) << error;

  // Same text, different aggregation-mode options: also rejected.
  CompiledQuery::Options two_opts;
  two_opts.two_level = true;
  auto two_level = CompiledQuery::Compile(
      "select destIP, count(*) from TCP group by destIP", &error, two_opts);
  ASSERT_NE(two_level, nullptr) << error;
  auto victim2 = two_level->NewExecution();
  EXPECT_FALSE(victim2->Restore(path_, &error));
}

// A FWDSNAP1 image with bytes [at, at + len) of its payload replaced by
// `replacement` and the frame rebuilt: payload length and CRC32C are
// recomputed, so only Restore's structural checks can reject it.
std::vector<std::uint8_t> SplicePayload(const std::vector<std::uint8_t>& image,
                                        std::size_t at, std::size_t len,
                                        const std::vector<std::uint8_t>& with) {
  constexpr std::size_t kHeader = 24;  // magic, version, CRC32C, length
  std::vector<std::uint8_t> payload(image.begin() + kHeader, image.end());
  payload.erase(payload.begin() + static_cast<std::ptrdiff_t>(at),
                payload.begin() + static_cast<std::ptrdiff_t>(at + len));
  payload.insert(payload.begin() + static_cast<std::ptrdiff_t>(at),
                 with.begin(), with.end());
  ByteWriter out;
  out.WriteBytes(image.data(), 12);  // magic + version
  out.WriteU32(Crc32c(payload.data(), payload.size()));
  out.WriteU64(payload.size());
  out.WriteBytes(payload.data(), payload.size());
  return out.Take();
}

// Every group key column has the plan's static type, so a snapshot whose
// key frame carries another type's tag is corrupt: restoring it would
// file a key that no live row ever equals, and the next packets of that
// destPort would open a second group beside it.
TEST_F(CheckpointTest, RestoreRejectsKeyOfWrongType) {
  TraceConfig cfg;
  cfg.seed = 7;
  cfg.num_servers = 4;
  cfg.ports_per_server = 1;
  PacketGenerator gen(cfg);
  const std::vector<Packet> packets = gen.Generate(5000);
  for (const bool two_level : {false, true}) {
    SCOPED_TRACE(two_level ? "two-level" : "one-level");
    CompiledQuery::Options opts;
    opts.two_level = two_level;
    opts.low_level_slots = 64;
    std::string error;
    auto plan = CompiledQuery::Compile(
        "select destPort, count(*) from TCP group by destPort", &error, opts);
    ASSERT_NE(plan, nullptr) << error;
    auto exec = plan->NewExecution();
    for (const Packet& p : packets) exec->Consume(p);
    std::vector<std::uint8_t> image;
    ASSERT_TRUE(exec->CheckpointBytes(&image, &error)) << error;

    // Payload: 81 bytes of plan and counters, the u32 low-slot count,
    // then a one-level plan's u32 group count or a two-level plan's
    // first low slot (u64 index, u64 hash); then that group's u32 key
    // arity and its first key column's tag and 8 value bytes.
    const std::size_t tag_at = two_level ? 81 + 4 + 16 + 4 : 81 + 4 + 4 + 4;
    ASSERT_EQ(image[24 + tag_at - 4], 1u);  // key arity 1
    ASSERT_EQ(image[24 + tag_at], 0u);      // int64 tag
    std::vector<std::uint8_t> key_frame(image.begin() + 24 + tag_at,
                                        image.begin() + 24 + tag_at + 9);

    // The reframing itself is sound: the unchanged key restores.
    auto control = plan->NewExecution();
    const auto same = SplicePayload(image, tag_at, 9, key_frame);
    EXPECT_TRUE(control->RestoreBytes(same.data(), same.size(), &error))
        << error;

    // The int64's bytes re-tagged as a double.
    key_frame[0] = 1;
    const auto as_double = SplicePayload(image, tag_at, 9, key_frame);
    auto victim = plan->NewExecution();
    EXPECT_FALSE(
        victim->RestoreBytes(as_double.data(), as_double.size(), &error));
    EXPECT_NE(error.find("group corrupt"), std::string::npos) << error;

    // A well-formed string key frame: tag 2, u32 length, bytes.
    const std::vector<std::uint8_t> as_string_key = {2, 2, 0, 0, 0, '8', '0'};
    const auto as_string = SplicePayload(image, tag_at, 9, as_string_key);
    auto victim2 = plan->NewExecution();
    EXPECT_FALSE(
        victim2->RestoreBytes(as_string.data(), as_string.size(), &error));
    EXPECT_NE(error.find("group corrupt"), std::string::npos) << error;
  }
}

// A little-endian field of a FWDSNAP1 image, by payload offset.
template <typename T>
T PayloadField(const std::vector<std::uint8_t>& image, std::size_t at) {
  T v;
  std::memcpy(&v, image.data() + 24 + at, sizeof(v));
  return v;
}

template <typename T>
std::vector<std::uint8_t> FieldBytes(T v) {
  std::vector<std::uint8_t> out(sizeof(v));
  std::memcpy(out.data(), &v, sizeof(v));
  return out;
}

// Length of the group frame at payload offset `at`, for a plan with one
// key column and one aggregate: u32 key arity, the key's tag and 8
// bytes, weight, tuples, then the aggregate's u32-prefixed frame.
std::size_t GroupFrameLen(const std::vector<std::uint8_t>& image,
                          std::size_t at) {
  return 33 + PayloadField<std::uint32_t>(image, at + 29);
}

// Payload offsets of each low slot (u64 index, u64 hash, group frame),
// then of the u32 high-group count, for such a plan. The payload opens
// with 81 bytes of plan and counters and the u32 low-slot count.
std::vector<std::size_t> SectionOffsets(
    const std::vector<std::uint8_t>& image) {
  std::vector<std::size_t> out;
  std::size_t at = 81 + 4;
  const auto low = PayloadField<std::uint32_t>(image, 81);
  for (std::uint32_t i = 0; i < low; ++i) {
    out.push_back(at);
    at += 16 + GroupFrameLen(image, at + 16);
  }
  out.push_back(at);
  return out;
}

// A CRC-valid snapshot must still be one the engine could have written:
// each group once, each low slot at its hash's home and holding the
// hash of its own key. Otherwise the restored run silently diverges
// from the never-crashed one: a group listed twice finishes as two
// rows, and a misfiled slot is one no row's probe ever hits.
TEST_F(CheckpointTest, RestoreRejectsHighGroupListedTwice) {
  TraceConfig cfg;
  cfg.seed = 7;
  cfg.num_servers = 4;
  cfg.ports_per_server = 1;
  PacketGenerator gen(cfg);
  const std::vector<Packet> packets = gen.Generate(5000);
  for (const bool two_level : {false, true}) {
    SCOPED_TRACE(two_level ? "two-level" : "one-level");
    CompiledQuery::Options opts;
    opts.two_level = two_level;
    opts.low_level_slots = 2;  // four keys in two slots: evictions
    std::string error;
    auto plan = CompiledQuery::Compile(
        "select destIP, count(*) from TCP group by destIP", &error, opts);
    ASSERT_NE(plan, nullptr) << error;
    auto exec = plan->NewExecution();
    for (const Packet& p : packets) exec->Consume(p);
    std::vector<std::uint8_t> image;
    ASSERT_TRUE(exec->CheckpointBytes(&image, &error)) << error;

    const std::size_t count_at = SectionOffsets(image).back();
    const auto n_high = PayloadField<std::uint32_t>(image, count_at);
    ASSERT_GE(n_high, 2u);
    const std::size_t first = count_at + 4;
    const std::size_t len = GroupFrameLen(image, first);
    const std::vector<std::uint8_t> frame(image.begin() + 24 + first,
                                          image.begin() + 24 + first + len);

    // The reframing itself is sound: the unchanged section restores.
    std::vector<std::uint8_t> once = FieldBytes(n_high);
    once.insert(once.end(), frame.begin(), frame.end());
    const auto same = SplicePayload(image, count_at, 4 + len, once);
    auto control = plan->NewExecution();
    EXPECT_TRUE(control->RestoreBytes(same.data(), same.size(), &error))
        << error;

    // The first high group's frame twice, and the count bumped to match.
    std::vector<std::uint8_t> twice = FieldBytes(n_high + 1);
    twice.insert(twice.end(), frame.begin(), frame.end());
    twice.insert(twice.end(), frame.begin(), frame.end());
    const auto dup = SplicePayload(image, count_at, 4 + len, twice);
    auto victim = plan->NewExecution();
    EXPECT_FALSE(victim->RestoreBytes(dup.data(), dup.size(), &error));
    EXPECT_NE(error.find("group twice"), std::string::npos) << error;
  }
}

class RestoreLowSlotTest : public CheckpointTest {
 protected:
  void SetUp() override {
    CheckpointTest::SetUp();
    TraceConfig cfg;
    cfg.seed = 7;
    cfg.num_servers = 4;
    cfg.ports_per_server = 1;
    PacketGenerator gen(cfg);
    CompiledQuery::Options opts;
    opts.two_level = true;
    opts.low_level_slots = 64;
    std::string error;
    plan_ = CompiledQuery::Compile(
        "select destIP, count(*) from TCP group by destIP", &error, opts);
    ASSERT_NE(plan_, nullptr) << error;
    auto exec = plan_->NewExecution();
    for (const Packet& p : gen.Generate(5000)) exec->Consume(p);
    ASSERT_TRUE(exec->CheckpointBytes(&image_, &error)) << error;
    slots_ = SectionOffsets(image_);
    slots_.pop_back();
    ASSERT_FALSE(slots_.empty());
  }

  // Restores `image_` with the first low slot's u64 at payload offset
  // `field` (0: index, 8: hash) replaced by `value`.
  bool RestoreWithField(std::size_t field, std::uint64_t value,
                        std::string* error) {
    const auto bad =
        SplicePayload(image_, slots_[0] + field, 8, FieldBytes(value));
    auto victim = plan_->NewExecution();
    return victim->RestoreBytes(bad.data(), bad.size(), error);
  }

  std::unique_ptr<CompiledQuery> plan_;
  std::vector<std::uint8_t> image_;
  std::vector<std::size_t> slots_;  // payload offset of each low slot
};

TEST_F(RestoreLowSlotTest, RejectsHashThatIsNotItsKeys) {
  const auto hash = PayloadField<std::uint64_t>(image_, slots_[0] + 8);
  std::string error;
  ASSERT_TRUE(RestoreWithField(8, hash, &error)) << error;
  // Bit 40 lies above the 64-slot mask: the slot is still the hash's
  // home, so only the key's own hash can tell.
  EXPECT_FALSE(RestoreWithField(8, hash ^ (std::uint64_t{1} << 40), &error));
  EXPECT_NE(error.find("low-level"), std::string::npos) << error;
}

TEST_F(RestoreLowSlotTest, RejectsSlotAwayFromItsHashsHome) {
  std::vector<bool> taken(64, false);
  for (const std::size_t at : slots_) {
    taken[PayloadField<std::uint64_t>(image_, at)] = true;
  }
  // A free slot, so only the home check can object; the slot's own
  // index is taken, so this is not its home.
  std::uint64_t free_index = 0;
  while (taken[free_index]) ++free_index;
  std::string error;
  EXPECT_FALSE(RestoreWithField(0, free_index, &error));
  EXPECT_NE(error.find("low-level"), std::string::npos) << error;
}

// --- Overload shedding -----------------------------------------------------

TEST_F(CheckpointTest, SheddingBoundsGroupCount) {
  TraceConfig cfg;
  cfg.seed = 41;
  cfg.num_servers = 500;
  PacketGenerator gen(cfg);
  std::string error;
  auto plan = CompiledQuery::Compile(
      "select destIP, count(*) from TCP group by destIP", &error);
  ASSERT_NE(plan, nullptr) << error;

  auto exec = plan->NewExecution();
  OverloadPolicy policy;
  policy.max_groups = 32;
  policy.decay_alpha = 0.1;
  exec->SetOverloadPolicy(policy);
  std::uint64_t fed = 0;
  for (const Packet& p : gen.Generate(20000)) {
    exec->Consume(p);
    ++fed;
    ASSERT_LE(exec->GroupCount(), policy.max_groups);
  }
  EXPECT_GT(exec->groups_shed(), 0u);
  EXPECT_GT(exec->tuples_shed(), 0u);
  EXPECT_LT(exec->tuples_shed(), fed);
  const ResultSet rs = exec->Finish();
  EXPECT_LE(rs.rows.size(), policy.max_groups);
}

TEST_F(CheckpointTest, SheddingEvictsLowestForwardWeight) {
  // With alpha > 0 the forward-decayed weight grows with the timestamp,
  // so the stale low-traffic group is the one sacrificed — even though
  // every group here holds exactly one tuple.
  std::string error;
  auto plan = CompiledQuery::Compile(
      "select destIP, count(*) from TCP group by destIP", &error);
  ASSERT_NE(plan, nullptr) << error;
  auto exec = plan->NewExecution();
  OverloadPolicy policy;
  policy.max_groups = 2;
  policy.decay_alpha = 1.0;
  exec->SetOverloadPolicy(policy);

  exec->Consume(MakePacket(1.0, /*dest_ip=*/10, 80, 100));
  exec->Consume(MakePacket(2.0, /*dest_ip=*/20, 80, 100));
  // Group 30 arrives later with the largest weight: group 10 (oldest,
  // smallest g(t - L)) must be the one shed.
  exec->Consume(MakePacket(3.0, /*dest_ip=*/30, 80, 100));
  EXPECT_EQ(exec->groups_shed(), 1u);
  EXPECT_EQ(exec->tuples_shed(), 1u);

  const ResultSet rs = exec->Finish();
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0].AsInt(), 20);
  EXPECT_EQ(rs.rows[1][0].AsInt(), 30);
}

TEST_F(CheckpointTest, SheddingWithZeroAlphaEvictsSmallestGroup) {
  // alpha == 0 degrades the weight to a tuple count: the group with the
  // fewest tuples goes first, with the key ordering breaking ties.
  std::string error;
  auto plan = CompiledQuery::Compile(
      "select destIP, count(*) from TCP group by destIP", &error);
  ASSERT_NE(plan, nullptr) << error;
  auto exec = plan->NewExecution();
  OverloadPolicy policy;
  policy.max_groups = 2;
  exec->SetOverloadPolicy(policy);

  exec->Consume(MakePacket(1.0, 10, 80, 100));
  exec->Consume(MakePacket(2.0, 10, 80, 100));
  exec->Consume(MakePacket(3.0, 20, 80, 100));  // the singleton
  exec->Consume(MakePacket(4.0, 30, 80, 100));  // evicts group 20
  EXPECT_EQ(exec->groups_shed(), 1u);
  EXPECT_EQ(exec->tuples_shed(), 1u);

  const ResultSet rs = exec->Finish();
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0].AsInt(), 10);
  EXPECT_EQ(rs.rows[1][0].AsInt(), 30);
}

TEST_F(CheckpointTest, SheddingStateSurvivesCheckpoint) {
  // Policy, group weights, and shed counters all round-trip, so the
  // restored execution sheds exactly like the uninterrupted one.
  TraceConfig cfg;
  cfg.seed = 47;
  cfg.num_servers = 300;
  PacketGenerator gen(cfg);
  const auto packets = gen.Generate(16000);
  std::string error;
  auto plan = CompiledQuery::Compile(
      "select destIP, count(*), sum(len) from TCP group by destIP", &error);
  ASSERT_NE(plan, nullptr) << error;

  OverloadPolicy policy;
  policy.max_groups = 48;
  policy.decay_alpha = 0.05;
  policy.landmark = 1.0;

  auto uninterrupted = plan->NewExecution();
  uninterrupted->SetOverloadPolicy(policy);
  for (const Packet& p : packets) uninterrupted->Consume(p);

  auto primary = plan->NewExecution();
  primary->SetOverloadPolicy(policy);
  for (std::size_t i = 0; i < 8000; ++i) primary->Consume(packets[i]);
  ASSERT_TRUE(primary->Checkpoint(path_, &error)) << error;
  const std::uint64_t shed_at_cut = primary->groups_shed();
  EXPECT_GT(shed_at_cut, 0u);
  primary.reset();

  auto restored = plan->NewExecution();
  ASSERT_TRUE(restored->Restore(path_, &error)) << error;
  EXPECT_EQ(restored->overload_policy().max_groups, policy.max_groups);
  EXPECT_DOUBLE_EQ(restored->overload_policy().decay_alpha,
                   policy.decay_alpha);
  EXPECT_EQ(restored->groups_shed(), shed_at_cut);
  for (std::size_t i = restored->packets_consumed(); i < packets.size(); ++i) {
    restored->Consume(packets[i]);
  }
  EXPECT_EQ(restored->groups_shed(), uninterrupted->groups_shed());
  EXPECT_EQ(restored->tuples_shed(), uninterrupted->tuples_shed());
  EXPECT_EQ(restored->Finish().ToString(), uninterrupted->Finish().ToString());
}

TEST_F(CheckpointTest, SheddingInTwoLevelMode) {
  TraceConfig cfg;
  cfg.seed = 53;
  cfg.num_servers = 400;
  PacketGenerator gen(cfg);
  std::string error;
  CompiledQuery::Options opts;
  opts.two_level = true;
  opts.low_level_slots = 32;
  auto plan = CompiledQuery::Compile(
      "select destIP, count(*) from TCP group by destIP", &error, opts);
  ASSERT_NE(plan, nullptr) << error;
  auto exec = plan->NewExecution();
  OverloadPolicy policy;
  policy.max_groups = 64;
  policy.decay_alpha = 0.1;
  exec->SetOverloadPolicy(policy);
  for (const Packet& p : gen.Generate(20000)) exec->Consume(p);
  EXPECT_GT(exec->groups_shed(), 0u);
  EXPECT_LE(exec->Finish().rows.size(),
            policy.max_groups + opts.low_level_slots);
}

}  // namespace
}  // namespace fwdecay::dsms
