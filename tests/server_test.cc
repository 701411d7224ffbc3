// fwdecayd robustness tests over real loopback sockets: end-to-end
// ingest/poll/stats, hostile-input hardening (oversized frames, bad
// magic, lying batch counts), deterministic backpressure, greedy-tenant
// shedding visible in /metrics, idle reaping, snapshot rotation with
// corrupt-newest fallback, and the injected socket fault matrix.

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dsms/engine.h"
#include "dsms/netgen.h"
#include "dsms/parser.h"
#include "dsms/udafs.h"
#include "gtest/gtest.h"
#include "server/client.h"
#include "server/daemon.h"
#include "server/journal.h"
#include "util/bytes.h"
#include "util/crc32c.h"
#include "util/fault_fs.h"

namespace fwdecay::server {
namespace {

constexpr char kGsql[] =
    "select destIP, count(*), sum(len) from TCP group by destIP";

dsms::PacketBatch MakeBatch(const std::vector<dsms::Packet>& packets,
                            std::size_t begin, std::size_t end) {
  dsms::PacketBatch batch(end - begin);
  for (std::size_t i = begin; i < end; ++i) (void)batch.Append(packets[i]);
  return batch;
}

/// Runs the same batches through a fresh local execution under the same
/// overload policy the server's tenant would install, and returns the
/// encoded result — the bit-identical oracle for PollResult.
std::vector<std::uint8_t> ReferenceResult(const std::string& gsql,
                                          const TenantSpec& spec,
                                          const std::vector<dsms::Packet>& ps,
                                          std::size_t count) {
  std::string error;
  auto plan = dsms::CompiledQuery::Compile(gsql, &error);
  EXPECT_NE(plan, nullptr) << error;
  auto exec = plan->NewExecution();
  dsms::OverloadPolicy policy;
  policy.max_groups = spec.max_groups;
  policy.decay_alpha = spec.decay_alpha;
  policy.landmark = spec.landmark;
  exec->SetOverloadPolicy(policy);
  for (std::size_t i = 0; i < count; ++i) exec->Consume(ps[i]);
  return EncodeResult(exec->Finish());
}

/// Minimal HTTP GET against the daemon's metrics listener.
std::string HttpGet(std::uint16_t port, const std::string& path) {
  Socket sock;
  std::string error;
  if (Connect(port, 2000, &sock, &error) != IoStatus::kOk) return "";
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  if (SendExactly(sock, request.data(), request.size(), 2000, &error) !=
      IoStatus::kOk) {
    return "";
  }
  std::string response;
  char c = 0;
  while (RecvExactly(sock, &c, 1, 2000, &error) == IoStatus::kOk) {
    response.push_back(c);
  }
  return response;
}

class ServerTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/fwdecay_srv_" +
           testing::UnitTest::GetInstance()->current_test_info()->name();
    RemoveTree(dir_);
    FaultFs::Instance().ClearPlan();
    NetFault::Instance().Clear();
    options_.data_dir = dir_;
  }
  void TearDown() override {
    FaultFs::Instance().ClearPlan();
    NetFault::Instance().Clear();
    RemoveTree(dir_);
  }

  static void RemoveTree(const std::string& dir) {
    // The data dir holds only flat files the daemon created.
    for (const char* name :
         {"CURRENT", "CURRENT.tmp"}) {
      std::remove((dir + "/" + name).c_str());
    }
    for (std::uint64_t e = 0; e < 64; ++e) {
      std::remove(SnapshotManager(dir, 1).SnapPath(e).c_str());
      std::remove(SnapshotManager(dir, 1).JournalPath(e).c_str());
      std::remove(
          FaultFs::TempPathFor(SnapshotManager(dir, 1).SnapPath(e)).c_str());
    }
    rmdir(dir.c_str());
  }

  std::string dir_;
  DaemonOptions options_;
};

TEST_F(ServerTest, EndToEndIngestPollStats) {
  dsms::TraceConfig cfg;
  cfg.seed = 11;
  cfg.num_servers = 32;
  const auto packets = dsms::PacketGenerator(cfg).Generate(4000);

  Daemon daemon(options_);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.Connect(daemon.ingest_port(), &error)) << error;
  ASSERT_TRUE(client.Hello("acme", &error)) << error;

  std::uint64_t query_id = 0;
  ErrCode code = ErrCode::kNone;
  ASSERT_TRUE(client.RegisterQuery("hh", kGsql, /*two_level=*/false,
                                   &query_id, &code, &error))
      << error;

  constexpr std::size_t kBatchSize = 500;
  for (std::size_t off = 0; off < packets.size(); off += kBatchSize) {
    IngestReply reply;
    ASSERT_TRUE(client.Ingest(off, MakeBatch(packets, off, off + kBatchSize),
                              &reply, &error))
        << error;
    ASSERT_TRUE(reply.ok) << reply.message;
    EXPECT_FALSE(reply.busy);
  }
  EXPECT_EQ(daemon.batches_acked(), packets.size() / kBatchSize);

  // Poll is non-destructive: two polls agree with each other and with
  // the local reference fed the same packets under the same policy.
  dsms::ResultSet first;
  ASSERT_TRUE(client.PollResult(query_id, &first, &code, &error)) << error;
  dsms::ResultSet second;
  ASSERT_TRUE(client.PollResult(query_id, &second, &code, &error)) << error;
  TenantSpec defaults = options_.tenant_defaults;
  const auto expected =
      ReferenceResult(kGsql, defaults, packets, packets.size());
  EXPECT_EQ(EncodeResult(first), expected);
  EXPECT_EQ(EncodeResult(second), expected);

  WireStats stats;
  ASSERT_TRUE(client.Stats(&stats, &error)) << error;
  EXPECT_EQ(stats.batches_acked, packets.size() / kBatchSize);
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_EQ(stats.tenants, 1u);

  // The /metrics endpoint serves Prometheus text; /healthz answers ok.
  const std::string scrape = HttpGet(daemon.metrics_port(), "/metrics");
  EXPECT_NE(scrape.find("200 OK"), std::string::npos);
  EXPECT_NE(scrape.find("fwdecay_server_batches_acked_total"),
            std::string::npos);
  EXPECT_NE(HttpGet(daemon.metrics_port(), "/healthz").find("ok"),
            std::string::npos);
  EXPECT_NE(HttpGet(daemon.metrics_port(), "/nope").find("404"),
            std::string::npos);

  daemon.Stop();
}

TEST_F(ServerTest, RegisterValidationAndQuotas) {
  options_.tenant_defaults.max_queries = 1;
  Daemon daemon(options_);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.Connect(daemon.ingest_port(), &error)) << error;

  // Register before Hello is refused.
  std::uint64_t id = 0;
  ErrCode code = ErrCode::kNone;
  EXPECT_FALSE(client.RegisterQuery("q", kGsql, false, &id, &code, &error));
  EXPECT_EQ(code, ErrCode::kNotAdmitted);

  ASSERT_TRUE(client.Hello("acme", &error)) << error;

  // Invalid names and unparseable GSQL get structured refusals; the
  // connection survives every one of them.
  EXPECT_FALSE(
      client.RegisterQuery("Bad Name!", kGsql, false, &id, &code, &error));
  EXPECT_EQ(code, ErrCode::kBadName);
  EXPECT_FALSE(client.RegisterQuery("q", "select garbage from nowhere",
                                    false, &id, &code, &error));
  EXPECT_EQ(code, ErrCode::kParseError);
  const std::string huge(dsms::kMaxGsqlBytes + 1, 'x');
  EXPECT_FALSE(client.RegisterQuery("q", huge, false, &id, &code, &error));
  EXPECT_EQ(code, ErrCode::kQueryTooLong);

  // First real registration lands; the duplicate name and the quota
  // excess are refused.
  ASSERT_TRUE(client.RegisterQuery("q", kGsql, false, &id, &code, &error))
      << error;
  EXPECT_FALSE(client.RegisterQuery("q", kGsql, false, &id, &code, &error));
  EXPECT_EQ(code, ErrCode::kBadName);
  EXPECT_FALSE(client.RegisterQuery("q2", kGsql, false, &id, &code, &error));
  EXPECT_EQ(code, ErrCode::kQuotaExceeded);
  EXPECT_EQ(daemon.query_count(), 1u);

  daemon.Stop();
}

// Aggregate signatures are checked when a registration compiles: calls
// that would abort the first batch (wrong arity, a sketch size past what
// a snapshot may restore, a universe wider than the q-digest's) get
// kParseError, nothing reaches the journal, so a restart has no abort to
// replay, and the daemon keeps serving the same connection.
TEST_F(ServerTest, HostileAggregateCallsAreRefusedBeforeJournaling) {
  dsms::RegisterPaperUdafs();
  const auto packets = dsms::PacketGenerator(dsms::TraceConfig{}).Generate(500);
  Daemon daemon(options_);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect(daemon.ingest_port(), &error)) << error;
  ASSERT_TRUE(client.Hello("acme", &error)) << error;

  const auto journaled_registrations = [&] {
    std::size_t registrations = 0;
    for (std::uint64_t e = 0; e < 4; ++e) {
      const std::string path = SnapshotManager(dir_, 1).JournalPath(e);
      if (!FaultFs::Instance().FileExists(path)) continue;
      std::vector<JournalRecord> records;
      bool torn_tail = false;
      std::string read_error;
      EXPECT_TRUE(ReadJournalFile(path, &records, &torn_tail, &read_error))
          << read_error;
      for (const JournalRecord& r : records) {
        registrations += r.type == JournalRecordType::kRegister ? 1 : 0;
      }
    }
    return registrations;
  };

  std::uint64_t id = 0;
  ErrCode code = ErrCode::kNone;
  // None of these can run (an out-of-range parameter, an unknown name, an
  // aggregate or short call in a row expression, a string operand, a
  // non-mergeable UDAF split two-level), so each is a compile error.
  const std::pair<const char*, bool> hostile[] = {
      {"select sum() from TCP", false},
      {"select FDQUANTILE(len, 1, 0.5, 70) from TCP", false},
      {"select RESSAMP(srcIP, 1000000000000) from TCP", false},
      {"select destPort, FDHH(destIP, 1, 0.05, 1e-12) from TCP "
       "group by destPort",
       false},
      {"select foo, count(*) from TCP group by foo", false},
      {"select count(*) from TCP where count(*) > 1", false},
      {"select log(len), count(*) from TCP group by log(len)", false},
      {"select sum(pow(len)) from TCP", false},
      {"select sum('x') from TCP", false},
      {"select srcIP, UNARYHH(destIP, 0.05) from TCP group by srcIP", true},
  };
  for (const auto& [gsql, two_level] : hostile) {
    EXPECT_FALSE(
        client.RegisterQuery("bad", gsql, two_level, &id, &code, &error))
        << gsql;
    EXPECT_EQ(code, ErrCode::kParseError) << gsql;
  }
  EXPECT_EQ(daemon.query_count(), 0u);
  EXPECT_EQ(journaled_registrations(), 0u);

  ASSERT_TRUE(client.RegisterQuery("q", kGsql, false, &id, &code, &error))
      << error;
  // Integer division by zero is defined (x / 0 == 0), so this query
  // compiles, runs and returns every group.
  std::uint64_t div_id = 0;
  ASSERT_TRUE(client.RegisterQuery(
      "div", "select destPort, sum(len) from TCP group by destPort "
             "having sum(len) / min(len - len) >= 0",
      false, &div_id, &code, &error))
      << error;
  IngestReply reply;
  ASSERT_TRUE(client.Ingest(0, MakeBatch(packets, 0, packets.size()), &reply,
                            &error))
      << error;
  EXPECT_TRUE(reply.ok) << reply.message;
  dsms::ResultSet result;
  ASSERT_TRUE(client.PollResult(div_id, &result, &code, &error)) << error;
  EXPECT_FALSE(result.rows.empty());
  // The daemon keeps serving.
  ASSERT_TRUE(client.PollResult(id, &result, &code, &error)) << error;
  EXPECT_FALSE(result.rows.empty());
  EXPECT_EQ(journaled_registrations(), 2u);
  daemon.Stop();
}

TEST_F(ServerTest, OversizedFrameGetsStructuredErrorAndSessionSurvives) {
  Daemon daemon(options_);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.Connect(daemon.ingest_port(), &error)) << error;
  ASSERT_TRUE(client.Hello("acme", &error)) << error;

  // A frame over kMaxFrameBytes (but under the drain cap) is read out
  // and refused with kFrameTooLarge — not a disconnect.
  const std::uint32_t huge_len =
      static_cast<std::uint32_t>(kMaxFrameBytes) + 1;
  ByteWriter w;
  w.WriteU32(kFrameMagic);
  w.WriteU8(static_cast<std::uint8_t>(MsgType::kIngest));
  w.WriteU32(huge_len);
  const std::vector<std::uint8_t> header = w.Take();
  ASSERT_EQ(SendExactly(client.raw_socket(), header.data(), header.size(),
                        5000, &error),
            IoStatus::kOk);
  const std::vector<std::uint8_t> filler(huge_len, 0xab);
  ASSERT_EQ(SendExactly(client.raw_socket(), filler.data(), filler.size(),
                        20000, &error),
            IoStatus::kOk);

  Frame reply;
  ASSERT_EQ(ReadFrame(client.raw_socket(), &reply, 20000, 20000, &error),
            FrameReadStatus::kOk);
  ASSERT_EQ(reply.type, MsgType::kError);
  ErrCode code = ErrCode::kNone;
  std::string message;
  ASSERT_TRUE(DecodeError(reply.payload, &code, &message));
  EXPECT_EQ(code, ErrCode::kFrameTooLarge);

  // The stream stayed synchronized: a normal request still works.
  WireStats stats;
  EXPECT_TRUE(client.Stats(&stats, &error)) << error;

  daemon.Stop();
}

TEST_F(ServerTest, BadMagicAnsweredThenClosed) {
  Daemon daemon(options_);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.Connect(daemon.ingest_port(), &error)) << error;
  const std::uint8_t garbage[kFrameHeaderBytes] = {0xde, 0xad, 0xbe, 0xef,
                                                   1,    0,    0,    0, 0};
  ASSERT_EQ(SendExactly(client.raw_socket(), garbage, sizeof(garbage), 2000,
                        &error),
            IoStatus::kOk);

  Frame reply;
  ASSERT_EQ(ReadFrame(client.raw_socket(), &reply, 5000, 5000, &error),
            FrameReadStatus::kOk);
  ASSERT_EQ(reply.type, MsgType::kError);
  ErrCode code = ErrCode::kNone;
  std::string message;
  ASSERT_TRUE(DecodeError(reply.payload, &code, &message));
  EXPECT_EQ(code, ErrCode::kBadMagic);

  // An unsynchronized stream costs the session.
  EXPECT_EQ(ReadFrame(client.raw_socket(), &reply, 5000, 5000, &error),
            FrameReadStatus::kClosed);

  daemon.Stop();
}

TEST_F(ServerTest, HostileIngestCountRefusedWithoutAllocation) {
  Daemon daemon(options_);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.Connect(daemon.ingest_port(), &error)) << error;
  ASSERT_TRUE(client.Hello("acme", &error)) << error;

  // The payload claims kMaxBatchPackets packets but carries two bytes;
  // the decoder must refuse before sizing anything by the count.
  ByteWriter payload;
  payload.WriteU64(/*client_seq=*/7);
  payload.WriteU32(static_cast<std::uint32_t>(kMaxBatchPackets));
  payload.WriteU8(0);
  payload.WriteU8(0);
  Frame reply;
  ASSERT_EQ(SendFrame(client.raw_socket(), MsgType::kIngest, payload.Take(),
                      2000, &error),
            IoStatus::kOk);
  ASSERT_EQ(ReadFrame(client.raw_socket(), &reply, 5000, 5000, &error),
            FrameReadStatus::kOk);
  ASSERT_EQ(reply.type, MsgType::kError);
  ErrCode code = ErrCode::kNone;
  std::string message;
  ASSERT_TRUE(DecodeError(reply.payload, &code, &message));
  EXPECT_EQ(code, ErrCode::kBadFrame);

  // Refusal, not disconnection.
  WireStats stats;
  EXPECT_TRUE(client.Stats(&stats, &error)) << error;
  EXPECT_EQ(stats.batches_acked, 0u);

  daemon.Stop();
}

TEST_F(ServerTest, BoundedQueueYieldsBusyUnderOverload) {
  // One-deep queue + a 300 ms apply delay: with one batch applying and
  // one queued, a third concurrent ingest must see kBusy.
  options_.queue_capacity = 1;
  options_.apply_delay_ms = 300;
  Daemon daemon(options_);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  dsms::TraceConfig cfg;
  cfg.seed = 5;
  const auto packets = dsms::PacketGenerator(cfg).Generate(30);

  Client a;
  Client b;
  Client c;
  ASSERT_TRUE(a.Connect(daemon.ingest_port(), &error)) << error;
  ASSERT_TRUE(b.Connect(daemon.ingest_port(), &error)) << error;
  ASSERT_TRUE(c.Connect(daemon.ingest_port(), &error)) << error;
  ASSERT_TRUE(a.Hello("acme", &error)) << error;

  IngestReply ra;
  IngestReply rb;
  std::string ea;
  std::string eb;
  std::thread ta([&] {
    (void)a.Ingest(1, MakeBatch(packets, 0, 10), &ra, &ea);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  std::thread tb([&] {
    (void)b.Ingest(2, MakeBatch(packets, 10, 20), &rb, &eb);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(80));

  // Batch 1 is applying (delayed), batch 2 fills the queue: batch 3 is
  // refused with explicit backpressure, carrying the queue depth.
  IngestReply rc;
  ASSERT_TRUE(c.Ingest(3, MakeBatch(packets, 20, 30), &rc, &error)) << error;
  EXPECT_TRUE(rc.busy);
  EXPECT_FALSE(rc.ok);

  ta.join();
  tb.join();
  EXPECT_TRUE(ra.ok) << ea;
  EXPECT_TRUE(rb.ok) << eb;

  WireStats stats;
  ASSERT_TRUE(a.Stats(&stats, &error)) << error;
  EXPECT_EQ(stats.batches_acked, 2u);
  EXPECT_GE(stats.backpressure_total, 1u);

  daemon.Stop();
}

TEST_F(ServerTest, GreedyTenantDegradesViaSheddingVisibleInMetrics) {
  // A tiny shedding budget and a stream with many distinct groups: the
  // greedy tenant's queries degrade via min-forward-weight eviction
  // instead of growing without bound, and the damage is visible both in
  // wire stats and in the labelled /metrics counters.
  options_.tenant_defaults.max_groups = 4;
  options_.tenant_defaults.decay_alpha = 0.01;
  Daemon daemon(options_);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.Connect(daemon.ingest_port(), &error)) << error;
  ASSERT_TRUE(client.Hello("greedy", &error)) << error;
  std::uint64_t query_id = 0;
  ErrCode code = ErrCode::kNone;
  ASSERT_TRUE(client.RegisterQuery("hh", kGsql, false, &query_id, &code,
                                   &error))
      << error;

  dsms::TraceConfig cfg;
  cfg.seed = 23;
  cfg.num_servers = 256;  // far more groups than the budget allows
  const auto packets = dsms::PacketGenerator(cfg).Generate(5000);
  for (std::size_t off = 0; off < packets.size(); off += 1000) {
    IngestReply reply;
    ASSERT_TRUE(client.Ingest(off, MakeBatch(packets, off, off + 1000),
                              &reply, &error))
        << error;
    ASSERT_TRUE(reply.ok) << reply.message;
  }

  WireStats stats;
  ASSERT_TRUE(client.Stats(&stats, &error)) << error;
  EXPECT_GT(stats.groups_shed_total, 0u);

  const std::string scrape = HttpGet(daemon.metrics_port(), "/metrics");
  EXPECT_NE(
      scrape.find("fwdecay_server_tenant_groups_shed_total{tenant=\"greedy\"}"),
      std::string::npos)
      << scrape.substr(0, 512);

  // Shedding kept it bounded but answering: polls still work.
  dsms::ResultSet result;
  EXPECT_TRUE(client.PollResult(query_id, &result, &code, &error)) << error;
  EXPECT_LE(result.rows.size(), 4u);

  daemon.Stop();
}

TEST_F(ServerTest, IdleConnectionIsReapedWithExplanation) {
  options_.idle_timeout_ms = 200;
  Daemon daemon(options_);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.Connect(daemon.ingest_port(), &error)) << error;
  // Say nothing; the reaper should volunteer a kIdleTimeout error and
  // hang up.
  Frame reply;
  ASSERT_EQ(ReadFrame(client.raw_socket(), &reply, 5000, 5000, &error),
            FrameReadStatus::kOk);
  ASSERT_EQ(reply.type, MsgType::kError);
  ErrCode code = ErrCode::kNone;
  std::string message;
  ASSERT_TRUE(DecodeError(reply.payload, &code, &message));
  EXPECT_EQ(code, ErrCode::kIdleTimeout);
  EXPECT_EQ(ReadFrame(client.raw_socket(), &reply, 5000, 5000, &error),
            FrameReadStatus::kClosed);

  daemon.Stop();
}

TEST_F(ServerTest, CheckpointRecordsCheckpointLatency) {
  if (!FWDECAY_METRICS_ENABLED) GTEST_SKIP() << "metrics compiled out";
  Daemon daemon(options_);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;
  const metrics::LatencyReservoir* reservoir =
      dsms::CheckpointLatencyReservoir();
  const std::uint64_t before = reservoir->observations();
  ASSERT_TRUE(daemon.CheckpointNow(&error)) << error;
  EXPECT_EQ(reservoir->observations(), before + 1);
  daemon.Stop();
}

TEST_F(ServerTest, RotationRetainsKAndRecoveryFallsBackPastCorruptSnapshot) {
  dsms::TraceConfig cfg;
  cfg.seed = 31;
  cfg.num_servers = 16;
  const auto packets = dsms::PacketGenerator(cfg).Generate(3000);

  options_.snapshot_retain = 2;
  std::uint64_t query_id = 0;
  {
    Daemon daemon(options_);
    std::string error;
    ASSERT_TRUE(daemon.Start(&error)) << error;
    Client client;
    ASSERT_TRUE(client.Connect(daemon.ingest_port(), &error)) << error;
    ASSERT_TRUE(client.Hello("acme", &error)) << error;
    ErrCode code = ErrCode::kNone;
    ASSERT_TRUE(client.RegisterQuery("hh", kGsql, false, &query_id, &code,
                                     &error))
        << error;

    IngestReply reply;
    ASSERT_TRUE(client.Ingest(1, MakeBatch(packets, 0, 1000), &reply, &error))
        << error;
    ASSERT_TRUE(reply.ok);
    ASSERT_TRUE(daemon.CheckpointNow(&error)) << error;
    ASSERT_TRUE(client.Ingest(2, MakeBatch(packets, 1000, 2000), &reply,
                              &error))
        << error;
    ASSERT_TRUE(reply.ok);
    ASSERT_TRUE(daemon.CheckpointNow(&error)) << error;
    ASSERT_TRUE(client.Ingest(3, MakeBatch(packets, 2000, 3000), &reply,
                              &error))
        << error;
    ASSERT_TRUE(reply.ok);
    client.Close();
    daemon.Stop();  // writes the clean shutdown checkpoint
  }

  // Retention: exactly `retain` snapshots in CURRENT, and the files
  // below the floor were GC'd.
  SnapshotManager snaps(dir_, 2);
  Manifest manifest;
  std::string error;
  ASSERT_TRUE(snaps.ReadManifest(&manifest, &error)) << error;
  ASSERT_EQ(manifest.snaps.size(), 2u);
  EXPECT_EQ(manifest.floor, manifest.snaps.back());
  for (std::uint64_t e = 0; e < manifest.floor; ++e) {
    EXPECT_FALSE(FaultFs::Instance().FileExists(snaps.SnapPath(e)));
    EXPECT_FALSE(FaultFs::Instance().FileExists(snaps.JournalPath(e)));
  }

  // Corrupt the newest snapshot: flip one byte mid-file. Recovery must
  // fall back to the older snapshot and replay the journal records the
  // fallback does not cover — ending at the same state.
  {
    const std::string newest = snaps.SnapPath(manifest.snaps.front());
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(FaultFs::Instance().ReadFile(newest, &bytes, &error));
    ASSERT_GT(bytes.size(), 64u);
    bytes[bytes.size() / 2] ^= 0xff;
    ASSERT_TRUE(FaultFs::Instance().AtomicWriteFile(newest, bytes, &error));
  }

  Daemon recovered(options_);
  ASSERT_TRUE(recovered.Start(&error)) << error;
  EXPECT_EQ(recovered.batches_acked(), 3u);
  EXPECT_EQ(recovered.query_count(), 1u);

  Client client;
  ASSERT_TRUE(client.Connect(recovered.ingest_port(), &error)) << error;
  dsms::ResultSet result;
  ErrCode code = ErrCode::kNone;
  ASSERT_TRUE(client.PollResult(query_id, &result, &code, &error)) << error;
  EXPECT_EQ(EncodeResult(result),
            ReferenceResult(kGsql, options_.tenant_defaults, packets, 3000));

  recovered.Stop();
}

TEST_F(ServerTest, CorruptManifestRefusesToStartFresh) {
  {
    Daemon daemon(options_);
    std::string error;
    ASSERT_TRUE(daemon.Start(&error)) << error;
    daemon.Stop();
  }
  const std::string current = SnapshotManager(dir_, 1).CurrentPath();
  const std::vector<std::uint8_t> garbage = {'n', 'o', 'p', 'e', '\n'};
  std::string error;
  ASSERT_TRUE(FaultFs::Instance().AtomicWriteFile(current, garbage, &error));

  // Silently starting empty over acknowledged data would be data loss;
  // the daemon must refuse instead.
  Daemon daemon(options_);
  EXPECT_FALSE(daemon.Start(&error));
  EXPECT_NE(error.find("manifest"), std::string::npos) << error;
}

/// Frames a journal payload exactly as JournalWriter::Append does:
/// u32 length | payload | u32 crc32c(payload). Corruption cases patch
/// the payload first and reframe, so the CRC is valid and the reader's
/// *structural* checks (not the checksum) must do the rejecting.
std::vector<std::uint8_t> FrameRecord(
    const std::vector<std::uint8_t>& payload) {
  ByteWriter w;
  w.WriteU32(static_cast<std::uint32_t>(payload.size()));
  w.WriteBytes(payload.data(), payload.size());
  w.WriteU32(Crc32c(payload.data(), payload.size()));
  return w.Take();
}

void PatchU32(std::vector<std::uint8_t>* bytes, std::size_t offset,
              std::uint32_t v) {
  ASSERT_LE(offset + sizeof(v), bytes->size());
  std::memcpy(bytes->data() + offset, &v, sizeof(v));
}

void PatchU64(std::vector<std::uint8_t>* bytes, std::size_t offset,
              std::uint64_t v) {
  ASSERT_LE(offset + sizeof(v), bytes->size());
  std::memcpy(bytes->data() + offset, &v, sizeof(v));
}

// Regression for a bug the taint pass found: recovery probed journal
// segments with `for (e = floor; e <= active; ++e)`, with both bounds
// read straight from the CURRENT manifest. A hostile
// `active 18446744073709551615` turned startup into a ~2^64-iteration
// filesystem scan. The manifest is now structurally validated before
// anything is published to recovery, so every case below must be
// rejected loudly and *fast* — a hang here is the old bug.
TEST_F(ServerTest, HostileManifestStructuralRejectionMatrix) {
  {
    Daemon daemon(options_);
    std::string error;
    ASSERT_TRUE(daemon.Start(&error)) << error;
    daemon.Stop();
  }
  const SnapshotManager snaps(dir_, 1);

  struct Case {
    const char* label;
    const char* text;
  };
  const Case cases[] = {
      {"u64-max active would probe ~2^64 segments",
       "FWDCUR1\nactive 18446744073709551615\nfloor 0\n"},
      {"active above the epoch cap (2^48 + 1)",
       "FWDCUR1\nactive 281474976710657\nfloor 281474976710657\n"},
      {"floor above active", "FWDCUR1\nactive 2\nfloor 5\n"},
      {"replay span above the cap", "FWDCUR1\nactive 2000000\nfloor 0\n"},
      {"snap epoch outside [floor, active]",
       "FWDCUR1\nactive 5\nfloor 2\nsnap 99\n"},
  };
  for (const Case& c : cases) {
    std::string error;
    const std::vector<std::uint8_t> bytes(c.text,
                                          c.text + std::strlen(c.text));
    ASSERT_TRUE(FaultFs::Instance().AtomicWriteFile(snaps.CurrentPath(),
                                                    bytes, &error))
        << c.label;
    Manifest manifest;
    EXPECT_FALSE(snaps.ReadManifest(&manifest, &error)) << c.label;
    EXPECT_FALSE(error.empty()) << c.label;

    Daemon daemon(options_);
    EXPECT_FALSE(daemon.Start(&error)) << c.label;
    EXPECT_NE(error.find("manifest"), std::string::npos)
        << c.label << ": " << error;
  }

  // Snap-line flood: every epoch individually legal, but the list
  // itself is unbounded input feeding a vector.
  {
    std::string text = "FWDCUR1\nactive 2000\nfloor 0\n";
    for (int i = 0; i < 1025; ++i) {
      text += "snap " + std::to_string(i) + "\n";
    }
    std::string error;
    const std::vector<std::uint8_t> bytes(text.begin(), text.end());
    ASSERT_TRUE(FaultFs::Instance().AtomicWriteFile(snaps.CurrentPath(),
                                                    bytes, &error));
    Manifest manifest;
    EXPECT_FALSE(snaps.ReadManifest(&manifest, &error));
    Daemon daemon(options_);
    EXPECT_FALSE(daemon.Start(&error));
    EXPECT_NE(error.find("manifest"), std::string::npos) << error;
  }
}

// Fuzz-style matrix over every length field in the journal record
// format: the frame length word, the batch packet count, and a record
// string's length prefix, each mutated to zero / huge / off-by-one.
// The reader must treat each as a clean torn tail (records before the
// corruption survive, nothing after is invented) without sizing any
// allocation from the hostile value — under ASan a blow-up aborts.
TEST_F(ServerTest, JournalCorruptLengthFieldMatrix) {
  ASSERT_TRUE(::mkdir(dir_.c_str(), 0755) == 0 || errno == EEXIST);

  dsms::TraceConfig cfg;
  cfg.seed = 7;
  const auto packets = dsms::PacketGenerator(cfg).Generate(8);
  dsms::PacketBatch batch(8);
  for (const auto& p : packets) ASSERT_TRUE(batch.Append(p));

  const auto batch_payload = EncodeBatchRecord(1, batch);
  const auto good_frame = FrameRecord(batch_payload);
  const auto reg_payload =
      EncodeRegisterRecord(2, 7, "acme", "hh", kGsql, false);

  // Payload layout: u8 type | u64 seq | body. The batch body opens with
  // its u32 packet count; the register body with u64 query_id, then the
  // tenant string's u32 length prefix.
  constexpr std::size_t kCountOffset = 1 + 8;
  constexpr std::size_t kTenantLenOffset = 1 + 8 + 8;
  const auto n = static_cast<std::uint32_t>(batch.size());

  struct Case {
    std::string label;
    std::vector<std::uint8_t> frame;
  };
  std::vector<Case> cases;

  // (a) The frame length word itself, CRC left stale: zero makes the
  // checksum read garbage, huge fails the record-size cap, off-by-one
  // misaligns the checksum window.
  for (std::uint32_t len :
       {std::uint32_t{0}, std::uint32_t{0xffffffff},
        static_cast<std::uint32_t>(batch_payload.size()) + 1,
        static_cast<std::uint32_t>(batch_payload.size()) - 1}) {
    Case c{"frame len = " + std::to_string(len), good_frame};
    PatchU32(&c.frame, 0, len);
    cases.push_back(std::move(c));
  }

  // (b) The batch packet count, reframed with a valid CRC so only the
  // structural decoder can reject it: zero leaves trailing bytes
  // (Exhausted fails), huge must be refused before any allocation,
  // n+1 overruns the byte math, n-1 leaves one packet unconsumed.
  for (std::uint32_t count : {std::uint32_t{0}, std::uint32_t{0xffffffff},
                              n + 1, n - 1}) {
    auto payload = batch_payload;
    PatchU32(&payload, kCountOffset, count);
    cases.push_back({"batch count = " + std::to_string(count),
                     FrameRecord(payload)});
  }

  // (c) The tenant string's length prefix in a register record, also
  // reframed valid: zero and off-by-one shear every later field's
  // framing, huge exceeds the remaining bytes.
  for (std::uint32_t len : {std::uint32_t{0}, std::uint32_t{0xffffffff},
                            std::uint32_t{5}}) {
    auto payload = reg_payload;
    PatchU32(&payload, kTenantLenOffset, len);
    cases.push_back({"tenant string len = " + std::to_string(len),
                     FrameRecord(payload)});
  }

  const std::string path = SnapshotManager(dir_, 1).JournalPath(0);
  for (const Case& c : cases) {
    std::vector<std::uint8_t> file = good_frame;
    file.insert(file.end(), c.frame.begin(), c.frame.end());
    std::string error;
    ASSERT_TRUE(FaultFs::Instance().AtomicWriteFile(path, file, &error))
        << c.label;

    std::vector<JournalRecord> records;
    bool torn_tail = false;
    ASSERT_TRUE(ReadJournalFile(path, &records, &torn_tail, &error))
        << c.label << ": " << error;
    EXPECT_TRUE(torn_tail) << c.label;
    ASSERT_EQ(records.size(), 1u) << c.label;
    EXPECT_EQ(records[0].seq, 1u) << c.label;
    EXPECT_EQ(records[0].batch.size(), batch.size()) << c.label;
  }
}

// Same matrix over the server snapshot's u64 body-length header field
// (and a header-truncation case). The reader compares body_len against
// the bytes actually present before touching the body, so a hostile
// value can neither size an allocation nor widen a read; recovery must
// fall back to the older snapshot and replay the journal to the exact
// same state.
TEST_F(ServerTest, SnapshotBodyLengthFieldMatrix) {
  dsms::TraceConfig cfg;
  cfg.seed = 53;
  cfg.num_servers = 16;
  const auto packets = dsms::PacketGenerator(cfg).Generate(1500);

  options_.snapshot_retain = 2;
  std::uint64_t query_id = 0;
  {
    Daemon daemon(options_);
    std::string error;
    ASSERT_TRUE(daemon.Start(&error)) << error;
    Client client;
    ASSERT_TRUE(client.Connect(daemon.ingest_port(), &error)) << error;
    ASSERT_TRUE(client.Hello("acme", &error)) << error;
    ErrCode code = ErrCode::kNone;
    ASSERT_TRUE(
        client.RegisterQuery("hh", kGsql, false, &query_id, &code, &error))
        << error;
    IngestReply reply;
    ASSERT_TRUE(client.Ingest(1, MakeBatch(packets, 0, 500), &reply, &error))
        << error;
    ASSERT_TRUE(reply.ok);
    ASSERT_TRUE(daemon.CheckpointNow(&error)) << error;
    ASSERT_TRUE(
        client.Ingest(2, MakeBatch(packets, 500, 1000), &reply, &error))
        << error;
    ASSERT_TRUE(reply.ok);
    ASSERT_TRUE(daemon.CheckpointNow(&error)) << error;
    ASSERT_TRUE(
        client.Ingest(3, MakeBatch(packets, 1000, 1500), &reply, &error))
        << error;
    ASSERT_TRUE(reply.ok);
    client.Close();
    daemon.Stop();
  }

  SnapshotManager snaps(dir_, 2);
  Manifest manifest;
  std::string error;
  ASSERT_TRUE(snaps.ReadManifest(&manifest, &error)) << error;
  ASSERT_EQ(manifest.snaps.size(), 2u);
  const std::string newest = snaps.SnapPath(manifest.snaps.front());

  // Snapshot every file recovery reads, so each mutation starts from
  // identical on-disk state (a recovered daemon's Stop advances the
  // manifest and writes fresh checkpoints).
  std::map<std::string, std::vector<std::uint8_t>> orig;
  {
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(
        FaultFs::Instance().ReadFile(snaps.CurrentPath(), &bytes, &error));
    orig[snaps.CurrentPath()] = bytes;
    for (std::uint64_t e = 0; e <= manifest.active; ++e) {
      for (const std::string& p : {snaps.SnapPath(e), snaps.JournalPath(e)}) {
        if (!FaultFs::Instance().FileExists(p)) continue;
        ASSERT_TRUE(FaultFs::Instance().ReadFile(p, &bytes, &error)) << p;
        orig[p] = bytes;
      }
    }
  }
  const auto restore = [&] {
    RemoveTree(dir_);
    ASSERT_TRUE(::mkdir(dir_.c_str(), 0755) == 0 || errno == EEXIST);
    std::string werror;
    for (const auto& [path, bytes] : orig) {
      ASSERT_TRUE(FaultFs::Instance().AtomicWriteFile(path, bytes, &werror))
          << path << ": " << werror;
    }
  };

  // The body length lives at byte 16: 8-byte magic, u32 version,
  // u32 crc, then the u64 length.
  constexpr std::size_t kBodyLenOffset = 16;
  const std::uint64_t true_len =
      orig[newest].size() - kBodyLenOffset - sizeof(std::uint64_t);
  struct Case {
    std::string label;
    std::uint64_t body_len;
    std::size_t truncate_to;  // 0 = leave the file whole
  };
  const Case cases[] = {
      {"body_len = 0", 0, 0},
      {"body_len = u64 max", ~std::uint64_t{0}, 0},
      {"body_len + 1", true_len + 1, 0},
      {"body_len - 1", true_len - 1, 0},
      {"file truncated inside the header", true_len, 10},
  };
  for (const Case& c : cases) {
    restore();
    std::vector<std::uint8_t> bytes = orig[newest];
    PatchU64(&bytes, kBodyLenOffset, c.body_len);
    if (c.truncate_to != 0) bytes.resize(c.truncate_to);
    ASSERT_TRUE(FaultFs::Instance().AtomicWriteFile(newest, bytes, &error))
        << c.label;

    Daemon recovered(options_);
    ASSERT_TRUE(recovered.Start(&error)) << c.label << ": " << error;
    EXPECT_EQ(recovered.batches_acked(), 3u) << c.label;
    EXPECT_EQ(recovered.query_count(), 1u) << c.label;
    dsms::ResultSet result;
    ErrCode code = ErrCode::kNone;
    Client client;
    ASSERT_TRUE(client.Connect(recovered.ingest_port(), &error)) << c.label;
    ASSERT_TRUE(client.PollResult(query_id, &result, &code, &error))
        << c.label << ": " << error;
    EXPECT_EQ(EncodeResult(result),
              ReferenceResult(kGsql, options_.tenant_defaults, packets, 1500))
        << c.label;
    recovered.Stop();
  }
}

TEST_F(ServerTest, SocketFaultMatrix) {
  // Drive the EINTR/short-transfer/fault seams directly over a real
  // loopback pair: the exactly-once wrappers must absorb every
  // recoverable fault and surface the fatal ones as typed statuses.
  Listener listener;
  std::string error;
  ASSERT_TRUE(listener.Open(0, &error)) << error;
  Socket client;
  ASSERT_EQ(Connect(listener.port(), 2000, &client, &error), IoStatus::kOk);
  Socket server;
  ASSERT_EQ(listener.AcceptOnce(2000, &server, &error), IoStatus::kOk);

  const std::uint64_t before = NetFault::Instance().faults_injected();
  std::uint8_t out[64];
  std::uint8_t in[64];
  for (std::size_t i = 0; i < sizeof(out); ++i) {
    out[i] = static_cast<std::uint8_t>(i);
  }

  {  // Short read: delivered in two pieces, reassembled to all 64.
    ScopedNetFaultPlan plan({NetFaultPoint::kShortRead, /*byte_limit=*/5});
    ASSERT_EQ(SendExactly(client, out, sizeof(out), 2000, &error),
              IoStatus::kOk);
    ASSERT_EQ(RecvExactly(server, in, sizeof(in), 2000, &error),
              IoStatus::kOk);
    EXPECT_EQ(std::memcmp(in, out, sizeof(out)), 0);
  }
  {  // EINTR storm on read: five consecutive interrupts, then clean.
    NetFaultPlan plan;
    plan.point = NetFaultPoint::kReadEintr;
    plan.times = 5;
    ScopedNetFaultPlan armed(plan);
    ASSERT_EQ(SendExactly(client, out, sizeof(out), 2000, &error),
              IoStatus::kOk);
    ASSERT_EQ(RecvExactly(server, in, sizeof(in), 2000, &error),
              IoStatus::kOk);
  }
  {  // EINTR storm on write.
    NetFaultPlan plan;
    plan.point = NetFaultPoint::kWriteEintr;
    plan.times = 5;
    ScopedNetFaultPlan armed(plan);
    ASSERT_EQ(SendExactly(client, out, sizeof(out), 2000, &error),
              IoStatus::kOk);
    ASSERT_EQ(RecvExactly(server, in, sizeof(in), 2000, &error),
              IoStatus::kOk);
  }
  {  // Short write: the sender resumes the partial transfer.
    ScopedNetFaultPlan plan({NetFaultPoint::kShortWrite, /*byte_limit=*/3});
    ASSERT_EQ(SendExactly(client, out, sizeof(out), 2000, &error),
              IoStatus::kOk);
    ASSERT_EQ(RecvExactly(server, in, sizeof(in), 2000, &error),
              IoStatus::kOk);
    EXPECT_EQ(std::memcmp(in, out, sizeof(out)), 0);
  }
  {  // Injected hard read error surfaces as kError with detail.
    ScopedNetFaultPlan plan({NetFaultPoint::kReadError});
    EXPECT_EQ(RecvExactly(server, in, 1, 500, &error), IoStatus::kError);
    EXPECT_NE(error.find("injected"), std::string::npos);
  }
  {  // Injected mid-frame peer close surfaces as kClosed.
    ScopedNetFaultPlan plan({NetFaultPoint::kPeerClose});
    EXPECT_EQ(RecvExactly(server, in, 1, 500, &error), IoStatus::kClosed);
  }
  // Slow loris: the peer sends nothing; the deadline fires as kTimeout.
  EXPECT_EQ(RecvExactly(server, in, 1, 100, &error), IoStatus::kTimeout);

  EXPECT_GT(NetFault::Instance().faults_injected(), before);
}

TEST_F(ServerTest, FaultedTransportStillAcksEndToEnd) {
  // A fault plan armed while a real request is in flight: the daemon's
  // retry loops absorb the interrupts and the batch is still acked.
  Daemon daemon(options_);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect(daemon.ingest_port(), &error)) << error;
  ASSERT_TRUE(client.Hello("acme", &error)) << error;

  dsms::TraceConfig cfg;
  cfg.seed = 41;
  const auto packets = dsms::PacketGenerator(cfg).Generate(100);

  NetFaultPlan plan;
  plan.point = NetFaultPoint::kReadEintr;
  plan.times = 3;
  ScopedNetFaultPlan armed(plan);
  IngestReply reply;
  ASSERT_TRUE(
      client.Ingest(9, MakeBatch(packets, 0, 100), &reply, &error))
      << error;
  EXPECT_TRUE(reply.ok) << reply.message;

  daemon.Stop();
}

TEST_F(ServerTest, GracefulShutdownDrainsAndCheckpoints) {
  dsms::TraceConfig cfg;
  cfg.seed = 47;
  const auto packets = dsms::PacketGenerator(cfg).Generate(1000);

  std::uint64_t query_id = 0;
  {
    Daemon daemon(options_);
    std::string error;
    ASSERT_TRUE(daemon.Start(&error)) << error;
    Client client;
    ASSERT_TRUE(client.Connect(daemon.ingest_port(), &error)) << error;
    ASSERT_TRUE(client.Hello("acme", &error)) << error;
    ErrCode code = ErrCode::kNone;
    ASSERT_TRUE(client.RegisterQuery("hh", kGsql, false, &query_id, &code,
                                     &error))
        << error;
    IngestReply reply;
    ASSERT_TRUE(client.Ingest(1, MakeBatch(packets, 0, 1000), &reply, &error))
        << error;
    ASSERT_TRUE(reply.ok);
    daemon.Stop();
    // Stop is idempotent.
    daemon.Stop();
  }

  // The clean shutdown checkpoint makes restart replay-free: all state
  // comes from the newest snapshot.
  Daemon restarted(options_);
  std::string error;
  ASSERT_TRUE(restarted.Start(&error)) << error;
  EXPECT_EQ(restarted.batches_acked(), 1u);
  EXPECT_EQ(restarted.query_count(), 1u);
  Client client;
  ASSERT_TRUE(client.Connect(restarted.ingest_port(), &error)) << error;
  dsms::ResultSet result;
  ErrCode code = ErrCode::kNone;
  ASSERT_TRUE(client.PollResult(query_id, &result, &code, &error)) << error;
  EXPECT_EQ(EncodeResult(result),
            ReferenceResult(kGsql, options_.tenant_defaults, packets, 1000));
  restarted.Stop();
}

}  // namespace
}  // namespace fwdecay::server
