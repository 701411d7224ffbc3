#ifndef FWDECAY_SERVER_DAEMON_H_
#define FWDECAY_SERVER_DAEMON_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <semaphore>
#include <string>
#include <thread>
#include <vector>

#include "dsms/batch.h"
#include "dsms/engine.h"
#include "server/frame.h"
#include "server/journal.h"
#include "server/net.h"
#include "server/snapshot.h"
#include "server/tenant.h"
#include "util/bounded_queue.h"
#include "util/metrics.h"
#include "util/thread_annotations.h"

// fwdecayd: the fault-tolerant forward-decay serving daemon
// (DESIGN.md §11, ROADMAP item 1).
//
// One ingest stream, many continuous queries: every acknowledged batch
// fans out to every registered plan, each running under its tenant's
// own forward-decay parameters and shedding budget. The robustness
// envelope, layer by layer:
//
//   admission    Hello-time tenant provisioning against max_tenants,
//                per-tenant query quotas, a connection cap.
//   backpressure A bounded ingest queue. When it is full the client
//                gets an explicit kBusy (never a silent drop, never an
//                unbounded buffer); under sustained overload each
//                query degrades via the engine's min-forward-weight
//                shedding instead of OOMing.
//   deadlines    Every socket op has a deadline; idle connections are
//                reaped; EINTR (real or injected) never kills a
//                session.
//   durability   A batch is acknowledged only after its record is
//                journaled (append + fsync). Checkpoints rotate
//                FWDSRV01 snapshots through the CURRENT manifest;
//                recovery restores the newest intact snapshot, falls
//                back on CRC failure, and replays journal segments —
//                acknowledged batches survive SIGKILL bit-identically.
//   shutdown     SIGTERM/SIGINT drains the queue, flushes final
//                metrics through the PR 5 reporter, and writes a clean
//                shutdown checkpoint.
//
// Threads: one acceptor, one connection thread per client, one apply
// thread (the single writer — it defines the total order), an optional
// periodic checkpointer, and one HTTP thread serving /metrics.

namespace fwdecay::server {

/// Outcome of applying one ingest batch (delivered to the connection
/// thread through a promise so the ack leaves only after durability).
struct ApplyResult {
  bool ok = false;
  std::uint64_t global_seq = 0;
  ErrCode code = ErrCode::kNone;
  std::string message;
};

/// One queued ingest batch awaiting the apply thread.
struct PendingBatch {
  dsms::PacketBatch batch{1};
  std::uint64_t client_seq = 0;
  std::promise<ApplyResult> done;
};

struct DaemonOptions {
  /// Data directory for journal segments, snapshots, and CURRENT.
  std::string data_dir;

  /// Ingest/control port; 0 picks an ephemeral port (read it back via
  /// ingest_port()).
  std::uint16_t port = 0;

  /// HTTP /metrics port; 0 picks an ephemeral port.
  std::uint16_t metrics_port = 0;

  /// Bounded ingest queue capacity (batches).
  std::size_t queue_capacity = 64;

  /// Concurrent client connections admitted.
  std::size_t max_connections = 32;

  /// Tenants admitted (Hello-time provisioning beyond this is refused).
  std::size_t max_tenants = 16;

  /// Snapshots retained by rotation (also bounds recovery fallback).
  std::size_t snapshot_retain = 3;

  /// Seconds between periodic checkpoints; 0 disables the thread
  /// (shutdown still writes its clean checkpoint).
  double checkpoint_interval_s = 0.0;

  /// A connection silent for this long is reaped.
  int idle_timeout_ms = 30'000;

  /// Deadline for any single frame transfer once started.
  int io_timeout_ms = 10'000;

  /// Template for Hello-provisioned tenants (name is overwritten).
  TenantSpec tenant_defaults;

  /// Two-level aggregation for registered plans that don't specify.
  bool two_level_default = false;

  /// Seconds between periodic stderr metric reports; 0 disables the
  /// reporter (Stop still flushes once when it is enabled).
  double stats_period_s = 0.0;

  /// Test seam: sleep this long in the apply thread before each batch,
  /// so the backpressure tests can fill the bounded queue
  /// deterministically instead of racing the real apply latency.
  int apply_delay_ms = 0;
};

class Daemon {
 public:
  explicit Daemon(DaemonOptions options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Recovers state from the data directory (snapshot + journal
  /// replay), then starts serving. False with *error on unrecoverable
  /// state or bind failure.
  bool Start(std::string* error);

  /// Graceful shutdown: stop admitting, drain the ingest queue, write
  /// the clean shutdown checkpoint, flush final metrics. Idempotent.
  void Stop();

  /// Serializes and publishes a rotated snapshot now.
  bool CheckpointNow(std::string* error);

  std::uint16_t ingest_port() const;
  std::uint16_t metrics_port() const;

  /// Provisions (or updates the spec of) a tenant explicitly — the
  /// --tenant flag and tests use this; Hello auto-provisions from
  /// tenant_defaults.
  bool ProvisionTenant(const TenantSpec& spec, std::string* error);

  // Introspection (tests, smoke script).
  std::uint64_t global_seq() const;
  std::uint64_t batches_acked() const;
  std::size_t query_count() const;
  std::size_t tenant_count() const;

 private:
  struct QueryEntry {
    std::uint64_t id = 0;
    std::string tenant;
    std::string name;
    std::string gsql;
    bool two_level = false;
    std::unique_ptr<dsms::CompiledQuery> plan;
    std::unique_ptr<dsms::QueryExecution> exec;
    // Last observed shedding counters, for per-tenant metric deltas.
    std::uint64_t groups_shed_seen = 0;
    std::uint64_t tuples_shed_seen = 0;
  };

  struct TenantState {
    TenantSpec spec;
    std::size_t query_count = 0;
    metrics::Counter* groups_shed = nullptr;  // labelled tenant="..."
    metrics::Counter* tuples_shed = nullptr;
  };

  struct Connection {
    Socket sock;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  // --- lifecycle helpers (Start) ------------------------------------
  bool RecoverLocked(std::string* error) FWDECAY_REQUIRES(mu_);
  bool LoadServerSnapshotLocked(std::uint64_t epoch, std::string* error)
      FWDECAY_REQUIRES(mu_);
  bool ReplaySegmentsLocked(std::uint64_t from_epoch, std::uint64_t to_epoch,
                            std::string* error) FWDECAY_REQUIRES(mu_);
  void ResetEngineStateLocked() FWDECAY_REQUIRES(mu_);

  // --- serving threads ----------------------------------------------
  void AcceptLoop();
  void ServeConnection(Connection* conn);
  void ApplyLoop();
  void CheckpointLoop();
  void MetricsHttpLoop();
  void ServeMetricsConnection(Socket sock);
  void ReapFinishedConnections();  // acceptor thread only

  // --- request handlers (connection threads) ------------------------
  struct ConnState {
    std::string tenant;  // set by Hello
  };
  bool HandleFrame(Connection* conn, ConnState* state, const Frame& frame);
  std::vector<std::uint8_t> HandleHello(ConnState* state,
                                        const Frame& frame, MsgType* type);
  std::vector<std::uint8_t> HandleRegister(ConnState* state,
                                           const Frame& frame, MsgType* type);
  std::vector<std::uint8_t> HandleIngest(const Frame& frame, MsgType* type);
  std::vector<std::uint8_t> HandlePoll(const Frame& frame, MsgType* type);
  std::vector<std::uint8_t> HandleStats(MsgType* type);

  // --- state transitions --------------------------------------------
  ApplyResult ApplyOne(PendingBatch* item);
  void FanOutLocked(const dsms::PacketBatch& batch) FWDECAY_REQUIRES(mu_);
  TenantState* FindOrProvisionTenantLocked(const std::string& name,
                                           ErrCode* code, std::string* msg)
      FWDECAY_REQUIRES(mu_);
  TenantState* ProvisionTenantLocked(const TenantSpec& spec, bool journal,
                                     ErrCode* code, std::string* msg)
      FWDECAY_REQUIRES(mu_);
  bool BuildServerSnapshotLocked(std::vector<std::uint8_t>* image,
                                 std::string* error) FWDECAY_REQUIRES(mu_);
  bool InstallQueryLocked(std::uint64_t id, const std::string& tenant,
                          const std::string& name, const std::string& gsql,
                          bool two_level, std::string* error)
      FWDECAY_REQUIRES(mu_);

  const DaemonOptions options_;
  SnapshotManager snaps_;

  mutable Mutex mu_;
  bool started_ FWDECAY_GUARDED_BY(mu_) = false;
  bool stopped_ FWDECAY_GUARDED_BY(mu_) = false;
  bool shutting_down_ FWDECAY_GUARDED_BY(mu_) = false;
  Manifest manifest_ FWDECAY_GUARDED_BY(mu_);
  std::unique_ptr<JournalWriter> journal_ FWDECAY_GUARDED_BY(mu_);
  std::uint64_t global_seq_ FWDECAY_GUARDED_BY(mu_) = 0;
  std::uint64_t batches_acked_ FWDECAY_GUARDED_BY(mu_) = 0;
  std::uint64_t backpressure_total_ FWDECAY_GUARDED_BY(mu_) = 0;
  std::uint64_t next_query_id_ FWDECAY_GUARDED_BY(mu_) = 1;
  std::map<std::string, TenantState> tenants_ FWDECAY_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<QueryEntry>> queries_ FWDECAY_GUARDED_BY(mu_);

  // Connection threads -> apply thread. TryPush never blocks: a full
  // queue becomes a kBusy reply, so backpressure is explicit and memory
  // bounded. Stop() closes it once the producers are joined.
  BoundedQueue<std::unique_ptr<PendingBatch>> queue_;

  Listener listener_;
  Listener metrics_listener_;

  // Owned by the acceptor thread (plus Stop after joining it).
  std::vector<std::unique_ptr<Connection>> connections_;

  std::atomic<bool> stop_accept_{false};
  std::atomic<bool> stop_http_{false};
  // Released by Stop to interrupt the checkpoint thread's sleep.
  std::binary_semaphore checkpoint_stop_{0};

  std::thread accept_thread_;
  std::thread apply_thread_;
  std::thread checkpoint_thread_;
  std::thread http_thread_;

  std::unique_ptr<metrics::StatsReporter> reporter_;

  // Metric handles (registry pointers are stable for process life).
  struct ServerMetrics {
    metrics::Counter* connections_total;
    metrics::Gauge* connections_active;
    metrics::Counter* connections_reaped;
    metrics::Counter* frames_total;
    metrics::Counter* frame_errors;
    metrics::Counter* batches_acked;
    metrics::Counter* backpressure;
    metrics::Counter* journal_failures;
    metrics::Counter* journal_bytes;
    metrics::Gauge* queue_depth;
    metrics::Counter* checkpoints;
    metrics::Counter* checkpoint_failures;
    metrics::Counter* recoveries;
    metrics::Counter* recovery_fallbacks;
    metrics::Counter* replayed_batches;
    metrics::Gauge* registered_queries;
    metrics::Gauge* tenants;
    metrics::Counter* polls;
    metrics::DecayedRate* ingest_rate;
    metrics::LatencyReservoir* apply_ns;
  };
  ServerMetrics m_;
};

}  // namespace fwdecay::server

#endif  // FWDECAY_SERVER_DAEMON_H_
