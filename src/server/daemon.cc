#include "server/daemon.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "util/crc32c.h"
#include "util/fault_fs.h"
#include "util/timer.h"

namespace fwdecay::server {

namespace {

// FWDSRV01 server snapshot: 8-byte magic, u32 version, u32 CRC32C over
// the body, u64 body length, body. The body embeds one FWDSNAP1 engine
// image per registered query, so engine-level validation (fingerprint,
// CRC) still runs on every restore.
constexpr char kServerSnapMagic[8] = {'F', 'W', 'D', 'S', 'R', 'V', '0', '1'};
constexpr std::uint32_t kServerSnapVersion = 1;

// Decode caps (hostile-input discipline: a corrupt count must never
// drive an allocation).
constexpr std::size_t kMaxSnapshotTenants = 4096;
constexpr std::size_t kMaxSnapshotQueries = 65536;

// How long a connection thread waits for the apply thread to make its
// batch durable before giving up on the ack. Generous: covers a
// checkpoint stall, but not a wedged disk forever.
constexpr int kAckWaitMs = 60'000;

// HTTP request handling limits for the /metrics endpoint.
constexpr std::size_t kMaxHttpRequestBytes = 4096;
constexpr int kHttpTimeoutMs = 2000;

std::string LabelForTenant(const std::string& name) {
  return "tenant=\"" + name + "\"";
}

}  // namespace

// --------------------------------------------------------------------
// Daemon: construction, metrics

Daemon::Daemon(DaemonOptions options)
    : options_(std::move(options)),
      snaps_(options_.data_dir, options_.snapshot_retain),
      queue_(options_.queue_capacity) {
  auto& reg = metrics::MetricsRegistry::Instance();
  m_.connections_total = reg.GetCounter(
      "fwdecay_server_connections_total", "Client connections accepted.");
  m_.connections_active = reg.GetGauge("fwdecay_server_connections_active",
                                       "Client connections currently open.");
  m_.connections_reaped =
      reg.GetCounter("fwdecay_server_connections_reaped_total",
                     "Connections closed by the idle reaper.");
  m_.frames_total = reg.GetCounter("fwdecay_server_frames_total",
                                   "Well-formed frames received.");
  m_.frame_errors = reg.GetCounter(
      "fwdecay_server_frame_errors_total",
      "Frames refused (oversized, bad magic, transport errors).");
  m_.batches_acked =
      reg.GetCounter("fwdecay_server_batches_acked_total",
                     "Ingest batches journaled, applied, and acknowledged.");
  m_.backpressure = reg.GetCounter(
      "fwdecay_server_backpressure_total",
      "Ingest batches refused with kBusy because the bounded queue "
      "was full.");
  m_.journal_failures =
      reg.GetCounter("fwdecay_server_journal_failures_total",
                     "Journal appends that failed (batch not acknowledged).");
  m_.journal_bytes = reg.GetCounter("fwdecay_server_journal_bytes_total",
                                    "Bytes appended to journal segments.");
  m_.queue_depth = reg.GetGauge("fwdecay_server_queue_depth",
                                "Ingest queue depth after the last event.");
  m_.checkpoints = reg.GetCounter("fwdecay_server_checkpoints_total",
                                  "Server snapshots published.");
  m_.checkpoint_failures =
      reg.GetCounter("fwdecay_server_checkpoint_failures_total",
                     "Checkpoint attempts that failed.");
  m_.recoveries = reg.GetCounter(
      "fwdecay_server_recoveries_total",
      "Startups that recovered state from a prior incarnation.");
  m_.recovery_fallbacks = reg.GetCounter(
      "fwdecay_server_recovery_fallbacks_total",
      "Snapshots skipped during recovery (corrupt; fell back to older).");
  m_.replayed_batches =
      reg.GetCounter("fwdecay_server_replayed_batches_total",
                     "Journaled batches re-applied during recovery.");
  m_.registered_queries = reg.GetGauge("fwdecay_server_registered_queries",
                                       "Continuous queries registered.");
  m_.tenants =
      reg.GetGauge("fwdecay_server_tenants", "Tenants provisioned.");
  m_.polls = reg.GetCounter("fwdecay_server_polls_total",
                            "Non-destructive result polls served.");
  m_.ingest_rate = reg.GetDecayedRate(
      "fwdecay_server_ingest_rate",
      "Forward-decayed acknowledged-packet rate (events/s; alpha=0.1).",
      /*alpha=*/0.1);
  m_.apply_ns = reg.GetReservoir(
      "fwdecay_server_apply_ns",
      "Journal+fanout wall time per acknowledged batch, ns (decayed "
      "reservoir).",
      /*k=*/256, /*alpha=*/0.015);
}

Daemon::~Daemon() { Stop(); }

// --------------------------------------------------------------------
// Recovery

void Daemon::ResetEngineStateLocked() {
  queries_.clear();
  tenants_.clear();
  global_seq_ = 0;
  batches_acked_ = 0;
  next_query_id_ = 1;
}

bool Daemon::InstallQueryLocked(std::uint64_t id, const std::string& tenant,
                                const std::string& name,
                                const std::string& gsql, bool two_level,
                                std::string* error) {
  dsms::CompiledQuery::Options qopts;
  qopts.two_level = two_level;
  auto plan = dsms::CompiledQuery::Compile(gsql, error, qopts);
  if (plan == nullptr) return false;

  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    // A register record can only follow the tenant's provision record,
    // but tolerate a gap (e.g. a snapshot from an older layout) by
    // installing the default spec under this name.
    TenantSpec spec = options_.tenant_defaults;
    spec.name = tenant;
    ErrCode code = ErrCode::kNone;
    std::string msg;
    if (ProvisionTenantLocked(spec, /*journal=*/false, &code, &msg) ==
        nullptr) {
      *error = "cannot provision tenant '" + tenant + "': " + msg;
      return false;
    }
    it = tenants_.find(tenant);
  }

  auto entry = std::make_unique<QueryEntry>();
  entry->id = id;
  entry->tenant = tenant;
  entry->name = name;
  entry->gsql = gsql;
  entry->two_level = two_level;
  entry->plan = std::move(plan);
  entry->exec = entry->plan->NewExecution();

  dsms::OverloadPolicy policy;
  policy.max_groups = it->second.spec.max_groups;
  policy.decay_alpha = it->second.spec.decay_alpha;
  policy.landmark = it->second.spec.landmark;
  entry->exec->SetOverloadPolicy(policy);

  queries_.push_back(std::move(entry));
  it->second.query_count += 1;
  if (id >= next_query_id_) next_query_id_ = id + 1;
  m_.registered_queries->Set(static_cast<double>(queries_.size()));
  return true;
}

bool Daemon::LoadServerSnapshotLocked(std::uint64_t epoch,
                                      std::string* error) {
  std::vector<std::uint8_t> bytes;
  if (!FaultFs::Instance().ReadFile(snaps_.SnapPath(epoch), &bytes, error)) {
    return false;
  }
  ByteReader r(bytes.data(), bytes.size());
  char magic[sizeof(kServerSnapMagic)];
  if (r.Remaining() < sizeof(magic)) {
    *error = "server snapshot too short for its header";
    return false;
  }
  ByteReader magic_reader(nullptr, 0);
  (void)r.ReadSubReader(sizeof(magic), &magic_reader);
  std::memcpy(magic, bytes.data(), sizeof(magic));
  if (std::memcmp(magic, kServerSnapMagic, sizeof(magic)) != 0) {
    *error = "server snapshot has a bad magic";
    return false;
  }
  std::uint32_t version = 0;
  std::uint32_t crc = 0;
  std::uint64_t body_len = 0;
  if (!r.ReadU32(&version) || !r.ReadU32(&crc) || !r.ReadU64(&body_len)) {
    *error = "server snapshot header is truncated";
    return false;
  }
  if (version != kServerSnapVersion) {
    *error = "server snapshot version " + std::to_string(version) +
             " is not supported";
    return false;
  }
  if (body_len != r.Remaining()) {
    *error = "server snapshot body length does not match the file";
    return false;
  }
  const std::uint8_t* body = bytes.data() + (bytes.size() - r.Remaining());
  if (Crc32c(body, static_cast<std::size_t>(body_len)) != crc) {
    *error = "server snapshot failed its CRC32C check";
    return false;
  }

  ResetEngineStateLocked();
  std::uint64_t watermark = 0;
  std::uint64_t acked = 0;
  std::uint64_t next_id = 0;
  std::uint32_t ntenants = 0;
  if (!r.ReadU64(&watermark) || !r.ReadU64(&acked) || !r.ReadU64(&next_id) ||
      !r.ReadU32(&ntenants) || ntenants > kMaxSnapshotTenants) {
    *error = "server snapshot body is corrupt (prologue)";
    return false;
  }
  for (std::uint32_t i = 0; i < ntenants; ++i) {
    TenantSpec spec;
    if (!DecodeTenantSpec(&r, &spec)) {
      *error = "server snapshot body is corrupt (tenant " +
               std::to_string(i) + ")";
      return false;
    }
    ErrCode code = ErrCode::kNone;
    std::string msg;
    if (ProvisionTenantLocked(spec, /*journal=*/false, &code, &msg) ==
        nullptr) {
      *error = "snapshot tenant '" + spec.name + "' rejected: " + msg;
      return false;
    }
  }
  std::uint32_t nqueries = 0;
  if (!r.ReadU32(&nqueries) || nqueries > kMaxSnapshotQueries) {
    *error = "server snapshot body is corrupt (query count)";
    return false;
  }
  for (std::uint32_t i = 0; i < nqueries; ++i) {
    std::uint64_t id = 0;
    std::string tenant;
    std::string name;
    std::string gsql;
    std::uint8_t two = 0;
    std::uint64_t image_len = 0;
    if (!r.ReadU64(&id) || !r.ReadString(&tenant) || !r.ReadString(&name) ||
        !r.ReadString(&gsql) || !r.ReadU8(&two) || !r.ReadU64(&image_len) ||
        image_len > r.Remaining()) {
      *error =
          "server snapshot body is corrupt (query " + std::to_string(i) + ")";
      return false;
    }
    const std::uint8_t* image = bytes.data() + (bytes.size() - r.Remaining());
    ByteReader skipped(nullptr, 0);
    (void)r.ReadSubReader(static_cast<std::size_t>(image_len), &skipped);
    if (!InstallQueryLocked(id, tenant, name, gsql, two != 0, error)) {
      return false;
    }
    if (!queries_.back()->exec->RestoreBytes(
            image, static_cast<std::size_t>(image_len), error)) {
      return false;
    }
  }
  if (!r.Exhausted()) {
    *error = "server snapshot has trailing bytes";
    return false;
  }
  global_seq_ = watermark;
  batches_acked_ = acked;
  if (next_id >= next_query_id_) next_query_id_ = next_id;
  return true;
}

bool Daemon::ReplaySegmentsLocked(std::uint64_t from_epoch,
                                  std::uint64_t to_epoch,
                                  std::string* error) {
  auto& fs = FaultFs::Instance();
  for (std::uint64_t e = from_epoch; e <= to_epoch; ++e) {
    const std::string path = snaps_.JournalPath(e);
    // A missing segment inside the range is legal: no record was ever
    // appended during that epoch (the file is created lazily).
    if (!fs.FileExists(path)) continue;
    std::vector<JournalRecord> records;
    bool torn = false;
    if (!ReadJournalFile(path, &records, &torn, error)) return false;
    for (JournalRecord& rec : records) {
      // Watermark filter: snapshots already cover these records.
      if (rec.seq <= global_seq_) continue;
      switch (rec.type) {
        case JournalRecordType::kBatch:
          FanOutLocked(rec.batch);
          batches_acked_ += 1;
          m_.replayed_batches->Increment();
          break;
        case JournalRecordType::kRegister:
          if (!InstallQueryLocked(rec.query_id, rec.tenant, rec.name,
                                  rec.gsql, rec.two_level, error)) {
            return false;
          }
          break;
        case JournalRecordType::kTenant: {
          ErrCode code = ErrCode::kNone;
          std::string msg;
          if (ProvisionTenantLocked(rec.spec, /*journal=*/false, &code,
                                    &msg) == nullptr) {
            *error = "journal tenant record rejected: " + msg;
            return false;
          }
          break;
        }
      }
      global_seq_ = rec.seq;
    }
    // A torn tail is a clean end of segment: the torn record was never
    // acknowledged, so dropping it is the durability contract.
  }
  return true;
}

bool Daemon::RecoverLocked(std::string* error) {
  auto& fs = FaultFs::Instance();
  if (!fs.EnsureDir(options_.data_dir, error)) return false;
  if (!snaps_.ReadManifest(&manifest_, error)) return false;

  const bool prior_incarnation =
      manifest_.active > 0 || !manifest_.snaps.empty() ||
      fs.FileExists(snaps_.JournalPath(0));

  std::uint64_t replay_from = manifest_.floor;
  bool snapshot_loaded = false;
  for (std::uint64_t epoch : manifest_.snaps) {
    std::string snap_error;
    if (LoadServerSnapshotLocked(epoch, &snap_error)) {
      snapshot_loaded = true;
      replay_from = epoch;
      break;
    }
    // Corrupt or unreadable: fall back to the previous rotation.
    m_.recovery_fallbacks->Increment();
    ResetEngineStateLocked();
  }
  if (!snapshot_loaded && !manifest_.snaps.empty() && manifest_.floor > 0) {
    // Every retained snapshot failed and the journal chain below the
    // floor is gone: replay-from-scratch is impossible. Refusing beats
    // silently serving an empty registry over acknowledged data.
    *error = "no retained snapshot is readable and the journal floor is " +
             std::to_string(manifest_.floor);
    return false;
  }

  if (!ReplaySegmentsLocked(replay_from, manifest_.active, error)) {
    return false;
  }

  // New incarnation, new segment: the previous segment may end in a
  // torn record, and appending after a torn tail would hide everything
  // behind it from the reader. Bumping `active` first (and persisting
  // it) keeps replay's probe range complete even if we crash before
  // the first append.
  manifest_.active += 1;
  if (!snaps_.WriteManifest(manifest_, error)) return false;
  journal_ = std::make_unique<JournalWriter>(
      snaps_.JournalPath(manifest_.active));

  if (prior_incarnation) m_.recoveries->Increment();
  m_.registered_queries->Set(static_cast<double>(queries_.size()));
  m_.tenants->Set(static_cast<double>(tenants_.size()));
  return true;
}

// --------------------------------------------------------------------
// Lifecycle

bool Daemon::Start(std::string* error) {
  {
    MutexLock lock(mu_);
    if (started_) {
      *error = "daemon already started";
      return false;
    }
    if (!RecoverLocked(error)) return false;
    started_ = true;
  }
  if (!listener_.Open(options_.port, error)) return false;
  if (!metrics_listener_.Open(options_.metrics_port, error)) return false;

  accept_thread_ = std::thread([this] { AcceptLoop(); });
  apply_thread_ = std::thread([this] { ApplyLoop(); });
  http_thread_ = std::thread([this] { MetricsHttpLoop(); });
  if (options_.checkpoint_interval_s > 0.0) {
    checkpoint_thread_ = std::thread([this] { CheckpointLoop(); });
  }
  if (options_.stats_period_s > 0.0) {
    reporter_ = std::make_unique<metrics::StatsReporter>(
        &metrics::MetricsRegistry::Instance(), options_.stats_period_s);
  }
  return true;
}

void Daemon::Stop() {
  {
    MutexLock lock(mu_);
    if (!started_ || stopped_) return;
    stopped_ = true;  // claims shutdown; the rest runs exactly once
    shutting_down_ = true;
  }

  // 1. Stop admitting: no new connections, existing ones unblocked.
  stop_accept_.store(true);
  listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& conn : connections_) {
    conn->sock.ShutdownBoth();
    if (conn->thread.joinable()) conn->thread.join();
  }
  connections_.clear();
  listener_.Close();

  // 2. Drain: every queued batch is journaled and applied before the
  //    apply thread exits (no push can race this — producers are gone).
  queue_.Close();
  if (apply_thread_.joinable()) apply_thread_.join();

  // 3. Quiesce the periodic checkpointer, then write the clean
  //    shutdown checkpoint.
  checkpoint_stop_.release();
  if (checkpoint_thread_.joinable()) checkpoint_thread_.join();
  {
    std::string error;
    (void)CheckpointNow(&error);  // failure already counted + recoverable
  }

  // 4. Final metrics: destroy executions first so the engine flushes
  //    its per-execution deltas, then push one last exposition through
  //    the reporter before it stops.
  {
    MutexLock lock(mu_);
    queries_.clear();
    tenants_.clear();
  }
  stop_http_.store(true);
  metrics_listener_.Shutdown();
  if (http_thread_.joinable()) http_thread_.join();
  metrics_listener_.Close();
  if (reporter_ != nullptr) {
    reporter_->FlushNow();
    reporter_->Stop();
  }
}

std::uint16_t Daemon::ingest_port() const { return listener_.port(); }
std::uint16_t Daemon::metrics_port() const {
  return metrics_listener_.port();
}

std::uint64_t Daemon::global_seq() const {
  MutexLock lock(mu_);
  return global_seq_;
}

std::uint64_t Daemon::batches_acked() const {
  MutexLock lock(mu_);
  return batches_acked_;
}

std::size_t Daemon::query_count() const {
  MutexLock lock(mu_);
  return queries_.size();
}

std::size_t Daemon::tenant_count() const {
  MutexLock lock(mu_);
  return tenants_.size();
}

// --------------------------------------------------------------------
// Tenants

Daemon::TenantState* Daemon::ProvisionTenantLocked(const TenantSpec& spec,
                                                   bool journal,
                                                   ErrCode* code,
                                                   std::string* msg) {
  if (!ValidTenantName(spec.name)) {
    *code = ErrCode::kBadName;
    *msg = "invalid tenant name";
    return nullptr;
  }
  auto it = tenants_.find(spec.name);
  const bool is_new = it == tenants_.end();
  if (is_new && tenants_.size() >= options_.max_tenants) {
    *code = ErrCode::kQuotaExceeded;
    *msg = "tenant limit of " + std::to_string(options_.max_tenants) +
           " reached";
    return nullptr;
  }
  if (journal) {
    const std::uint64_t seq = global_seq_ + 1;
    std::string err;
    if (journal_ == nullptr ||
        !journal_->Append(EncodeTenantRecord(seq, spec), &err)) {
      m_.journal_failures->Increment();
      *code = ErrCode::kInternal;
      *msg = "journal append failed: " + err;
      return nullptr;
    }
    global_seq_ = seq;
  }
  if (is_new) {
    auto& reg = metrics::MetricsRegistry::Instance();
    TenantState state;
    state.spec = spec;
    state.groups_shed = reg.GetCounter(
        "fwdecay_server_tenant_groups_shed_total",
        "Groups evicted by min-forward-weight shedding, per tenant.",
        LabelForTenant(spec.name));
    state.tuples_shed = reg.GetCounter(
        "fwdecay_server_tenant_tuples_shed_total",
        "Tuples lost inside shed groups, per tenant.",
        LabelForTenant(spec.name));
    it = tenants_.emplace(spec.name, std::move(state)).first;
  } else {
    it->second.spec = spec;
  }
  // A spec change re-arms the shedding policy of every live execution
  // owned by this tenant.
  for (auto& q : queries_) {
    if (q->tenant != spec.name) continue;
    dsms::OverloadPolicy policy;
    policy.max_groups = spec.max_groups;
    policy.decay_alpha = spec.decay_alpha;
    policy.landmark = spec.landmark;
    q->exec->SetOverloadPolicy(policy);
  }
  m_.tenants->Set(static_cast<double>(tenants_.size()));
  return &it->second;
}

Daemon::TenantState* Daemon::FindOrProvisionTenantLocked(
    const std::string& name, ErrCode* code, std::string* msg) {
  auto it = tenants_.find(name);
  if (it != tenants_.end()) return &it->second;
  TenantSpec spec = options_.tenant_defaults;
  spec.name = name;
  return ProvisionTenantLocked(spec, /*journal=*/true, code, msg);
}

bool Daemon::ProvisionTenant(const TenantSpec& spec, std::string* error) {
  MutexLock lock(mu_);
  if (!started_ || journal_ == nullptr) {
    *error = "daemon is not started";
    return false;
  }
  ErrCode code = ErrCode::kNone;
  std::string msg;
  if (ProvisionTenantLocked(spec, /*journal=*/true, &code, &msg) == nullptr) {
    *error = msg;
    return false;
  }
  return true;
}

// --------------------------------------------------------------------
// Apply path

void Daemon::FanOutLocked(const dsms::PacketBatch& batch) {
  for (auto& q : queries_) {
    q->exec->Consume(batch);
    const std::uint64_t shed_groups_now = q->exec->groups_shed();
    const std::uint64_t shed_tuples_now = q->exec->tuples_shed();
    auto it = tenants_.find(q->tenant);
    if (it != tenants_.end()) {
      if (shed_groups_now > q->groups_shed_seen) {
        it->second.groups_shed->Increment(shed_groups_now -
                                          q->groups_shed_seen);
      }
      if (shed_tuples_now > q->tuples_shed_seen) {
        it->second.tuples_shed->Increment(shed_tuples_now -
                                          q->tuples_shed_seen);
      }
    }
    q->groups_shed_seen = shed_groups_now;
    q->tuples_shed_seen = shed_tuples_now;
  }
}

ApplyResult Daemon::ApplyOne(PendingBatch* item) {
  ApplyResult result;
  const double now_s = metrics::MetricsRegistry::Instance().NowSeconds();
  metrics::ScopedTimerSample sample(m_.apply_ns, now_s);

  MutexLock lock(mu_);
  const std::uint64_t seq = global_seq_ + 1;
  const std::vector<std::uint8_t> record =
      EncodeBatchRecord(seq, item->batch);
  std::string err;
  if (journal_ == nullptr || !journal_->Append(record, &err)) {
    // Graceful degradation: the batch is refused (never half-applied),
    // the client sees a structured error, the engines stay consistent.
    m_.journal_failures->Increment();
    result.ok = false;
    result.code = ErrCode::kInternal;
    result.message = "journal append failed: " + err;
    return result;
  }
  m_.journal_bytes->Increment(record.size() + 8);  // + frame overhead
  global_seq_ = seq;
  batches_acked_ += 1;
  FanOutLocked(item->batch);
  m_.batches_acked->Increment();
  m_.ingest_rate->Mark(now_s, static_cast<double>(item->batch.size()));
  result.ok = true;
  result.global_seq = seq;
  return result;
}

void Daemon::ApplyLoop() {
  // Pop parks until a batch arrives, and returns false once Stop() has
  // closed the queue and every queued batch has been applied.
  std::unique_ptr<PendingBatch> item;
  while (queue_.Pop(&item)) {
    m_.queue_depth->Set(static_cast<double>(queue_.depth()));
    if (options_.apply_delay_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.apply_delay_ms));
    }
    item->done.set_value(ApplyOne(item.get()));
  }
}

// --------------------------------------------------------------------
// Checkpoints

bool Daemon::BuildServerSnapshotLocked(std::vector<std::uint8_t>* image,
                                       std::string* error) {
  ByteWriter body;
  body.WriteU64(global_seq_);
  body.WriteU64(batches_acked_);
  body.WriteU64(next_query_id_);
  body.WriteU32(static_cast<std::uint32_t>(tenants_.size()));
  for (const auto& [name, state] : tenants_) {  // map order: sorted names
    EncodeTenantSpec(state.spec, &body);
  }
  body.WriteU32(static_cast<std::uint32_t>(queries_.size()));
  for (const auto& q : queries_) {  // registration (id) order
    std::vector<std::uint8_t> engine_image;
    if (!q->exec->CheckpointBytes(&engine_image, error)) return false;
    body.WriteU64(q->id);
    body.WriteString(q->tenant);
    body.WriteString(q->name);
    body.WriteString(q->gsql);
    body.WriteU8(q->two_level ? 1 : 0);
    body.WriteU64(engine_image.size());
    body.WriteBytes(engine_image.data(), engine_image.size());
  }
  const std::vector<std::uint8_t>& body_bytes = body.bytes();

  ByteWriter file;
  file.WriteBytes(kServerSnapMagic, sizeof(kServerSnapMagic));
  file.WriteU32(kServerSnapVersion);
  file.WriteU32(Crc32c(body_bytes.data(), body_bytes.size()));
  file.WriteU64(body_bytes.size());
  file.WriteBytes(body_bytes.data(), body_bytes.size());
  *image = file.Take();
  return true;
}

bool Daemon::CheckpointNow(std::string* error) {
  MutexLock lock(mu_);
  if (journal_ == nullptr) {
    *error = "daemon holds no recovered state to checkpoint";
    return false;
  }
  metrics::ScopedTimerSample checkpoint_timer(
      dsms::CheckpointLatencyReservoir(),
      metrics::MetricsRegistry::Instance().NowSeconds());
  // Persist the epoch bump BEFORE any record can land in the new
  // segment: replay's probe range [snapshot epoch, active] must always
  // cover every acknowledged record, even if we crash right here.
  const std::uint64_t epoch = manifest_.active + 1;
  Manifest pre = manifest_;
  pre.active = epoch;
  if (!snaps_.WriteManifest(pre, error)) {
    m_.checkpoint_failures->Increment();
    return false;
  }
  manifest_.active = epoch;
  journal_ = std::make_unique<JournalWriter>(snaps_.JournalPath(epoch));

  std::vector<std::uint8_t> image;
  if (!BuildServerSnapshotLocked(&image, error)) {
    // The segment switch stands; records continue in the new segment
    // and the next checkpoint retries the snapshot.
    m_.checkpoint_failures->Increment();
    return false;
  }
  if (!snaps_.PublishSnapshot(epoch, image, &manifest_, error)) {
    m_.checkpoint_failures->Increment();
    return false;
  }
  m_.checkpoints->Increment();
  return true;
}

void Daemon::CheckpointLoop() {
  const auto period = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::duration<double>(options_.checkpoint_interval_s));
  for (;;) {
    if (checkpoint_stop_.try_acquire_for(period)) break;
    std::string error;
    (void)CheckpointNow(&error);  // failures surface via the metric
  }
}

// --------------------------------------------------------------------
// Serving: accept loop and connection threads

void Daemon::ReapFinishedConnections() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load()) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Daemon::AcceptLoop() {
  while (!stop_accept_.load()) {
    Socket sock;
    std::string error;
    const IoStatus status = listener_.AcceptOnce(200, &sock, &error);
    ReapFinishedConnections();
    if (status == IoStatus::kTimeout) continue;
    if (status == IoStatus::kClosed) break;
    if (status != IoStatus::kOk) continue;

    if (connections_.size() >= options_.max_connections) {
      // Admission control: refuse with a structured reply, never by
      // silently dropping the connection.
      std::string send_error;
      (void)SendFrame(sock, MsgType::kError,
                      EncodeError(ErrCode::kNotAdmitted,
                                  "connection limit reached"),
                      1000, &send_error);
      continue;  // sock closes on scope exit
    }

    auto conn = std::make_unique<Connection>();
    conn->sock = std::move(sock);
    Connection* raw = conn.get();
    conn->thread = std::thread([this, raw] { ServeConnection(raw); });
    connections_.push_back(std::move(conn));
  }
}

void Daemon::ServeConnection(Connection* conn) {
  m_.connections_total->Increment();
  m_.connections_active->Set(m_.connections_active->value() + 1);
  ConnState state;
  bool running = true;
  while (running) {
    Frame frame;
    std::string error;
    const FrameReadStatus status =
        ReadFrame(conn->sock, &frame, options_.idle_timeout_ms,
                  options_.io_timeout_ms, &error);
    switch (status) {
      case FrameReadStatus::kOk:
        m_.frames_total->Increment();
        running = HandleFrame(conn, &state, frame);
        break;
      case FrameReadStatus::kTimeout: {
        // Idle reaper: tell the peer why, then hang up.
        m_.connections_reaped->Increment();
        std::string send_error;
        (void)SendFrame(conn->sock, MsgType::kError,
                        EncodeError(ErrCode::kIdleTimeout,
                                    "connection idle past the deadline"),
                        1000, &send_error);
        running = false;
        break;
      }
      case FrameReadStatus::kTooLarge: {
        // Satellite: refuse oversized frames with a structured error;
        // the stream stayed synchronized, so the session survives.
        m_.frame_errors->Increment();
        std::string send_error;
        running =
            SendFrame(conn->sock, MsgType::kError,
                      EncodeError(ErrCode::kFrameTooLarge, error),
                      options_.io_timeout_ms, &send_error) == IoStatus::kOk;
        break;
      }
      case FrameReadStatus::kBadMagic: {
        // The byte stream is unsynchronized: answer once, then close.
        m_.frame_errors->Increment();
        std::string send_error;
        (void)SendFrame(conn->sock, MsgType::kError,
                        EncodeError(ErrCode::kBadMagic, error), 1000,
                        &send_error);
        running = false;
        break;
      }
      case FrameReadStatus::kClosed:
        running = false;
        break;
      case FrameReadStatus::kError:
        m_.frame_errors->Increment();
        running = false;
        break;
    }
  }
  m_.connections_active->Set(
      std::max(m_.connections_active->value() - 1, 0.0));
  conn->done.store(true);
}

bool Daemon::HandleFrame(Connection* conn, ConnState* state,
                         const Frame& frame) {
  MsgType reply_type = MsgType::kError;
  std::vector<std::uint8_t> reply;
  switch (frame.type) {
    case MsgType::kHello:
      reply = HandleHello(state, frame, &reply_type);
      break;
    case MsgType::kRegister:
      reply = HandleRegister(state, frame, &reply_type);
      break;
    case MsgType::kIngest:
      reply = HandleIngest(frame, &reply_type);
      break;
    case MsgType::kPoll:
      reply = HandlePoll(frame, &reply_type);
      break;
    case MsgType::kStats:
      reply = HandleStats(&reply_type);
      break;
    default:
      reply = EncodeError(ErrCode::kBadFrame, "unexpected message type");
      break;
  }
  std::string send_error;
  return SendFrame(conn->sock, reply_type, reply, options_.io_timeout_ms,
                   &send_error) == IoStatus::kOk;
}

std::vector<std::uint8_t> Daemon::HandleHello(ConnState* state,
                                              const Frame& frame,
                                              MsgType* type) {
  *type = MsgType::kError;
  std::string tenant;
  if (!DecodeHello(frame.payload, &tenant)) {
    return EncodeError(ErrCode::kBadFrame, "malformed Hello");
  }
  MutexLock lock(mu_);
  if (shutting_down_) {
    return EncodeError(ErrCode::kShuttingDown, "shutting down");
  }
  ErrCode code = ErrCode::kNone;
  std::string msg;
  if (FindOrProvisionTenantLocked(tenant, &code, &msg) == nullptr) {
    return EncodeError(code, msg);
  }
  state->tenant = tenant;
  *type = MsgType::kHelloOk;
  return EncodeHello(tenant);
}

std::vector<std::uint8_t> Daemon::HandleRegister(ConnState* state,
                                                 const Frame& frame,
                                                 MsgType* type) {
  *type = MsgType::kError;
  if (state->tenant.empty()) {
    return EncodeError(ErrCode::kNotAdmitted, "Hello before Register");
  }
  std::string name;
  std::string gsql;
  bool two_level = options_.two_level_default;
  ErrCode code = ErrCode::kBadFrame;
  if (!DecodeRegister(frame.payload, &name, &gsql, &two_level, &code)) {
    return EncodeError(code, "malformed Register");
  }

  MutexLock lock(mu_);
  if (shutting_down_) {
    return EncodeError(ErrCode::kShuttingDown, "shutting down");
  }
  auto it = tenants_.find(state->tenant);
  if (it == tenants_.end()) {
    return EncodeError(ErrCode::kNotAdmitted, "tenant vanished");
  }
  for (const auto& q : queries_) {
    if (q->tenant == state->tenant && q->name == name) {
      return EncodeError(ErrCode::kBadName,
                         "query name already registered for this tenant");
    }
  }
  if (it->second.query_count >= it->second.spec.max_queries) {
    return EncodeError(
        ErrCode::kQuotaExceeded,
        "tenant holds its maximum of " +
            std::to_string(it->second.spec.max_queries) + " queries");
  }
  // Validate the plan before journaling its registration: a record in
  // the journal must always re-compile on replay.
  {
    std::string compile_error;
    dsms::CompiledQuery::Options qopts;
    qopts.two_level = two_level;
    if (dsms::CompiledQuery::Compile(gsql, &compile_error, qopts) ==
        nullptr) {
      return EncodeError(ErrCode::kParseError, compile_error);
    }
  }
  const std::uint64_t id = next_query_id_;
  const std::uint64_t seq = global_seq_ + 1;
  std::string err;
  if (journal_ == nullptr ||
      !journal_->Append(EncodeRegisterRecord(seq, id, state->tenant, name,
                                             gsql, two_level),
                        &err)) {
    m_.journal_failures->Increment();
    return EncodeError(ErrCode::kInternal, "journal append failed: " + err);
  }
  global_seq_ = seq;
  if (!InstallQueryLocked(id, state->tenant, name, gsql, two_level, &err)) {
    return EncodeError(ErrCode::kInternal, err);
  }
  *type = MsgType::kRegisterOk;
  return EncodeRegisterOk(id);
}

std::vector<std::uint8_t> Daemon::HandleIngest(const Frame& frame,
                                               MsgType* type) {
  *type = MsgType::kError;
  auto item = std::make_unique<PendingBatch>();
  if (!DecodeIngest(frame.payload, &item->client_seq, &item->batch)) {
    return EncodeError(ErrCode::kBadFrame, "malformed ingest batch");
  }
  {
    MutexLock lock(mu_);
    if (shutting_down_) {
      return EncodeError(ErrCode::kShuttingDown, "shutting down");
    }
  }
  const std::uint64_t client_seq = item->client_seq;
  std::future<ApplyResult> done = item->done.get_future();
  if (!queue_.TryPush(std::move(item))) {
    // Bounded queue full: explicit backpressure, bounded memory.
    {
      MutexLock lock(mu_);
      backpressure_total_ += 1;
    }
    m_.backpressure->Increment();
    *type = MsgType::kBusy;
    return EncodeBusy(client_seq,
                      static_cast<std::uint32_t>(queue_.depth()));
  }
  m_.queue_depth->Set(static_cast<double>(queue_.depth()));
  if (done.wait_for(std::chrono::milliseconds(kAckWaitMs)) !=
      std::future_status::ready) {
    return EncodeError(ErrCode::kInternal,
                       "timed out waiting for the apply thread");
  }
  const ApplyResult result = done.get();
  if (!result.ok) return EncodeError(result.code, result.message);
  *type = MsgType::kAck;
  return EncodeAck(client_seq, result.global_seq);
}

std::vector<std::uint8_t> Daemon::HandlePoll(const Frame& frame,
                                             MsgType* type) {
  *type = MsgType::kError;
  std::uint64_t query_id = 0;
  if (!DecodePoll(frame.payload, &query_id)) {
    return EncodeError(ErrCode::kBadFrame, "malformed poll");
  }
  std::vector<std::uint8_t> image;
  const dsms::CompiledQuery* plan = nullptr;
  {
    MutexLock lock(mu_);
    const QueryEntry* entry = nullptr;
    for (const auto& q : queries_) {
      if (q->id == query_id) {
        entry = q.get();
        break;
      }
    }
    if (entry == nullptr) {
      return EncodeError(ErrCode::kUnknownQuery,
                         "no query with id " + std::to_string(query_id));
    }
    std::string err;
    if (!entry->exec->CheckpointBytes(&image, &err)) {
      return EncodeError(ErrCode::kInternal, err);
    }
    plan = entry->plan.get();
  }
  // Finish() is destructive, so the poll runs against a clone restored
  // from the execution's own snapshot image — the live execution keeps
  // aggregating, and plans are immutable + never dropped while
  // connection threads run.
  std::unique_ptr<dsms::QueryExecution> clone = plan->NewExecution();
  std::string err;
  if (!clone->RestoreBytes(image.data(), image.size(), &err)) {
    return EncodeError(ErrCode::kInternal, err);
  }
  const dsms::ResultSet result = clone->Finish();
  std::vector<std::uint8_t> payload = EncodeResult(result);
  if (payload.size() > kMaxFrameBytes) {
    return EncodeError(ErrCode::kResultTooLarge,
                       "result of " + std::to_string(payload.size()) +
                           " bytes exceeds the frame limit");
  }
  m_.polls->Increment();
  *type = MsgType::kResult;
  return payload;
}

std::vector<std::uint8_t> Daemon::HandleStats(MsgType* type) {
  WireStats stats;
  {
    MutexLock lock(mu_);
    stats.global_seq = global_seq_;
    stats.batches_acked = batches_acked_;
    stats.backpressure_total = backpressure_total_;
    for (const auto& q : queries_) {
      stats.groups_shed_total += q->exec->groups_shed();
    }
    stats.queries = static_cast<std::uint32_t>(queries_.size());
    stats.tenants = static_cast<std::uint32_t>(tenants_.size());
  }
  stats.queue_depth = static_cast<std::uint32_t>(queue_.depth());
  *type = MsgType::kStatsOk;
  return EncodeStatsOk(stats);
}

// --------------------------------------------------------------------
// /metrics over HTTP

void Daemon::MetricsHttpLoop() {
  while (!stop_http_.load()) {
    Socket sock;
    std::string error;
    const IoStatus status = metrics_listener_.AcceptOnce(200, &sock, &error);
    if (status == IoStatus::kTimeout) continue;
    if (status == IoStatus::kClosed) break;
    if (status != IoStatus::kOk) continue;
    // Scrapes are rare and tiny; serving them serially keeps the
    // endpoint from becoming a connection sink.
    ServeMetricsConnection(std::move(sock));
  }
}

void Daemon::ServeMetricsConnection(Socket sock) {
  // Read the request head (byte-wise: requests are a few hundred bytes
  // and the deadline caps a dribbling client).
  std::string request;
  std::string error;
  while (request.size() < kMaxHttpRequestBytes &&
         request.find("\r\n\r\n") == std::string::npos) {
    char c = 0;
    if (RecvExactly(sock, &c, 1, kHttpTimeoutMs, &error) != IoStatus::kOk) {
      return;
    }
    request.push_back(c);
  }
  const std::size_t line_end = request.find("\r\n");
  const std::string line =
      line_end == std::string::npos ? request : request.substr(0, line_end);

  std::string body;
  std::string status_line = "HTTP/1.1 404 Not Found";
  std::string content_type = "text/plain; charset=utf-8";
  if (line.rfind("GET /metrics", 0) == 0) {
    metrics::MetricsRegistry::Instance().RenderPrometheus(&body);
    status_line = "HTTP/1.1 200 OK";
    content_type = "text/plain; version=0.0.4; charset=utf-8";
  } else if (line.rfind("GET /healthz", 0) == 0) {
    body = "ok\n";
    status_line = "HTTP/1.1 200 OK";
  } else {
    body = "not found\n";
  }
  std::string response = status_line + "\r\nContent-Type: " + content_type +
                         "\r\nContent-Length: " + std::to_string(body.size()) +
                         "\r\nConnection: close\r\n\r\n" + body;
  (void)SendExactly(sock, response.data(), response.size(), kHttpTimeoutMs,
                    &error);
}

}  // namespace fwdecay::server
