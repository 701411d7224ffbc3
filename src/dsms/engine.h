#ifndef FWDECAY_DSMS_ENGINE_H_
#define FWDECAY_DSMS_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dsms/agg.h"
#include "dsms/batch.h"
#include "dsms/column.h"
#include "dsms/expr.h"
#include "dsms/packet.h"
#include "dsms/parser.h"
#include "dsms/value.h"
#include "util/bytes.h"
#include "util/metrics.h"

// Query compilation and execution for the mini DSMS.
//
// The pipeline mirrors the slice of GS the paper exercises: a stream
// selection (FROM TCP/UDP/PKT plus WHERE), a group-by over arbitrary
// scalar expressions (time buckets are just `time/60`), and per-group
// aggregates — built-in or UDAF. Like GS, the engine can split
// aggregation into two levels (Figure 2(a) vs 2(b)): a fixed-size
// direct-mapped low-level table absorbs most updates and evicts partial
// groups to the high level on collision. The high level is an
// open-addressing flat table over arena-backed group shells
// (DESIGN.md §13.1/§13.3), keyed by the 64-bit group hash the batch
// pipeline already computes. Each shell and each low-level slot owns
// one arena block holding its group's key, as one 8-byte word per
// GROUP BY column, and its aggregate states in place.

namespace fwdecay::dsms {

/// Result table produced by QueryExecution::Finish().
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;

  /// Renders the table for human consumption.
  std::string ToString() const;
};

/// Overload-shedding policy: bounds the number of groups an execution
/// holds. When a new group would exceed `max_groups`, the engine evicts
/// the group with the smallest *forward-decayed weight* — the sum over
/// the group's tuples of g(t_i - L) = exp(decay_alpha * (t_i - landmark))
/// — and reports it through groups_shed()/tuples_shed() instead of
/// aborting. Forward decay makes this principled: the static weight of a
/// tuple only grows with its timestamp, so the minimum-weight group is
/// the one the decayed query already values least.
struct OverloadPolicy {
  /// Maximum live groups (low + high level); 0 disables shedding.
  std::size_t max_groups = 0;
  /// Exponential forward-decay rate for group weights; 0 degrades the
  /// weight to a plain tuple count (evict the smallest group).
  double decay_alpha = 0.0;
  /// Forward-decay landmark L (only the weight *scale* depends on it).
  double landmark = 0.0;
};

class QueryExecution;

/// A validated, bound query plan. Immutable and reusable: create any
/// number of executions from one compiled query.
class CompiledQuery {
 public:
  struct Options {
    /// Enables the GS-style two-level aggregation split.
    bool two_level = false;
    /// Number of slots in the low-level direct-mapped table.
    std::size_t low_level_slots = 4096;
  };

  /// Compiles GSQL text; returns nullptr and sets *error on failure.
  static std::unique_ptr<CompiledQuery> Compile(const std::string& gsql,
                                                std::string* error);
  static std::unique_ptr<CompiledQuery> Compile(const std::string& gsql,
                                                std::string* error,
                                                Options options);

  /// Compiles an already-parsed query.
  static std::unique_ptr<CompiledQuery> CompileParsed(Query query,
                                                      std::string* error,
                                                      Options options);

  /// Starts a fresh execution of this plan. The execution holds a
  /// reference to this plan: the CompiledQuery must outlive every
  /// QueryExecution created from it.
  std::unique_ptr<QueryExecution> NewExecution() const;

  const Options& options() const { return options_; }
  std::size_t num_aggregates() const { return agg_names_.size(); }

  /// Deterministic structural hash of the plan (clauses, options,
  /// aggregate slots). Stored in snapshots so Restore() can reject a
  /// snapshot taken under a different query.
  std::uint64_t Fingerprint() const;

 private:
  friend class QueryExecution;
  friend class PipelinedQueryExecution;  // router reads filter + group exprs

  struct OutputItem {
    // Bound post-aggregation expression: kGroupRef/kAggRef placeholders
    // over the group key and finalized aggregates.
    std::unique_ptr<Expr> post;
    std::string column_name;
    std::string source_text;  // pre-binding text, for ORDER BY matching
  };

  CompiledQuery() = default;

  Options options_;
  std::uint8_t protocol_filter_ = 0;     // 0 = all, else exact match
  std::unique_ptr<Expr> where_;          // may be null
  std::vector<std::unique_ptr<Expr>> group_exprs_;
  std::vector<ExprType> key_types_;      // per group expr: its key words' type
  std::vector<std::string> agg_names_;   // aggregate function per slot
  AggStateLayout agg_layout_;            // kind + block offset per slot
  // Argument expressions per aggregate slot.
  std::vector<std::vector<std::unique_ptr<Expr>>> agg_args_;
  std::vector<OutputItem> outputs_;
  std::unique_ptr<Expr> having_;         // bound post expr; may be null
  // Output column index + descending flag, applied in order.
  std::vector<std::pair<std::size_t, bool>> order_by_;
  std::optional<std::int64_t> limit_;
};

/// Mutable state of one run: feed packets, then collect results.
class QueryExecution {
 public:
  explicit QueryExecution(const CompiledQuery* plan);
  ~QueryExecution();

  QueryExecution(const QueryExecution&) = delete;
  QueryExecution& operator=(const QueryExecution&) = delete;

  /// Processes one packet. Implemented as a one-element batch through
  /// Consume(const PacketBatch&), so both entry points share one code
  /// path and produce bit-identical state.
  void Consume(const Packet& p);

  /// Processes a columnar batch: filter (protocol + WHERE) over the
  /// whole batch, group-key hashing over the surviving selection, then
  /// grouped aggregate updates over runs of consecutive equal-key rows.
  /// Produces exactly the state a Consume(Packet) loop over the same
  /// rows would — same FP accumulation order, same RNG draw order, same
  /// eviction and shedding decisions (DESIGN.md §8).
  void Consume(const PacketBatch& batch);

  /// Flushes the low level and produces the final result table, sorted
  /// by group key for determinism.
  ResultSet Finish();

  /// Packets that passed the filter so far.
  std::uint64_t tuples_aggregated() const { return tuples_aggregated_; }

  /// Packets offered to Consume() so far (before filtering). This is the
  /// input-stream position recorded in snapshots: recovery re-feeds the
  /// trace from this offset.
  std::uint64_t packets_consumed() const { return packets_consumed_; }

  /// Distinct groups currently held (low + high level). O(1): both
  /// levels keep cached occupancy counts (audited by CheckInvariants),
  /// so the metrics flush can publish a group-count gauge on the hot
  /// path without walking the tables.
  std::size_t GroupCount() const { return high_group_count_ + low_occupied_; }

  /// Evictions from the low-level table (two-level mode only).
  std::uint64_t low_level_evictions() const { return low_level_evictions_; }

  /// Installs (or replaces) the overload-shedding policy. Takes effect
  /// on the next Consume(); group weights accumulate from the point the
  /// policy's decay parameters are set.
  void SetOverloadPolicy(const OverloadPolicy& policy) { policy_ = policy; }
  const OverloadPolicy& overload_policy() const { return policy_; }

  /// Groups evicted (and tuples lost inside them) by overload shedding.
  std::uint64_t groups_shed() const { return groups_shed_; }
  std::uint64_t tuples_shed() const { return tuples_shed_; }

  /// Writes a crash-safe snapshot of the full execution state — both
  /// group-table levels, every aggregate accumulator, the shedding
  /// policy and counters, and the input-stream position — to `path` via
  /// write-to-temp + fsync + atomic rename. On failure returns false
  /// with *error set; any existing snapshot at `path` is untouched.
  bool Checkpoint(const std::string& path, std::string* error) const;

  /// Serializes the same FWDSNAP1 image Checkpoint() writes into *out
  /// instead of a file. The server embeds these images inside its own
  /// snapshot files (one per registered query) and uses them to clone
  /// executions for non-destructive result polls (DESIGN.md §11).
  bool CheckpointBytes(std::vector<std::uint8_t>* out,
                       std::string* error) const;

  /// Replaces this execution's state with the snapshot at `path`.
  /// Verifies the CRC32C frame and the plan fingerprint; on any failure
  /// returns false with *error set and leaves the execution unusable
  /// (callers discard it). Feeding the trace from packets_consumed()
  /// onward then reproduces the uninterrupted run exactly.
  bool Restore(const std::string& path, std::string* error);

  /// As Restore(), but from an in-memory FWDSNAP1 image (the bytes
  /// CheckpointBytes() produced). Same validation, same guarantees.
  bool RestoreBytes(const std::uint8_t* data, std::size_t size,
                    std::string* error);

  /// Representation audit of both group-table levels (DESIGN.md §7):
  /// every group is stored under the hash of its key, low-level slots sit
  /// at hash % slots, every flat-table group is reachable from its home
  /// slot through an unbroken linear-probe chain, no two groups share a
  /// key, aggregate arity matches the plan, group weights are
  /// non-negative forward-decay sums, the cached counts are exact, and an
  /// installed shedding bound is respected. Aborts via FWDECAY_CHECK on
  /// violation.
  void CheckInvariants() const;

  /// Returns the execution to its freshly-constructed state while
  /// retaining every capacity the previous run warmed up: the flat
  /// table's slot arrays and arena-backed group shells, low-level slot
  /// buffers, and all batch scratch. Tumbling windows reuse one
  /// execution per window through this instead of reallocating
  /// (DESIGN.md §13.3). Pending metric deltas are flushed first; the
  /// policy installed via SetOverloadPolicy() is kept.
  void Reset();

 private:
  friend class PipelinedQueryExecution;

  struct Group;
  struct LowSlot;

  // Looks up the group with key words `key` in the flat high table;
  // when absent, admits a pooled shell (shedding first under a bounded
  // policy) and copies `key` into it. A miss that sheds nothing probes
  // the table once.
  Group* FindOrCreateHighGroup(std::uint64_t hash, const std::uint64_t* key);
  // Groups and aggregates a pre-filtered selection: sel_[0..n) holds the
  // surviving batch rows; key/argument columns are evaluated densely
  // over it. Phase 1 resolves every row to its group's state block
  // (row_blocks_); phase 2 (FlushSegment) updates the states a segment
  // at a time.
  void AggregateSelection(const PacketBatch& batch, std::size_t n);
  // Phase 2 over the open segment, rows [seg_begin_, seg_end_): one
  // UpdateStates per aggregate slot (one UpdateBatch per slot when the
  // segment is a single run), then opens an empty segment at seg_end_.
  // Called before every low-level eviction and shed, so merges and shed
  // victims see exactly the per-tuple state; a no-op outside ingest.
  // The batched hot path — must not allocate per tuple
  // (scripts/analyze.py rule `hotpath-purity`).
  void FlushSegment();
  // Admits the group with key words `key` to an empty low-level slot:
  // copies the key and constructs fresh states, carving the slot's
  // block on its first admission.
  void AdmitLow(LowSlot& slot, std::uint64_t hash, const std::uint64_t* key);
  // The batch ingest behind Consume(batch): counts the batch, selects
  // its rows through `protocol_filter` (0 keeps every row) and `where`
  // (null keeps every row), then groups and aggregates them. Consume()
  // passes the plan's filter; a pipeline shard passes none, because its
  // router already applied it.
  void ConsumeFiltered(const PacketBatch& batch, std::uint8_t protocol_filter,
                       const Expr* where);
  // Evicts every occupied low-level slot to the high level (the first
  // phase of Finish(); pipeline shards flush before the merge).
  void FlushLowLevel();
  // Destroys every group's states and empties both levels; blocks,
  // shells and slot arrays are retained.
  void ReleaseAllGroups();
  // Records of group-key order words, radix-sorted into key order
  // (Finish, snapshots, the pipeline's Finish).
  class KeyOrder;
  // One walk of the high table in slot order: appends each group's
  // aggregates, finalized once, to *cells; drops them again if HAVING
  // rejects the group, and otherwise appends the key's record (payload:
  // the group's first cell) to *order.
  void WalkGroups(std::vector<Value>* cells, KeyOrder* order) const;
  // The result table: sorts *order, builds each group's row in key
  // order from its record and cells, then applies ORDER BY (stable, so
  // key order breaks ties) and LIMIT.
  ResultSet OrderedResult(const std::vector<Value>& cells,
                          KeyOrder* order) const;
  void EvictToHigh(LowSlot& slot);
  double ForwardWeight(double ts) const;
  void ShedLowestWeightGroup();
  // Publishes the counter deltas accumulated since the previous flush
  // into the process-wide metrics registry and refreshes the group-count
  // gauge + decayed tuple rate. Called every kMetricsFlushPeriod batches
  // plus at Finish()/destruction; a FWDECAY_METRICS=OFF build compiles
  // it (and its call sites) away entirely.
  void FlushMetrics();
  // Rebinds the counter/gauge handles to the per-shard labelled
  // families (fwdecay_shard_*{shard="i"}); called once per shard by
  // PipelinedQueryExecution before any ingest.
  void UseShardMetrics(std::size_t shard_index);
  bool SerializeGroup(const Group& group, ByteWriter* writer,
                      std::string* error) const;
  bool RestoreGroup(ByteReader* reader, Group* group);

  const CompiledQuery* plan_;
  OverloadPolicy policy_;
  std::uint64_t packets_consumed_ = 0;
  std::uint64_t tuples_aggregated_ = 0;
  std::uint64_t low_level_evictions_ = 0;
  std::uint64_t groups_shed_ = 0;
  std::uint64_t tuples_shed_ = 0;
  std::size_t high_group_count_ = 0;
  std::size_t low_occupied_ = 0;  // occupied low-level slots (cached)

  // --- Self-instrumentation (util/metrics.h; DESIGN.md §9) ------------
  // Resolved-once registry handles. The hot path touches only the plain
  // members above; FlushMetrics() publishes deltas every
  // kMetricsFlushPeriod batches and the ns-per-batch reservoir samples
  // one batch in kMetricsSamplePeriod, so steady-state ingest pays a few
  // scalar ops per batch and the acceptance bound (<=5% ns/packet) holds
  // even on the one-packet-per-batch path.
  struct MetricsHandles {
    metrics::Counter* packets = nullptr;
    metrics::Counter* batches = nullptr;
    metrics::Counter* tuples = nullptr;
    metrics::Counter* evictions = nullptr;
    metrics::Counter* groups_shed = nullptr;
    metrics::Counter* tuples_shed = nullptr;
    metrics::Gauge* groups = nullptr;
    metrics::DecayedRate* tuple_rate = nullptr;
    metrics::LatencyReservoir* batch_ns = nullptr;
  };
  static constexpr std::uint64_t kMetricsFlushPeriod = 64;
  static constexpr std::uint64_t kMetricsSamplePeriod = 64;
  MetricsHandles metrics_;
  std::uint64_t metrics_batch_seq_ = 0;
  // Counter values as of the previous FlushMetrics() (so a flush
  // publishes exact deltas; Restore() resyncs these to the restored
  // counters).
  std::uint64_t flushed_packets_ = 0;
  std::uint64_t flushed_batches_ = 0;
  std::uint64_t flushed_tuples_ = 0;
  std::uint64_t flushed_evictions_ = 0;
  std::uint64_t flushed_groups_shed_ = 0;
  std::uint64_t flushed_tuples_shed_ = 0;

  // Storage details live in the .cc (pimpl-free; concrete types are
  // private nested structs).
  std::vector<LowSlot> low_table_;
  // size-1 when the low table is a power of two (the 4096 default):
  // `hash & low_mask_` then equals `hash % size` bit for bit, without
  // the per-run integer division. 0 = size not a power of two, use %.
  std::size_t low_mask_ = 0;
  struct HighTable;
  std::unique_ptr<HighTable> high_;

  // Batched-ingest scratch, reused across Consume(batch) calls so the
  // steady state allocates nothing per batch. Pure working memory —
  // never part of a snapshot (FWDSNAP1 layout is unchanged).
  BatchEvalScratch batch_scratch_;
  std::vector<std::uint32_t> sel_;        // surviving batch rows
  std::vector<std::uint32_t> row_index_;  // iota over the selection
  std::vector<std::uint64_t> hashes_;     // group hash per selected row
  std::vector<std::byte*> row_blocks_;    // state block per selected row
  std::vector<AggState*> slot_states_;    // one slot's states, a segment
  std::size_t seg_begin_ = 0;             // open segment: rows resolved
  std::size_t seg_end_ = 0;               //   but not yet applied
  std::size_t seg_runs_ = 0;              // runs resolved in the segment
  std::vector<ValueColumn> key_cols_;     // per group expr, dense
  std::vector<std::uint64_t> row_key_;    // the current run's key words
  // Per aggregate slot, per argument: dense column over the selection.
  std::vector<std::vector<ValueColumn>> arg_cols_;
  PacketBatch single_{1};                 // Consume(Packet) wrapper
};

/// Seed of the group-key hash: util/simd.h's GroupHashI64 kernel starts
/// every key's hash from it. The hash of a key equals the combine of
/// Value::Hash over its columns (simd_test covers the pairing), so
/// snapshots and shard routes do not depend on how keys are stored.
inline constexpr std::uint64_t kGroupHashSeed = 0x12345678abcdef01ULL;

/// The `fwdecay_checkpoint_ns` reservoir: wall time of one durable
/// snapshot (serialize, fsync, rename), ns. QueryExecution::Checkpoint
/// and fwdecayd's periodic and shutdown checkpoints record into it.
metrics::LatencyReservoir* CheckpointLatencyReservoir();

/// Seed that remixes the group hash into a pipeline shard index
/// (simd::ShardIndexU64). It must be a *different* function of the key
/// than the group hash itself: the low-level table indexes by
/// `hash % slots`, so routing by `hash % N` would correlate shard choice
/// with slot index and skew low-table occupancy per shard.
inline constexpr std::uint64_t kShardRouteSeed = 0x5ca1ab1e0ddba11ULL;

/// Shared-nothing pipelined execution (DESIGN.md §14) — the engine's
/// parallel-ingest path.
///
/// One routing stage (the caller's thread) filters each batch, hashes
/// the group keys, partitions the surviving rows by the remixed group
/// hash (simd::ShardIndexU64 under kShardRouteSeed), gathers each
/// shard's rows into a per-shard sub-batch, and transfers that batch
/// *whole* — by move, through a BoundedQueue (util/bounded_queue.h) —
/// to the shard's worker thread, which parks while its queue is empty.
/// Each worker owns its QueryExecution outright: after construction no
/// shard state is touched by two threads, so the only lock on the ingest
/// path is the queue's, taken once per sub-batch. Consumed batches flow
/// back to the router on a second queue for reuse, making the steady
/// state allocation-free end to end.
///
/// Because a group's key always hashes to the same shard, every group
/// is owned wholly by one shard and receives its updates in stream
/// order. Finish() runs off the hot path: it quiesces the pipeline
/// (flush partial sub-batches, close the queues, join workers), flushes
/// each shard's low level, walks each shard's table once, orders the
/// union of the shards' disjoint groups by their key order words and
/// builds one result in that order. Forward decay needs no rescaling on
/// merge (Section VI-B), so for single-level plans the result is
/// bit-identical to the single-threaded reference, and for two-level
/// plans to single-thread runs over the per-shard streams
/// (tests/pipeline_test.cc asserts both, the first also under schedule
/// exploration). With an OverloadPolicy installed each shard bounds its
/// own table, so the pipeline retains at most num_shards * max_groups
/// groups.
///
/// Threading contract: Consume(), Quiesce(), Finish() and every
/// accessor, packets_consumed() included, belong to ONE router thread
/// (it is the only producer on each shard's queue and the only consumer
/// of its recycle queue, and the offered-packet count is a plain
/// router-thread counter); the shard-summed stats are valid once
/// Quiesce() has run. Destroying the pipeline without Finish() drops
/// the partial sub-batches and joins the workers once they have drained
/// their queues.
class PipelinedQueryExecution {
 public:
  struct Options {
    std::size_t num_shards = 2;
    /// Slots per shard queue (0 counts as 1). Bounds in-flight memory
    /// at ~2 * ring_capacity * batch bytes per shard and sets how far
    /// the router can run ahead before backpressure.
    std::size_t ring_capacity = 64;
    /// Rows per gathered sub-batch handed to a worker.
    std::size_t batch_capacity = PacketBatch::kDefaultCapacity;
  };

  /// The plan must outlive this object. Workers start immediately.
  PipelinedQueryExecution(const CompiledQuery& plan, const Options& options);
  ~PipelinedQueryExecution();

  PipelinedQueryExecution(const PipelinedQueryExecution&) = delete;
  PipelinedQueryExecution& operator=(const PipelinedQueryExecution&) = delete;

  /// Routes one batch: filter + hash + partition on the calling thread,
  /// full sub-batches handed to the shard workers. Single producer —
  /// see the threading contract above.
  void Consume(const PacketBatch& batch);

  /// Installs the policy on every shard (each bounds its own table, so
  /// the total bound is num_shards * max_groups). Must be called before
  /// the first Consume(): the queue handoff publishes it to the workers.
  void SetOverloadPolicy(const OverloadPolicy& policy);

  /// Drains the pipeline: flushes partial sub-batches, closes the
  /// queues, joins the workers and freezes the shard-summed stats.
  /// Idempotent; Finish() calls it implicitly.
  void Quiesce();

  /// Quiesces, then merges the disjoint shard states in key order and
  /// finalizes them. Call once, after ingest has stopped.
  ResultSet Finish();

  /// Packets offered to Consume() (router-level, pre-filter). Router
  /// thread only.
  std::uint64_t packets_consumed() const { return packets_offered_; }

  // Shard-summed counters; valid once Quiesce() has run.
  std::uint64_t tuples_aggregated() const;
  std::uint64_t low_level_evictions() const;
  std::uint64_t groups_shed() const;
  std::uint64_t tuples_shed() const;
  std::size_t GroupCount() const;

  std::size_t num_shards() const { return shards_.size(); }

  /// Group-table audit on every shard; valid once Quiesce() has run.
  void CheckInvariants() const;

 private:
  struct Shard;  // queues + worker + owned QueryExecution (engine.cc)

  void DispatchPending(Shard& shard);
  void WorkerLoop(Shard& shard);
  std::uint64_t SumQuiesced(std::uint64_t (QueryExecution::*getter)()
                                const) const;

  const CompiledQuery* plan_;
  Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  bool quiesced_ = false;
  bool finished_ = false;
  std::uint64_t packets_offered_ = 0;  // router-thread counter

  // Router scratch, capacity-retained across batches (single producer,
  // so plain members — no thread_local needed).
  BatchEvalScratch eval_scratch_;
  std::vector<std::uint32_t> sel_;
  std::vector<ValueColumn> key_cols_;
  std::vector<std::uint64_t> hashes_;
  std::vector<std::uint32_t> shard_ids_;
  std::vector<std::vector<std::uint32_t>> shard_rows_;
};

}  // namespace fwdecay::dsms

#endif  // FWDECAY_DSMS_ENGINE_H_

