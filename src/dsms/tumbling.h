#ifndef FWDECAY_DSMS_TUMBLING_H_
#define FWDECAY_DSMS_TUMBLING_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "dsms/batch.h"
#include "dsms/engine.h"

// Tumbling-window (time-bucket) execution — GS's continuous-query
// semantics: "an answer is provided for each minute-wise time-bucket"
// (Section I). The runner keeps one QueryExecution per open bucket and
// emits a bucket's ResultSet once the event-time watermark passes its
// end plus an out-of-order slack (the punctuation/heartbeat role of
// [36], [25] in the paper's introduction).
//
// Packets arrive one at a time but reach the executions only through
// the batched path: consecutive packets of one bucket collect in a
// pending PacketBatch, which is fed to that bucket's execution when a
// packet of another bucket arrives, when it fills, or just before the
// bucket is finished. The watermark still advances per packet, so
// emission points are those of per-packet delivery, and each bucket's
// state is bit-identical to a Consume(Packet) loop (DESIGN.md §8).
// Emitted buckets return their execution to a pool via
// QueryExecution::Reset(), so steady-state window turnover reuses
// warmed flat-table slots, arena-backed group shells, and batch scratch
// instead of reallocating (DESIGN.md §13.3).

namespace fwdecay::dsms {

class TumblingRunner {
 public:
  /// Called with each completed bucket's index (floor(time/width)) and
  /// its result table, in bucket order.
  using EmitFn = std::function<void(std::int64_t bucket, ResultSet result)>;

  /// `slack_seconds` is how far event time may run backwards: a bucket is
  /// finalized only when max-seen-time >= bucket_end + slack. Tuples for
  /// already-emitted buckets are counted in late_drops() and discarded.
  TumblingRunner(const CompiledQuery* plan, double bucket_seconds,
                 EmitFn emit, double slack_seconds = 0.0);

  /// Routes one packet to its bucket's execution; may emit buckets.
  void Consume(const Packet& p);

  /// Emits every still-open bucket (end of stream).
  void Flush();

  /// Packets discarded without reaching any bucket: those whose bucket
  /// was already emitted, and those whose time has no representable
  /// bucket index (NaN, infinite, or floor(time/width) outside int64).
  /// Neither kind moves the watermark.
  std::uint64_t late_drops() const { return late_drops_; }
  std::size_t open_buckets() const { return open_.size(); }

 private:
  // Feeds the pending batch to its bucket's execution and empties it.
  void FeedPending();
  // Finishes the oldest open bucket, emits it, and pools its execution.
  void EmitFront();
  void EmitReady();
  // The watermark has passed `bucket`'s end plus the slack.
  bool BucketClosed(std::int64_t bucket) const;
  // Pops a pooled (already-Reset) execution, or builds the pool's first.
  std::unique_ptr<QueryExecution> AcquireExecution();
  // Resets an emitted bucket's execution and returns it to the pool.
  void ReleaseExecution(std::unique_ptr<QueryExecution> exec);

  const CompiledQuery* plan_;
  double bucket_seconds_;
  double slack_seconds_;
  EmitFn emit_;
  double watermark_ = -std::numeric_limits<double>::infinity();
  std::int64_t next_unemitted_ = std::numeric_limits<std::int64_t>::min();
  std::uint64_t late_drops_ = 0;
  std::map<std::int64_t, std::unique_ptr<QueryExecution>> open_;
  // Reset executions awaiting reuse; grows to the peak number of
  // simultaneously open buckets (bounded by the slack), never beyond.
  std::vector<std::unique_ptr<QueryExecution>> pool_;
  // Packets of bucket pending_bucket_ not yet fed to pending_exec_ (the
  // execution open_ holds for it); pending_exec_ is null when no bucket
  // is tagged.
  PacketBatch pending_;
  std::int64_t pending_bucket_ = 0;
  QueryExecution* pending_exec_ = nullptr;
};

}  // namespace fwdecay::dsms

#endif  // FWDECAY_DSMS_TUMBLING_H_
