#include "dsms/tumbling.h"

#include <cmath>
#include <utility>

#include "util/check.h"

namespace fwdecay::dsms {

namespace {

// 2^63: bucket indices must lie in [-2^63, 2^63) to convert to int64.
constexpr double kBucketIndexLimit = 9223372036854775808.0;
// 2^53: below it every bucket index and its successor are exact doubles.
constexpr std::int64_t kExactIndexLimit = std::int64_t{1} << 53;

}  // namespace

TumblingRunner::TumblingRunner(const CompiledQuery* plan,
                               double bucket_seconds, EmitFn emit,
                               double slack_seconds)
    : plan_(plan),
      bucket_seconds_(bucket_seconds),
      slack_seconds_(slack_seconds),
      emit_(std::move(emit)) {
  FWDECAY_CHECK(plan != nullptr);
  FWDECAY_CHECK(bucket_seconds > 0.0);
  FWDECAY_CHECK(slack_seconds >= 0.0);
}

void TumblingRunner::Consume(const Packet& p) {
  const double index = std::floor(p.time / bucket_seconds_);
  // Written so NaN fails it too.
  if (!(index >= -kBucketIndexLimit && index < kBucketIndexLimit)) {
    ++late_drops_;
    return;
  }
  const auto bucket = static_cast<std::int64_t>(index);
  if (bucket < next_unemitted_) {
    ++late_drops_;
    return;
  }
  if (pending_exec_ == nullptr || bucket != pending_bucket_) {
    FeedPending();
    auto it = open_.find(bucket);
    if (it == open_.end()) {
      it = open_.emplace(bucket, AcquireExecution()).first;
    }
    pending_bucket_ = bucket;
    pending_exec_ = it->second.get();
  } else if (pending_.full()) {
    FeedPending();
  }
  pending_.Append(p);
  if (p.time > watermark_) {
    watermark_ = p.time;
    EmitReady();
  }
}

void TumblingRunner::FeedPending() {
  if (pending_.empty()) return;
  pending_exec_->Consume(pending_);
  pending_.Clear();
}

void TumblingRunner::EmitFront() {
  const auto front = open_.begin();
  const std::int64_t bucket = front->first;
  if (front->second.get() == pending_exec_) {
    FeedPending();
    pending_exec_ = nullptr;
  }
  emit_(bucket, front->second->Finish());
  ReleaseExecution(std::move(front->second));
  open_.erase(front);
  next_unemitted_ = bucket + 1;
}

void TumblingRunner::EmitReady() {
  while (!open_.empty() && BucketClosed(open_.begin()->first)) EmitFront();
}

bool TumblingRunner::BucketClosed(std::int64_t bucket) const {
  if (bucket > -kExactIndexLimit && bucket < kExactIndexLimit) {
    const double bucket_end =
        (static_cast<double>(bucket) + 1.0) * bucket_seconds_;
    return !(watermark_ < bucket_end + slack_seconds_);
  }
  // From 2^53 on, double(bucket) + 1.0 rounds back to the bucket's own
  // start; compare bucket indices instead: the watermark less the slack
  // lies in a later bucket.
  const double index =
      std::floor((watermark_ - slack_seconds_) / bucket_seconds_);
  if (index >= kBucketIndexLimit) return true;
  if (!(index >= -kBucketIndexLimit)) return false;
  return static_cast<std::int64_t>(index) > bucket;
}

void TumblingRunner::Flush() {
  while (!open_.empty()) EmitFront();
}

std::unique_ptr<QueryExecution> TumblingRunner::AcquireExecution() {
  if (pool_.empty()) return plan_->NewExecution();
  std::unique_ptr<QueryExecution> exec = std::move(pool_.back());
  pool_.pop_back();
  return exec;
}

void TumblingRunner::ReleaseExecution(std::unique_ptr<QueryExecution> exec) {
  // Reset keeps the flat-table slot arrays, arena-backed group shells
  // and batch scratch warm, so the next bucket's execution starts with
  // every capacity this one grew (DESIGN.md §13.3).
  exec->Reset();
  pool_.push_back(std::move(exec));
}

}  // namespace fwdecay::dsms
