#ifndef FWDECAY_UTIL_METRICS_H_
#define FWDECAY_UTIL_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "core/aggregates.h"
#include "core/decay.h"
#include "core/decaying_reservoir.h"
#include "core/forward_decay.h"
#include "util/audit.h"
#include "util/check.h"
#include "util/sched.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

// Self-instrumentation registry (DESIGN.md §9): the engine watches
// itself with the paper's own algorithm. Time-windowed views are backed
// by the forward-decay primitives —
//
//   * LatencyReservoir wraps core/decaying_reservoir.h (the Dropwizard
//     design, Section V), so latency quantiles are exponentially biased
//     toward the recent past with NO periodic rescaling thread (log-key
//     domain);
//   * DecayedRate wraps DecayedCount<ExponentialG> (Definition 5): for
//     a Poisson arrival process of rate r, the decayed count converges
//     to r/alpha, so rate-per-second = Value(t) * alpha. The landmark
//     is rebased opportunistically at *write* time (Section VI-A's O(1)
//     shift factor) — again, no background maintenance.
//
// This file sits in util/ (so fault_fs and every layer above can use
// it) but consumes core/ headers; that is safe because everything it
// needs from core/ and sampling/ is header-only, so no link cycle.
//
// Build-time kill switch: configuring with -DFWDECAY_METRICS=OFF
// defines FWDECAY_METRICS_DISABLED, which flips the aliases at the
// bottom of this header from the real implementations (namespace
// metrics::impl) to inline no-op shells (namespace metrics::noop).
// Both class sets are compiled identically in every translation unit —
// only the alias (not an ODR entity) depends on the macro — so mixing
// TUs built with different settings in one test binary is well-defined.

// Memory-order contract (audited for PR 6's atomics rule; every relaxed
// site below carries a `fwdecay: relaxed-ok` annotation that
// scripts/analyze.py checks against its allowlist):
//
//   * Counter / Gauge are *independent* cells: each publishes a single
//     word and readers consume that word in isolation, never as a flag
//     that other memory is ready. Relaxed RMW/store/load is therefore
//     sufficient — atomic RMW guarantees no lost increments, and there
//     is no dependent data for an acquire/release pair to order.
//   * StatsReporter::reports_ is the same shape (monotone counter read
//     for progress assertions), so it is relaxed too.
//   * StatsReporter::stop_ IS a publish/observe flag (the destructor
//     publishes "shut down" and the reporter thread's loop observes
//     it), so it uses a release store / acquire load pair; Stop() also
//     joins the thread, which is the stronger synchronization the
//     destructor actually relies on.
//   * Everything decayed (DecayedRate, LatencyReservoir, the registry
//     map) is mutex-guarded — multi-word state under forward-decay
//     rebasing is exactly the case where a lock, not atomics, is the
//     honest tool (see DecayedRate::Mark's read-modify-write of the
//     landmark + weight pair).
//
// All atomics go through sched::Atomic (util/sched.h): a transparent
// std::atomic wrapper by default, and the model-checked atomic under
// -DFWDECAY_SCHED=ON so sched::Explore() can exercise these paths under
// weak-memory reorderings (DESIGN.md §10).

#if defined(FWDECAY_METRICS_DISABLED)
#define FWDECAY_METRICS_ENABLED 0
#else
#define FWDECAY_METRICS_ENABLED 1
#endif

namespace fwdecay::metrics {

/// Every registered metric name must match this (enforced by
/// FWDECAY_CHECK at registration and by the scripts/analyze.py `metrics`
/// rule on string literals).
bool ValidMetricName(const std::string& name);

/// Formats a sample value the way RenderPrometheus emits it: integral
/// values without a decimal point, everything else via %.9g (enough to
/// round-trip the digits that matter, few enough to hide ulp noise).
std::string FormatValue(double v);

namespace impl {

/// Monotone event counter. Lock-free; relaxed ordering is sufficient
/// because readers only ever need *a* recent value, not an ordering
/// against other memory.
class Counter {
 public:
  Counter() = default;

  /// Adds n; returns the pre-increment value.
  std::uint64_t Increment(std::uint64_t n = 1) {
    // fwdecay: relaxed-ok(independent monotone cell; RMW atomicity alone prevents lost counts)
    return value_.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    // fwdecay: relaxed-ok(single-word read; no dependent data to order)
    return value_.load(std::memory_order_relaxed);
  }

 private:
  sched::Atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  Gauge() = default;

  void Set(double v) {
    // fwdecay: relaxed-ok(last-write-wins single word; readers need any recent value)
    value_.store(v, std::memory_order_relaxed);
  }
  double value() const {
    // fwdecay: relaxed-ok(single-word read; no dependent data to order)
    return value_.load(std::memory_order_relaxed);
  }

 private:
  sched::Atomic<double> value_{0.0};
};

/// Exponentially decayed event rate over DecayedCount (Definition 5).
///
/// Mark(t, n) records n events at time t; RatePerSecond(t) reports the
/// decayed arrival rate, converging to the true rate for steady input
/// with time constant 1/alpha. Write-time landmark rebasing (Section
/// VI-A) keeps the stored weight in floating-point range forever.
class DecayedRate {
 public:
  explicit DecayedRate(double alpha)
      : alpha_(alpha),
        count_(MakeForwardDecay(ExponentialG(alpha), /*landmark=*/0.0)) {
    FWDECAY_CHECK_MSG(alpha > 0.0, "DecayedRate alpha must be positive");
  }

  /// Records `n` events at time `t` (seconds; any non-decreasing-ish
  /// order — values slightly behind a just-rebased landmark are clamped
  /// to it, which changes their weight by < exp(kRescaleLogLimit)
  /// relative error only in that corner).
  void Mark(Timestamp t, double n = 1.0) FWDECAY_EXCLUDES(mu_);

  /// The decayed rate in events/second at query time t.
  double RatePerSecond(Timestamp t) const FWDECAY_EXCLUDES(mu_);

  /// The decayed count C(t) itself (== RatePerSecond / alpha).
  double DecayedCountValue(Timestamp t) const FWDECAY_EXCLUDES(mu_);

  double alpha() const { return alpha_; }

  /// Representation audit (DESIGN.md §7).
  void CheckInvariants() const FWDECAY_EXCLUDES(mu_);

  /// Rebase the landmark once alpha*(t - L) exceeds this: weights stay
  /// below e^60 ~ 1e26, comfortably inside double range, and the rebase
  /// itself is one multiply (the Section VI-A shift factor).
  static constexpr double kRescaleLogLimit = 60.0;

 private:
  const double alpha_;
  mutable Mutex mu_;
  DecayedCount<ExponentialG> count_ FWDECAY_GUARDED_BY(mu_);
};

/// Forward-decayed latency sample over core/decaying_reservoir.h.
/// Quantiles of Snapshot() estimate the exponentially time-biased
/// latency distribution; no rescaling is ever needed (log-key domain).
class LatencyReservoir {
 public:
  /// `k`: reservoir capacity; `alpha`: decay per second (0.015 is the
  /// classic "last five minutes dominate" metrics-library default).
  LatencyReservoir(std::size_t k, double alpha)
      : reservoir_(k, alpha, /*start=*/0.0) {}

  /// Records a measurement taken at registry time `t` (seconds, >= 0).
  void Observe(Timestamp t, double value) FWDECAY_EXCLUDES(mu_);

  /// Summary statistics over the current decayed sample.
  ReservoirSnapshot Snapshot() const FWDECAY_EXCLUDES(mu_);

  /// Total observations ever recorded (cumulative, not decayed).
  std::uint64_t observations() const FWDECAY_EXCLUDES(mu_);

  void CheckInvariants() const FWDECAY_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  DecayingReservoir reservoir_ FWDECAY_GUARDED_BY(mu_);
  std::uint64_t observations_ FWDECAY_GUARDED_BY(mu_) = 0;
};

/// RAII helper: times its own scope and records the elapsed nanoseconds
/// into `reservoir` at destruction. Pass reservoir == nullptr to skip —
/// the clock is then never read, so 1-in-N sampled call sites pay
/// nothing on unsampled iterations.
class ScopedTimerSample {
 public:
  ScopedTimerSample(LatencyReservoir* reservoir, Timestamp t)
      : reservoir_(reservoir), t_(t),
        start_ns_(reservoir != nullptr ? Timer::NowNanos() : 0) {}
  ~ScopedTimerSample() {
    if (reservoir_ != nullptr) {
      reservoir_->Observe(
          t_, static_cast<double>(Timer::NowNanos() - start_ns_));
    }
  }

  ScopedTimerSample(const ScopedTimerSample&) = delete;
  ScopedTimerSample& operator=(const ScopedTimerSample&) = delete;

 private:
  LatencyReservoir* reservoir_;
  Timestamp t_;
  std::int64_t start_ns_;
};

/// Process-wide (or per-test) registry of named metrics. Get-or-create
/// handles are stable raw pointers — call sites resolve once and cache.
///
/// Exposition is the Prometheus text format: per family one `# HELP` /
/// `# TYPE` pair, then one `name{labels} value` line per instance;
/// reservoirs render as summaries (quantile-labelled lines plus a
/// cumulative `_count`). Families are keyed by name: all instances of a
/// name share one kind and help string (checked).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  /// The process-wide default registry the engine instruments into.
  static MetricsRegistry& Instance();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create. `labels` is a pre-rendered Prometheus label body
  /// (e.g. `shard="3"`) or empty. Names must match
  /// ^fwdecay_[a-z0-9_]+$; re-registration with a different kind for
  /// the same name is a FWDECAY_CHECK failure.
  Counter* GetCounter(const std::string& name, const std::string& help,
                      const std::string& labels = "") FWDECAY_EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  const std::string& labels = "") FWDECAY_EXCLUDES(mu_);
  DecayedRate* GetDecayedRate(const std::string& name, const std::string& help,
                              double alpha, const std::string& labels = "")
      FWDECAY_EXCLUDES(mu_);
  LatencyReservoir* GetReservoir(const std::string& name,
                                 const std::string& help, std::size_t k,
                                 double alpha, const std::string& labels = "")
      FWDECAY_EXCLUDES(mu_);

  /// Seconds since this registry was constructed (steady clock) — the
  /// time base every Mark/Observe in the process uses.
  double NowSeconds() const { return epoch_.ElapsedSeconds(); }

  /// Renders the whole registry at `now` (registry seconds). The
  /// explicit-`now` overload exists so tests can pin time and compare
  /// the exposition byte-for-byte.
  void RenderPrometheus(std::string* out) const FWDECAY_EXCLUDES(mu_);
  void RenderPrometheus(std::string* out, Timestamp now) const
      FWDECAY_EXCLUDES(mu_);

  std::size_t MetricCount() const FWDECAY_EXCLUDES(mu_);

  /// Representation audit: name validity, family consistency, and the
  /// per-metric invariants of every decayed structure.
  void CheckInvariants() const FWDECAY_EXCLUDES(mu_);

 private:
  enum class Kind { kCounter, kGauge, kDecayedRate, kReservoir };

  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<DecayedRate> rate;
    std::unique_ptr<LatencyReservoir> reservoir;
  };

  /// Shared get-or-create plumbing: validates the name, enforces family
  /// consistency, and returns the (possibly new) entry.
  Entry* GetOrCreate(const std::string& name, const std::string& help,
                     const std::string& labels, Kind kind)
      FWDECAY_REQUIRES(mu_);

  static const char* KindName(Kind kind);
  static void RenderEntry(const std::string& name, const std::string& labels,
                          const Entry& entry, Timestamp now, std::string* out);

  Timer epoch_;
  mutable Mutex mu_;
  /// Keyed (name, labels): iteration order == exposition order.
  std::map<std::pair<std::string, std::string>, std::unique_ptr<Entry>>
      entries_ FWDECAY_GUARDED_BY(mu_);
};

/// Periodic exposition thread: every `period_seconds` renders
/// `registry` and hands the text to `sink` (default: stderr). Annotated
/// and audited; stops and joins in the destructor (never detaches).
class StatsReporter {
 public:
  using Sink = std::function<void(const std::string&)>;

  StatsReporter(const MetricsRegistry* registry, double period_seconds,
                Sink sink = Sink());
  ~StatsReporter();

  StatsReporter(const StatsReporter&) = delete;
  StatsReporter& operator=(const StatsReporter&) = delete;

  /// Idempotent; blocks until the reporter thread has exited.
  void Stop();

  /// Renders the registry and emits one report to the sink immediately,
  /// off-schedule. The server's graceful-shutdown path calls this after
  /// draining its ingest queues, so the final counter deltas are
  /// published even when the process exits mid-period.
  void FlushNow();

  std::uint64_t reports_emitted() const {
    // fwdecay: relaxed-ok(monotone progress counter; no dependent data to order)
    return reports_.load(std::memory_order_relaxed);
  }

 private:
  void Run();

  const MetricsRegistry* registry_;
  const double period_seconds_;
  Sink sink_;
  /// Publish/observe shutdown flag: release store in Stop(), acquire
  /// load in the reporter loop (see the memory-order contract above).
  sched::Atomic<bool> stop_{false};
  sched::Atomic<std::uint64_t> reports_{0};
  std::thread thread_;
};

}  // namespace impl

namespace noop {

// Inline no-op shells with the same surface as metrics::impl. A
// FWDECAY_METRICS=OFF build aliases these in, so every call site
// compiles to nothing (all bodies are empty and inline) and the
// registry hands out shared dummy instances.

class Counter {
 public:
  std::uint64_t Increment(std::uint64_t = 1) { return 0; }
  std::uint64_t value() const { return 0; }
};

class Gauge {
 public:
  void Set(double) {}
  double value() const { return 0.0; }
};

class DecayedRate {
 public:
  explicit DecayedRate(double) {}
  void Mark(Timestamp, double = 1.0) {}
  double RatePerSecond(Timestamp) const { return 0.0; }
  double DecayedCountValue(Timestamp) const { return 0.0; }
  double alpha() const { return 0.0; }
  void CheckInvariants() const {}
};

class LatencyReservoir {
 public:
  LatencyReservoir(std::size_t, double) {}
  void Observe(Timestamp, double) {}
  ReservoirSnapshot Snapshot() const { return ReservoirSnapshot{}; }
  std::uint64_t observations() const { return 0; }
  void CheckInvariants() const {}
};

class ScopedTimerSample {
 public:
  ScopedTimerSample(LatencyReservoir*, Timestamp) {}
  ScopedTimerSample(const ScopedTimerSample&) = delete;
  ScopedTimerSample& operator=(const ScopedTimerSample&) = delete;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Instance() {
    static MetricsRegistry registry;
    return registry;
  }

  Counter* GetCounter(const std::string&, const std::string&,
                      const std::string& = "") {
    return &counter_;
  }
  Gauge* GetGauge(const std::string&, const std::string&,
                  const std::string& = "") {
    return &gauge_;
  }
  DecayedRate* GetDecayedRate(const std::string&, const std::string&, double,
                              const std::string& = "") {
    return &rate_;
  }
  LatencyReservoir* GetReservoir(const std::string&, const std::string&,
                                 std::size_t, double,
                                 const std::string& = "") {
    return &reservoir_;
  }

  double NowSeconds() const { return 0.0; }
  void RenderPrometheus(std::string* out) const { out->clear(); }
  void RenderPrometheus(std::string* out, Timestamp) const { out->clear(); }
  std::size_t MetricCount() const { return 0; }
  void CheckInvariants() const {}

 private:
  Counter counter_;
  Gauge gauge_;
  DecayedRate rate_{1.0};
  LatencyReservoir reservoir_{0, 1.0};
};

class StatsReporter {
 public:
  using Sink = std::function<void(const std::string&)>;
  StatsReporter(const MetricsRegistry*, double, Sink = Sink()) {}
  void Stop() {}
  void FlushNow() {}
  std::uint64_t reports_emitted() const { return 0; }
};

}  // namespace noop

#if FWDECAY_METRICS_ENABLED
using Counter = impl::Counter;
using Gauge = impl::Gauge;
using DecayedRate = impl::DecayedRate;
using LatencyReservoir = impl::LatencyReservoir;
using ScopedTimerSample = impl::ScopedTimerSample;
using MetricsRegistry = impl::MetricsRegistry;
using StatsReporter = impl::StatsReporter;
#else
using Counter = noop::Counter;
using Gauge = noop::Gauge;
using DecayedRate = noop::DecayedRate;
using LatencyReservoir = noop::LatencyReservoir;
using ScopedTimerSample = noop::ScopedTimerSample;
using MetricsRegistry = noop::MetricsRegistry;
using StatsReporter = noop::StatsReporter;
#endif

}  // namespace fwdecay::metrics

#endif  // FWDECAY_UTIL_METRICS_H_
