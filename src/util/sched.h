#ifndef FWDECAY_UTIL_SCHED_H_
#define FWDECAY_UTIL_SCHED_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>

#include "util/check.h"

// fwdecay-verify, prong 1: a deterministic schedule-exploring model
// checker in the CHESS / Relacy tradition (DESIGN.md §10).
//
// TSan can only flag races on the interleavings a test happens to
// execute; clang's thread-safety analysis proves lock discipline but
// says nothing about atomics or about *which* interleavings are
// reachable. This layer closes the gap: inside sched::Explore(), every
// model-aware synchronization operation (ModelMutex lock/unlock,
// ModelAtomic load/store/RMW, thread spawn/join) is a *scheduling
// point* handled by a cooperative scheduler that runs exactly one
// thread at a time on a virtual clock and treats "which thread runs
// next" — and, for weakly-ordered loads, "which store does this load
// observe" — as an enumerable decision:
//
//   * bounded exhaustive mode walks the decision tree depth-first
//     (choice 0 = keep running the current thread / read the newest
//     store, so the first schedule is the naive sequential one);
//   * random mode draws decisions from a seeded xoshiro stream, so a
//     CI failure is reproducible from (seed, iteration) alone.
//
// Weak-memory simulation: each atomic location keeps a bounded history
// of stores tagged with vector clocks. A relaxed load may observe any
// store newer than the newest one that happens-before the loading
// thread (per-thread coherence is enforced; seq_cst loads are
// conservatively pinned to the newest store). Acquire loads join the
// release clock of the store they observe; relaxed stores publish no
// clock — matching C++20's removal of non-RMW same-thread release
// sequence extension — so a torn publish behind a relaxed flag is
// actually observable here even though TSan's happens-before engine
// would need the unlucky schedule to fire. Limits vs real hardware are
// documented in DESIGN.md §10: no speculation into dependent loads, no
// partial SC fences, seq_cst modeled stronger than the standard.
//
// Failing schedules record their decision prefix and print a replay
// token (`FWSCHED1:<name>:h<history>:<c0.c1...>`); sched::Replay()
// re-executes exactly that interleaving. After a failure (an
// Expect() violation or a detected deadlock) the run switches to a
// permissive free-running mode so every thread can unwind without
// exceptions — library code stays exception-free.
//
// Build integration: the model types below are ALWAYS compiled, so
// tests can explore fixtures in any build. The FWDECAY_SCHED compile
// definition additionally reroutes the library's own primitives —
// fwdecay::Mutex (util/thread_annotations.h) and the sched::Atomic<T>
// alias adopted by util/metrics.h — through
// the model, so Explore() can drive real library paths (the DecayedRate
// delta-flush publish, PipelinedQueryExecution's router -> queue ->
// worker -> Finish() merge) through interleavings and reorderings TSan
// never executes. With FWDECAY_SCHED off (the default), sched::Atomic is a
// zero-cost transparent std::atomic wrapper and fwdecay::Mutex is a
// plain std::mutex: the hot path is byte-for-byte unaffected.
//
// Outside an active Explore() region every model type falls back to
// the real primitive (std::mutex / std::atomic), so an FWDECAY_SCHED
// build still runs the ordinary test suite correctly.

namespace fwdecay::sched {

/// Upper bound on concurrently live model threads per exploration
/// (including the exploration body itself, which runs as thread 0).
inline constexpr std::size_t kMaxThreads = 8;

enum class Mode {
  kExhaustive,  ///< depth-first over the decision tree, up to the budget
  kRandom,      ///< seeded random walks, `max_schedules` iterations
};

struct ExploreOptions {
  /// Token prefix naming the fixture; [a-z0-9_-]+ (checked). A replay
  /// token only replays against the fixture of the same name.
  const char* name = "sched";
  Mode mode = Mode::kExhaustive;
  /// Schedule budget: exhaustive mode stops early (exhausted=false)
  /// when the tree is larger; random mode runs exactly this many.
  std::uint64_t max_schedules = 10000;
  /// Per-schedule step bound. A run that exceeds it (e.g. an unfair
  /// schedule starving a spin loop) is abandoned as "pruned", not
  /// failed, and exploration continues past it.
  std::size_t max_steps = 200000;
  /// Seed for random mode (and for nothing else: exhaustive
  /// exploration is deterministic by construction).
  std::uint64_t seed = 0x5eedULL;
  /// Visible-store window per atomic location: a load may observe at
  /// most this many trailing stores. Bounds the branching factor of
  /// weak-memory simulation; part of the replay token.
  std::size_t max_store_history = 4;
};

struct ExploreResult {
  std::uint64_t schedules_run = 0;
  /// Runs abandoned at max_steps (their subtrees are still expanded).
  std::uint64_t schedules_pruned = 0;
  bool failed = false;
  /// Exhaustive mode only: the full decision tree fit in the budget.
  bool exhausted = false;
  /// First failure: Expect() message or deadlock report.
  std::string failure;
  /// Deterministically reproduces the failing schedule via Replay().
  std::string replay_token;
};

/// Runs `body` under the scheduler once per schedule until the decision
/// tree is exhausted, the budget is spent, or a schedule fails.
/// `body` executes as model thread 0; sched::Thread instances it spawns
/// become model threads. Explorations do not nest.
ExploreResult Explore(const ExploreOptions& options,
                      const std::function<void()>& body);

/// Re-executes exactly one schedule from a replay token. `name` must
/// match the token's fixture name (FWDECAY_CHECK). The returned result
/// has schedules_run == 1 and failed/failure reflecting that schedule.
ExploreResult Replay(const std::string& token, const char* name,
                     const std::function<void()>& body);

/// Validates a token's syntax without running anything. Returns true
/// and fills *fixture_name on success; false with *error otherwise.
bool ParseReplayToken(const std::string& token, std::string* fixture_name,
                      std::string* error);

/// Records a model-level failure for the current schedule (first one
/// wins) and switches the run to permissive unwinding. Outside an
/// active exploration this is a fatal FWDECAY_CHECK.
void Fail(const std::string& message);

/// `if (!ok) Fail(message)` — the fixture-side assertion. Unlike
/// FWDECAY_CHECK it does not abort the process: the explorer needs to
/// survive the failing schedule to print its replay token.
void Expect(bool ok, const char* message);

/// True when the current schedule has already failed (fixtures can use
/// this to skip follow-on checks that are meaningless after failure).
bool Failed();

/// True while the calling thread is a model thread inside Explore().
bool InScheduledRegion();

/// Explicit scheduling point (no memory effect).
void Yield();

namespace internal {

class Scheduler;

/// The active scheduler for the calling thread, or nullptr when the
/// thread is not a registered model thread of a live exploration.
Scheduler* Current();

using RmwFn = std::uint64_t (*)(std::uint64_t old_bits,
                                std::uint64_t operand_bits);

// Type-erased model operations (implemented in sched.cc). `init_bits`
// seeds the location's store history on first touch within a run, so
// atomics that outlive one schedule (e.g. process-wide metrics
// counters) keep their real value across runs.
std::uint64_t AtomicLoad(Scheduler* s, const void* loc,
                         std::uint64_t init_bits, std::memory_order order);
void AtomicStore(Scheduler* s, const void* loc, std::uint64_t init_bits,
                 std::uint64_t bits, std::memory_order order);
std::uint64_t AtomicRmw(Scheduler* s, const void* loc,
                        std::uint64_t init_bits, RmwFn fn,
                        std::uint64_t operand_bits, std::memory_order order);
bool AtomicCas(Scheduler* s, const void* loc, std::uint64_t init_bits,
               std::uint64_t expected_bits, std::uint64_t desired_bits,
               std::memory_order order, std::uint64_t* actual_bits);
/// Forgets a location's model state (constructor/destructor hook, so a
/// reused address never inherits a dead object's store history).
void AtomicReset(Scheduler* s, const void* loc);

void MutexLock(Scheduler* s, const void* mu);
void MutexUnlock(Scheduler* s, const void* mu);
void MutexReset(Scheduler* s, const void* mu);

int SpawnThread(Scheduler* s, std::function<void()> fn);
void JoinThread(Scheduler* s, int model_id);

/// Round-trips values through the type-erased 64-bit model slots.
template <typename T>
struct Bits {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8,
                "sched::ModelAtomic supports trivially copyable types "
                "of at most 8 bytes");
  static std::uint64_t Encode(T v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof(T));
    return b;
  }
  static T Decode(std::uint64_t b) {
    T v;
    std::memcpy(&v, &b, sizeof(T));
    return v;
  }
};

}  // namespace internal

/// std::atomic<T> stand-in that participates in schedule exploration.
///
/// Inside an active Explore() region, every operation is a scheduling
/// point against the model (store histories, vector clocks); outside,
/// operations go straight to the underlying std::atomic with the
/// requested ordering. The underlying atomic mirrors the newest
/// modification-order value at all times, which is what seeds the
/// model on the first touch of each run.
template <typename T>
class ModelAtomic {
 public:
  ModelAtomic() noexcept : ModelAtomic(T{}) {}
  ModelAtomic(T v) noexcept : real_(v) {  // NOLINT(google-explicit-constructor)
    if (internal::Scheduler* s = internal::Current()) {
      internal::AtomicReset(s, this);
    }
  }
  ~ModelAtomic() {
    if (internal::Scheduler* s = internal::Current()) {
      internal::AtomicReset(s, this);
    }
  }

  ModelAtomic(const ModelAtomic&) = delete;
  ModelAtomic& operator=(const ModelAtomic&) = delete;

  T load(std::memory_order order = std::memory_order_seq_cst) const {
    if (internal::Scheduler* s = internal::Current()) {
      return internal::Bits<T>::Decode(
          internal::AtomicLoad(s, this, MirrorBits(), order));
    }
    return real_.load(order);
  }

  void store(T v, std::memory_order order = std::memory_order_seq_cst) {
    if (internal::Scheduler* s = internal::Current()) {
      internal::AtomicStore(s, this, MirrorBits(),
                            internal::Bits<T>::Encode(v), order);
      // Mirror maintenance is race-free: this thread keeps the
      // scheduler grant until its own next scheduling point.
      // fwdecay: relaxed-ok(model mirror; ordering is provided by the model itself)
      real_.store(v, std::memory_order_relaxed);
      return;
    }
    real_.store(v, order);
  }

  T exchange(T v, std::memory_order order = std::memory_order_seq_cst) {
    if (internal::Scheduler* s = internal::Current()) {
      const std::uint64_t old = internal::AtomicRmw(
          s, this, MirrorBits(), &ReplaceFn, internal::Bits<T>::Encode(v),
          order);
      // fwdecay: relaxed-ok(model mirror; ordering is provided by the model itself)
      real_.store(v, std::memory_order_relaxed);
      return internal::Bits<T>::Decode(old);
    }
    return real_.exchange(v, order);
  }

  T fetch_add(T n, std::memory_order order = std::memory_order_seq_cst) {
    if (internal::Scheduler* s = internal::Current()) {
      const std::uint64_t old = internal::AtomicRmw(
          s, this, MirrorBits(), &AddFn, internal::Bits<T>::Encode(n), order);
      const T old_v = internal::Bits<T>::Decode(old);
      // fwdecay: relaxed-ok(model mirror; ordering is provided by the model itself)
      real_.store(static_cast<T>(old_v + n), std::memory_order_relaxed);
      return old_v;
    }
    return real_.fetch_add(n, order);
  }

  T fetch_sub(T n, std::memory_order order = std::memory_order_seq_cst) {
    if (internal::Scheduler* s = internal::Current()) {
      const std::uint64_t old = internal::AtomicRmw(
          s, this, MirrorBits(), &SubFn, internal::Bits<T>::Encode(n), order);
      const T old_v = internal::Bits<T>::Decode(old);
      // fwdecay: relaxed-ok(model mirror; ordering is provided by the model itself)
      real_.store(static_cast<T>(old_v - n), std::memory_order_relaxed);
      return old_v;
    }
    return real_.fetch_sub(n, order);
  }

  bool compare_exchange_strong(
      T& expected, T desired,
      std::memory_order order = std::memory_order_seq_cst) {
    if (internal::Scheduler* s = internal::Current()) {
      std::uint64_t actual = 0;
      const bool ok = internal::AtomicCas(
          s, this, MirrorBits(), internal::Bits<T>::Encode(expected),
          internal::Bits<T>::Encode(desired), order, &actual);
      if (ok) {
        // fwdecay: relaxed-ok(model mirror; ordering is provided by the model itself)
        real_.store(desired, std::memory_order_relaxed);
      } else {
        expected = internal::Bits<T>::Decode(actual);
      }
      return ok;
    }
    return real_.compare_exchange_strong(expected, desired, order);
  }

  /// Modeled with strong semantics: the model has no spurious failures
  /// (a schedule where the CAS fails for a real reason exists anyway).
  bool compare_exchange_weak(
      T& expected, T desired,
      std::memory_order order = std::memory_order_seq_cst) {
    return compare_exchange_strong(expected, desired, order);
  }

  operator T() const { return load(); }  // NOLINT(google-explicit-constructor)

 private:
  static std::uint64_t ReplaceFn(std::uint64_t, std::uint64_t operand) {
    return operand;
  }
  static std::uint64_t AddFn(std::uint64_t old, std::uint64_t operand) {
    return internal::Bits<T>::Encode(static_cast<T>(
        internal::Bits<T>::Decode(old) + internal::Bits<T>::Decode(operand)));
  }
  static std::uint64_t SubFn(std::uint64_t old, std::uint64_t operand) {
    return internal::Bits<T>::Encode(static_cast<T>(
        internal::Bits<T>::Decode(old) - internal::Bits<T>::Decode(operand)));
  }
  std::uint64_t MirrorBits() const {
    // fwdecay: relaxed-ok(model mirror seed read; the model layer orders accesses)
    return internal::Bits<T>::Encode(real_.load(std::memory_order_relaxed));
  }

  std::atomic<T> real_;
};

/// Transparent std::atomic<T> wrapper with the same member surface as
/// ModelAtomic. The default (FWDECAY_SCHED off) meaning of
/// sched::Atomic: every member is a one-line inline forward, so
/// adopting the alias costs nothing on the hot path.
template <typename T>
class PlainAtomic {
 public:
  PlainAtomic() noexcept = default;
  constexpr PlainAtomic(T v) noexcept : real_(v) {}  // NOLINT(google-explicit-constructor)

  PlainAtomic(const PlainAtomic&) = delete;
  PlainAtomic& operator=(const PlainAtomic&) = delete;

  T load(std::memory_order order = std::memory_order_seq_cst) const {
    return real_.load(order);
  }
  void store(T v, std::memory_order order = std::memory_order_seq_cst) {
    real_.store(v, order);
  }
  T exchange(T v, std::memory_order order = std::memory_order_seq_cst) {
    return real_.exchange(v, order);
  }
  T fetch_add(T n, std::memory_order order = std::memory_order_seq_cst) {
    return real_.fetch_add(n, order);
  }
  T fetch_sub(T n, std::memory_order order = std::memory_order_seq_cst) {
    return real_.fetch_sub(n, order);
  }
  bool compare_exchange_strong(
      T& expected, T desired,
      std::memory_order order = std::memory_order_seq_cst) {
    return real_.compare_exchange_strong(expected, desired, order);
  }
  bool compare_exchange_weak(
      T& expected, T desired,
      std::memory_order order = std::memory_order_seq_cst) {
    return real_.compare_exchange_weak(expected, desired, order);
  }
  operator T() const { return load(); }  // NOLINT(google-explicit-constructor)

 private:
  std::atomic<T> real_;
};

/// The alias library code adopts (util/metrics.h): a
/// plain atomic by default, the schedule-explored model under
/// -DFWDECAY_SCHED=ON.
#if defined(FWDECAY_SCHED)
template <typename T>
using Atomic = ModelAtomic<T>;
#else
template <typename T>
using Atomic = PlainAtomic<T>;
#endif

/// Mutex that participates in schedule exploration: inside Explore()
/// the lock is virtual (owner + waiter state in the scheduler, so a
/// lock-inversion deadlock is *detected and reported* instead of
/// hanging the test binary); outside it degrades to std::mutex.
/// fwdecay::Mutex wraps this under FWDECAY_SCHED.
class ModelMutex {
 public:
  ModelMutex() = default;
  ~ModelMutex() {
    if (internal::Scheduler* s = internal::Current()) {
      internal::MutexReset(s, this);
    }
  }

  ModelMutex(const ModelMutex&) = delete;
  ModelMutex& operator=(const ModelMutex&) = delete;

  void Lock() {
    if (internal::Scheduler* s = internal::Current()) {
      internal::MutexLock(s, this);
      return;
    }
    real_.lock();
  }
  void Unlock() {
    if (internal::Scheduler* s = internal::Current()) {
      internal::MutexUnlock(s, this);
      return;
    }
    real_.unlock();
  }

 private:
  std::mutex real_;
};

/// RAII guard over ModelMutex (for fixtures; library code uses the
/// annotated fwdecay::MutexLock).
class ModelMutexLock {
 public:
  explicit ModelMutexLock(ModelMutex& mu) : mu_(mu) { mu_.Lock(); }
  ~ModelMutexLock() { mu_.Unlock(); }

  ModelMutexLock(const ModelMutexLock&) = delete;
  ModelMutexLock& operator=(const ModelMutexLock&) = delete;

 private:
  ModelMutex& mu_;
};

/// std::thread stand-in. Inside Explore() the function runs as a model
/// thread under the scheduler; outside it is a plain std::thread. Must
/// be Join()ed before destruction, like std::thread.
class Thread {
 public:
  Thread() = default;
  explicit Thread(std::function<void()> fn);
  ~Thread();

  Thread(Thread&& other) noexcept;
  Thread& operator=(Thread&& other) noexcept;
  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  void Join();
  bool Joinable() const;

 private:
  std::thread real_;                          // fallback path only
  internal::Scheduler* sched_ = nullptr;      // model path
  int model_id_ = -1;
};

}  // namespace fwdecay::sched

#endif  // FWDECAY_UTIL_SCHED_H_
