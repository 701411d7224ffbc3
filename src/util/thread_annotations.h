#ifndef FWDECAY_UTIL_THREAD_ANNOTATIONS_H_
#define FWDECAY_UTIL_THREAD_ANNOTATIONS_H_

#include <mutex>

#if defined(FWDECAY_SCHED)
#include "util/sched.h"
#endif

// Clang thread-safety annotations + the annotated lock vocabulary.
//
// The repo's concurrency claims ("a single mutex suffices", "snapshots
// are consistent") are exactly the kind TSan can only confirm for the
// schedules a test happens to execute. Clang's -Wthread-safety analysis
// proves them for *all* schedules at compile time — but only if every
// guarded member and every locking function is annotated, and only if
// the lock type itself carries the `capability` attribute. libstdc++'s
// std::mutex does not, so library code uses the annotated fwdecay::Mutex
// / fwdecay::MutexLock wrappers below instead of std::mutex /
// std::lock_guard directly. scripts/analyze.py (rules `locking` and
// `guarded-by`) enforces both conventions.
//
// Build with -DFWDECAY_THREAD_SAFETY=ON (clang only) to turn any
// annotation violation into a compile error via -Werror=thread-safety.
// Under GCC (or any non-clang compiler) every macro expands to nothing
// and the wrappers degrade to plain std::mutex semantics.

#if defined(__clang__)
#define FWDECAY_THREAD_ANNOTATION_ATTRIBUTE_(x) __attribute__((x))
#else
#define FWDECAY_THREAD_ANNOTATION_ATTRIBUTE_(x)  // no-op
#endif

/// Marks a type as a lock ("capability" in clang's vocabulary).
#define FWDECAY_CAPABILITY(x) \
  FWDECAY_THREAD_ANNOTATION_ATTRIBUTE_(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases.
#define FWDECAY_SCOPED_CAPABILITY \
  FWDECAY_THREAD_ANNOTATION_ATTRIBUTE_(scoped_lockable)

/// Declares that a data member is protected by the given capability.
#define FWDECAY_GUARDED_BY(x) \
  FWDECAY_THREAD_ANNOTATION_ATTRIBUTE_(guarded_by(x))

/// As GUARDED_BY, but for the data a pointer member points to.
#define FWDECAY_PT_GUARDED_BY(x) \
  FWDECAY_THREAD_ANNOTATION_ATTRIBUTE_(pt_guarded_by(x))

/// The annotated function must be called with the capability held.
#define FWDECAY_REQUIRES(...) \
  FWDECAY_THREAD_ANNOTATION_ATTRIBUTE_(requires_capability(__VA_ARGS__))

/// The annotated function must be called with the capability NOT held
/// (deadlock prevention for non-reentrant locks).
#define FWDECAY_EXCLUDES(...) \
  FWDECAY_THREAD_ANNOTATION_ATTRIBUTE_(locks_excluded(__VA_ARGS__))

/// The annotated function acquires the capability and holds it on return.
#define FWDECAY_ACQUIRE(...) \
  FWDECAY_THREAD_ANNOTATION_ATTRIBUTE_(acquire_capability(__VA_ARGS__))

/// The annotated function releases a held capability.
#define FWDECAY_RELEASE(...) \
  FWDECAY_THREAD_ANNOTATION_ATTRIBUTE_(release_capability(__VA_ARGS__))

/// The annotated function returns a reference to the given capability.
#define FWDECAY_RETURN_CAPABILITY(x) \
  FWDECAY_THREAD_ANNOTATION_ATTRIBUTE_(lock_returned(x))

/// Escape hatch: disables analysis inside one function. Each use must
/// carry a comment justifying why the analysis cannot see the invariant.
#define FWDECAY_NO_THREAD_SAFETY_ANALYSIS \
  FWDECAY_THREAD_ANNOTATION_ATTRIBUTE_(no_thread_safety_analysis)

namespace fwdecay {

/// std::mutex with the `capability` attribute, so clang's analysis can
/// track what it guards. Same cost: the wrapper is a plain std::mutex
/// plus compile-time attributes.
///
/// Under -DFWDECAY_SCHED=ON the underlying mutex is sched::ModelMutex
/// instead: inside sched::Explore() the lock becomes a virtual lock the
/// schedule-exploring model checker can preempt around and deadlock-
/// check (DESIGN.md §10); outside an exploration — and in the default
/// build — it behaves exactly like std::mutex.
class FWDECAY_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

#if defined(FWDECAY_SCHED)
  void Lock() FWDECAY_ACQUIRE() { mu_.Lock(); }
  void Unlock() FWDECAY_RELEASE() { mu_.Unlock(); }

 private:
  sched::ModelMutex mu_;
#else
  void Lock() FWDECAY_ACQUIRE() { mu_.lock(); }
  void Unlock() FWDECAY_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
#endif
};

/// Annotated RAII guard (the std::lock_guard of this vocabulary).
class FWDECAY_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) FWDECAY_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() FWDECAY_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace fwdecay

#endif  // FWDECAY_UTIL_THREAD_ANNOTATIONS_H_
