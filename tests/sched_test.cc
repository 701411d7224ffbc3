// Meta-tests for the schedule-exploring model checker (util/sched.h,
// DESIGN.md §10) — the checker is itself checked:
//
//   * three seeded known-racy fixtures (a torn two-word publish behind
//     a relaxed flag, an ABA on a mock free-list, a lock-inversion
//     pair) that exploration MUST catch, next to fixed variants that
//     must survive full bounded exploration;
//   * replay-token determinism: a failing schedule's token re-executes
//     the same interleaving and reports the same failure;
//   * a library fixture: concurrent DecayedRate marks stay bit-exact
//     against the single-threaded reference on every explored schedule.
//
// The fixtures use sched::Model* types directly, so they run the real
// model in EVERY build. The pipeline's schedule-explored differential
// lives with the other pipeline tests, in tests/pipeline_test.cc.
//
// Env knob (scripts/reproduce.sh passes it through):
//   FWDECAY_SCHED_REPLAY  FWSCHED1 token: deterministically re-run that
//                         schedule against the fixture it names

#include <array>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/metrics.h"
#include "util/sched.h"

namespace fwdecay {
namespace {

// --------------------------------------------------------------------
// Fixture 1: torn two-word publish. The writer fills two data words and
// raises a flag; the reader trusts the flag. With a relaxed flag there
// is no happens-before edge, so a reader may observe the flag while one
// data word is still stale — a reordering TSan only reports if the
// unlucky schedule actually runs, but which the weak-memory model
// enumerates deliberately.

void TornPublishBody(bool fixed) {
  sched::ModelAtomic<std::uint64_t> a{0};
  sched::ModelAtomic<std::uint64_t> b{0};
  sched::ModelAtomic<bool> ready{false};
  sched::Thread writer([&] {
    a.store(1, std::memory_order_relaxed);
    b.store(1, std::memory_order_relaxed);
    ready.store(true, fixed ? std::memory_order_release
                            : std::memory_order_relaxed);
  });
  if (ready.load(fixed ? std::memory_order_acquire
                       : std::memory_order_relaxed)) {
    const std::uint64_t got_a = a.load(std::memory_order_relaxed);
    const std::uint64_t got_b = b.load(std::memory_order_relaxed);
    sched::Expect(got_a == 1 && got_b == 1,
                  "torn publish: flag observed but a data word is stale");
  }
  writer.Join();
}

// --------------------------------------------------------------------
// Fixture 2: ABA on a mock free-list (Treiber-stack shape). `head`
// packs {generation tag, slot index}; the buggy variant leaves the tag
// at zero, so a CAS cannot tell "A" from "A after pop-pop-push" and
// happily re-links a node another thread still owns.

class MockFreeList {
 public:
  static constexpr int kSlots = 3;

  explicit MockFreeList(bool tagged) : tagged_(tagged) {
    for (int i = 0; i < kSlots; ++i) next_[i] = i + 1 < kSlots ? i + 1 : -1;
    head_.store(Pack(0, 0), std::memory_order_relaxed);
  }

  int Pop() {
    for (;;) {
      std::uint64_t h = head_.load(std::memory_order_acquire);
      const int idx = Index(h);
      if (idx < 0) return -1;
      const int next = next_[idx];  // <- the read the ABA invalidates
      std::uint64_t want = Pack(next, tagged_ ? Tag(h) + 1 : 0);
      if (head_.compare_exchange_strong(h, want,
                                        std::memory_order_acq_rel)) {
        return idx;
      }
    }
  }

  void Push(int idx) {
    for (;;) {
      std::uint64_t h = head_.load(std::memory_order_acquire);
      next_[idx] = Index(h);
      std::uint64_t want = Pack(idx, tagged_ ? Tag(h) + 1 : 0);
      if (head_.compare_exchange_strong(h, want,
                                        std::memory_order_acq_rel)) {
        return;
      }
    }
  }

  /// Post-quiescence audit: every slot must be reachable exactly once —
  /// either on the list or held by a popper. After a successful ABA the
  /// list re-links a held node, so some slot shows up twice.
  void Validate(const std::vector<int>& held) const {
    std::array<int, kSlots> seen{};
    for (int idx : held) {
      if (idx >= 0) ++seen[static_cast<std::size_t>(idx)];
    }
    int idx = Index(head_.load(std::memory_order_acquire));
    for (int hops = 0; idx >= 0 && hops <= kSlots; ++hops) {
      ++seen[static_cast<std::size_t>(idx)];
      idx = next_[idx];
    }
    for (int i = 0; i < kSlots; ++i) {
      sched::Expect(seen[static_cast<std::size_t>(i)] == 1,
                    "ABA: a free-list slot is lost or doubly reachable");
    }
  }

 private:
  static std::uint64_t Pack(int index, std::uint64_t tag) {
    // index -1 (empty) packs as 0 in the low half.
    return (tag << 32) | static_cast<std::uint32_t>(index + 1);
  }
  static int Index(std::uint64_t packed) {
    return static_cast<int>(packed & 0xffffffffu) - 1;
  }
  static std::uint64_t Tag(std::uint64_t packed) { return packed >> 32; }

  const bool tagged_;
  std::array<int, kSlots> next_{};  // plain: the scheduler serializes
  sched::ModelAtomic<std::uint64_t> head_{0};
};

void AbaBody(bool tagged) {
  MockFreeList list(tagged);
  int racy_pop = -1;
  sched::Thread racer([&] { racy_pop = list.Pop(); });
  // Main: pop A, pop B, push A back — restoring the same head *index*
  // with different list contents underneath it.
  const int a = list.Pop();
  const int b = list.Pop();
  if (a >= 0) list.Push(a);
  racer.Join();
  list.Validate({racy_pop, b});
}

// --------------------------------------------------------------------
// Fixture 3: lock inversion. Two ModelMutexes taken in opposite orders
// by two threads; the explorer must find the interleaving where each
// thread holds one lock and wants the other, and report it as a
// deadlock instead of hanging the test binary.

void LockInversionBody(bool consistent_order) {
  sched::ModelMutex mu_a;
  sched::ModelMutex mu_b;
  sched::Thread other([&] {
    if (consistent_order) {
      sched::ModelMutexLock lock_a(mu_a);
      sched::ModelMutexLock lock_b(mu_b);
    } else {
      sched::ModelMutexLock lock_b(mu_b);
      sched::ModelMutexLock lock_a(mu_a);
    }
  });
  {
    sched::ModelMutexLock lock_a(mu_a);
    sched::ModelMutexLock lock_b(mu_b);
  }
  other.Join();
}

// --------------------------------------------------------------------
// Library fixture: concurrent DecayedRate marks. All marks share one
// timestamp, so the decayed count is schedule-independent (identical
// weights accumulate into a single sum in program order) and must land
// bit-exactly on the single-threaded reference value in every schedule.

void DecayedRateBody(double want_bits_source) {
  metrics::impl::DecayedRate rate(/*alpha=*/0.05);
  sched::Thread marker([&] {
    rate.Mark(1.0);
    sched::Yield();
    rate.Mark(1.0);
  });
  rate.Mark(1.0);
  sched::Yield();
  rate.Mark(1.0);
  marker.Join();
  const double got = rate.DecayedCountValue(1.0);
  sched::Expect(std::bit_cast<std::uint64_t>(got) ==
                    std::bit_cast<std::uint64_t>(want_bits_source),
                "DecayedRate: concurrent marks diverged from reference");
}

// --------------------------------------------------------------------
// Explorer meta-tests

TEST(SchedExploreTest, TornPublishBuggyCaught) {
  sched::ExploreOptions options;
  options.name = "torn_publish";
  const sched::ExploreResult result =
      sched::Explore(options, [] { TornPublishBody(/*fixed=*/false); });
  ASSERT_TRUE(result.failed)
      << "explored " << result.schedules_run
      << " schedules without catching the torn publish";
  EXPECT_NE(result.failure.find("torn publish"), std::string::npos)
      << result.failure;
  EXPECT_FALSE(result.replay_token.empty());
}

TEST(SchedExploreTest, TornPublishFixedPassesExhaustive) {
  sched::ExploreOptions options;
  options.name = "torn_publish_fixed";
  const sched::ExploreResult result =
      sched::Explore(options, [] { TornPublishBody(/*fixed=*/true); });
  EXPECT_FALSE(result.failed) << result.failure << "\nreplay: "
                              << result.replay_token;
  EXPECT_TRUE(result.exhausted)
      << "fixture grew past the budget (" << result.schedules_run
      << " schedules) — shrink it so the pass is a *proof*";
  EXPECT_GT(result.schedules_run, 1u);
}

TEST(SchedExploreTest, AbaBuggyCaught) {
  sched::ExploreOptions options;
  options.name = "aba";
  options.max_schedules = 200000;
  const sched::ExploreResult result =
      sched::Explore(options, [] { AbaBody(/*tagged=*/false); });
  ASSERT_TRUE(result.failed)
      << "explored " << result.schedules_run
      << " schedules without catching the ABA";
  EXPECT_NE(result.failure.find("ABA"), std::string::npos) << result.failure;
}

TEST(SchedExploreTest, AbaTaggedPassesExhaustive) {
  sched::ExploreOptions options;
  options.name = "aba_fixed";
  options.max_schedules = 500000;
  const sched::ExploreResult result =
      sched::Explore(options, [] { AbaBody(/*tagged=*/true); });
  EXPECT_FALSE(result.failed) << result.failure << "\nreplay: "
                              << result.replay_token;
  EXPECT_TRUE(result.exhausted)
      << "fixture grew past the budget (" << result.schedules_run
      << " schedules)";
}

TEST(SchedExploreTest, LockInversionDeadlockCaught) {
  sched::ExploreOptions options;
  options.name = "lock_inversion";
  const sched::ExploreResult result =
      sched::Explore(options, [] { LockInversionBody(false); });
  ASSERT_TRUE(result.failed)
      << "explored " << result.schedules_run
      << " schedules without finding the inversion deadlock";
  EXPECT_NE(result.failure.find("deadlock"), std::string::npos)
      << result.failure;
}

TEST(SchedExploreTest, LockOrderConsistentPassesExhaustive) {
  sched::ExploreOptions options;
  options.name = "lock_order_fixed";
  const sched::ExploreResult result =
      sched::Explore(options, [] { LockInversionBody(true); });
  EXPECT_FALSE(result.failed) << result.failure;
  EXPECT_TRUE(result.exhausted);
  EXPECT_GT(result.schedules_run, 1u);
}

TEST(SchedExploreTest, DecayedRateConcurrentMarksBitExact) {
  // Single-threaded reference: same four marks, same timestamp.
  metrics::impl::DecayedRate reference(/*alpha=*/0.05);
  for (int i = 0; i < 4; ++i) reference.Mark(1.0);
  const double want = reference.DecayedCountValue(1.0);

  sched::ExploreOptions options;
  options.name = "decayed_rate";
  options.max_schedules = 50000;
  const sched::ExploreResult result =
      sched::Explore(options, [&] { DecayedRateBody(want); });
  EXPECT_FALSE(result.failed) << result.failure << "\nreplay: "
                              << result.replay_token;
  EXPECT_GT(result.schedules_run, 1u);
}

// --------------------------------------------------------------------
// Replay tokens

TEST(SchedReplayTest, TokenParses) {
  std::string name;
  std::string error;
  EXPECT_TRUE(
      sched::ParseReplayToken("FWSCHED1:torn_publish:h4:0.1.2", &name, &error))
      << error;
  EXPECT_EQ(name, "torn_publish");
  EXPECT_TRUE(sched::ParseReplayToken("FWSCHED1:x:h1:-", &name, &error))
      << error;
  EXPECT_EQ(name, "x");
}

TEST(SchedReplayTest, TokenRejectsGarbage) {
  std::string name;
  std::string error;
  EXPECT_FALSE(sched::ParseReplayToken("", &name, &error));
  EXPECT_FALSE(sched::ParseReplayToken("nope", &name, &error));
  EXPECT_FALSE(sched::ParseReplayToken("FWSCHED2:x:h4:-", &name, &error));
  EXPECT_FALSE(sched::ParseReplayToken("FWSCHED1:Bad Name:h4:-", &name,
                                       &error));
  EXPECT_FALSE(sched::ParseReplayToken("FWSCHED1:x:h0:-", &name, &error));
  EXPECT_FALSE(sched::ParseReplayToken("FWSCHED1:x:4:-", &name, &error));
  EXPECT_FALSE(sched::ParseReplayToken("FWSCHED1:x:h4:zz", &name, &error));
  EXPECT_FALSE(sched::ParseReplayToken("FWSCHED1:x:h4:", &name, &error));
}

TEST(SchedReplayTest, FailingScheduleReplaysDeterministically) {
  sched::ExploreOptions options;
  options.name = "torn_publish";
  const sched::ExploreResult found =
      sched::Explore(options, [] { TornPublishBody(false); });
  ASSERT_TRUE(found.failed);
  ASSERT_FALSE(found.replay_token.empty());

  for (int attempt = 0; attempt < 2; ++attempt) {
    const sched::ExploreResult replay = sched::Replay(
        found.replay_token, "torn_publish", [] { TornPublishBody(false); });
    EXPECT_EQ(replay.schedules_run, 1u);
    ASSERT_TRUE(replay.failed)
        << "replay attempt " << attempt << " did not reproduce";
    EXPECT_EQ(replay.failure, found.failure);
    EXPECT_EQ(replay.replay_token, found.replay_token);
  }
}

TEST(SchedReplayTest, DeadlockReplaysDeterministically) {
  sched::ExploreOptions options;
  options.name = "lock_inversion";
  const sched::ExploreResult found =
      sched::Explore(options, [] { LockInversionBody(false); });
  ASSERT_TRUE(found.failed);
  const sched::ExploreResult replay = sched::Replay(
      found.replay_token, "lock_inversion", [] { LockInversionBody(false); });
  ASSERT_TRUE(replay.failed);
  EXPECT_EQ(replay.failure, found.failure);
}

TEST(SchedReplayTest, PassingScheduleReplaysClean) {
  // A token for the all-zeros (sequential) schedule of a clean fixture:
  // replay must run it once and report success.
  const sched::ExploreResult replay = sched::Replay(
      "FWSCHED1:torn_publish_fixed:h4:-", "torn_publish_fixed",
      [] { TornPublishBody(true); });
  EXPECT_EQ(replay.schedules_run, 1u);
  EXPECT_FALSE(replay.failed) << replay.failure;
}

// --------------------------------------------------------------------
// CI-token reproduction entry point: with FWDECAY_SCHED_REPLAY set,
// re-run exactly that schedule against the fixture the token names
// (scripts/reproduce.sh forwards the env var).

TEST(SchedReplayTest, EnvTokenReplay) {
  const char* token = std::getenv("FWDECAY_SCHED_REPLAY");
  if (token == nullptr || token[0] == '\0') {
    GTEST_SKIP() << "FWDECAY_SCHED_REPLAY not set";
  }
  std::string name;
  std::string error;
  ASSERT_TRUE(sched::ParseReplayToken(token, &name, &error)) << error;

  std::function<void()> body;
  if (name == "torn_publish") {
    body = [] { TornPublishBody(false); };
  } else if (name == "torn_publish_fixed") {
    body = [] { TornPublishBody(true); };
  } else if (name == "aba") {
    body = [] { AbaBody(false); };
  } else if (name == "aba_fixed") {
    body = [] { AbaBody(true); };
  } else if (name == "lock_inversion") {
    body = [] { LockInversionBody(false); };
  } else if (name == "lock_order_fixed") {
    body = [] { LockInversionBody(true); };
  } else {
    FAIL() << "token names unknown fixture '" << name
           << "' (engine fixtures cannot be replayed standalone; re-run "
              "the owning test with the same FWDECAY_SCHED_SEED instead)";
  }
  const sched::ExploreResult replay = sched::Replay(token, name.c_str(), body);
  EXPECT_FALSE(replay.failed)
      << "replayed schedule fails: " << replay.failure;
}

}  // namespace
}  // namespace fwdecay
