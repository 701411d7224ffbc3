// TSan-targeted stress tests for the annotated concurrency facade
// ConcurrentDecayingReservoir.
//
// These tests are about *interleavings*, not statistics: many threads
// hammer Update/Snapshot/size/alpha concurrently, and a sharded
// configuration exercises the MergeSnapshots combination path while the
// shards are still being written. Run under -DFWDECAY_SANITIZE=thread
// they are the data-race gate for the concurrency layer; under
// address;undefined they double as a heap-safety torture test. The
// assertions are deliberately weak structural invariants (sizes, value
// ranges, ordering of percentiles) — anything stronger would race with
// the writers by design. Under -DFWDECAY_AUDIT=ON dedicated auditor
// threads additionally run the full CheckInvariants() representation
// audits between writer ops (under the facade lock), interleaving the
// audit reads with concurrent mutation.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/concurrent_reservoir.h"
#include "core/decaying_reservoir.h"
#include "util/audit.h"

namespace fwdecay {
namespace {

// Values are injected from [lo, hi] so readers can bound what they see.
constexpr double kLo = 1.0;
constexpr double kHi = 2.0;

void CheckSnapshotInvariants(const ReservoirSnapshot& snap, std::size_t k) {
  ASSERT_LE(snap.size, k);
  ASSERT_EQ(snap.size, snap.values.size());
  if (snap.size == 0) return;
  ASSERT_GE(snap.min, kLo);
  ASSERT_LE(snap.max, kHi);
  ASSERT_LE(snap.min, snap.median);
  ASSERT_LE(snap.median, snap.p75);
  ASSERT_LE(snap.p75, snap.p95);
  ASSERT_LE(snap.p95, snap.p99);
  ASSERT_LE(snap.p99, snap.max);
  ASSERT_GE(snap.mean, snap.min);
  ASSERT_LE(snap.mean, snap.max);
}

// 6 updaters + 2 snapshotters + 1 metadata reader + the main thread all
// share one reservoir: the single-mutex facade must serialize them with
// no data races and no torn snapshots.
TEST(ConcurrentReservoirStressTest, UpdatersVsSnapshottersSingleReservoir) {
  // static: lambdas below use these without captures.
  static constexpr std::size_t kCapacity = 256;
  static constexpr int kUpdaters = 6;
  static constexpr int kSnapshotters = 2;
  static constexpr int kUpdatesPerThread = 20000;
  ConcurrentDecayingReservoir reservoir(kCapacity, 0.015, 0.0);

  std::atomic<bool> done{false};
  std::atomic<int> updates{0};
  std::vector<std::thread> threads;
  threads.reserve(kUpdaters + kSnapshotters + 1);

  for (int u = 0; u < kUpdaters; ++u) {
    threads.emplace_back([&reservoir, &updates, u] {
      // Per-thread value stream inside [kLo, kHi]; timestamps advance so
      // decayed weights span many orders of magnitude.
      for (int i = 0; i < kUpdatesPerThread; ++i) {
        const double t = static_cast<double>(i) * 0.01;
        const double frac =
            static_cast<double>((i * 2654435761u + u) % 1000) / 1000.0;
        reservoir.Update(t, kLo + (kHi - kLo) * frac);
        updates.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int s = 0; s < kSnapshotters; ++s) {
    threads.emplace_back([&reservoir, &done] {
      while (!done.load(std::memory_order_acquire)) {
        CheckSnapshotInvariants(reservoir.Snapshot(), kCapacity);
        // Full representation audit interleaved with the writers
        // (audit builds only; takes the facade lock internally).
        FWDECAY_AUDIT_INVARIANTS(reservoir);
      }
    });
  }
  threads.emplace_back([&reservoir, &done] {  // metadata reader
    while (!done.load(std::memory_order_acquire)) {
      ASSERT_DOUBLE_EQ(reservoir.alpha(), 0.015);  // lock-free const read
      ASSERT_DOUBLE_EQ(reservoir.start(), 0.0);
      ASSERT_LE(reservoir.size(), kCapacity);
    }
  });

  for (int i = 0; i < kUpdaters; ++i) threads[i].join();
  done.store(true, std::memory_order_release);
  for (std::size_t i = kUpdaters; i < threads.size(); ++i) threads[i].join();

  EXPECT_EQ(updates.load(), kUpdaters * kUpdatesPerThread);
  const ReservoirSnapshot final_snap = reservoir.Snapshot();
  EXPECT_EQ(final_snap.size, kCapacity);  // far more updates than slots
}

// The sharded deployment from the class comment: 8 shards fed by 8
// writers while a merger thread continuously combines per-shard
// snapshots with MergeSnapshots. 10 threads total.
TEST(ConcurrentReservoirStressTest, ShardedMergeWhileWriting) {
  static constexpr std::size_t kCapacity = 128;
  static constexpr int kShards = 8;
  static constexpr int kUpdatesPerShard = 15000;
  std::deque<ConcurrentDecayingReservoir> shards;  // not movable: no vector
  for (int i = 0; i < kShards; ++i) {
    // Same (k, alpha, start) across shards — the compatibility condition
    // MergeSnapshots documents; distinct seeds decorrelate the samples.
    shards.emplace_back(kCapacity, 0.015, 0.0,
                        static_cast<std::uint64_t>(i) + 1);
  }

  std::atomic<bool> done{false};
  std::atomic<bool> merging{false};
  std::atomic<int> merges{0};
  std::vector<std::thread> threads;
  threads.reserve(kShards + 1);

  for (int s = 0; s < kShards; ++s) {
    threads.emplace_back([&shards, &merging, s] {
      for (int i = 0; i < kUpdatesPerShard; ++i) {
        if (i == kUpdatesPerShard / 2) {
          // Hold the second half until the merger is inside a merge, so
          // at least one merge always overlaps live writes — even when
          // a loaded host starts the merger after the writers.
          while (!merging.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
        }
        const double t = static_cast<double>(i) * 0.02;
        const double frac =
            static_cast<double>((i * 40503u + s * 997u) % 1000) / 1000.0;
        shards[s].Update(t, kLo + (kHi - kLo) * frac);
      }
    });
  }
  threads.emplace_back([&shards, &done, &merging, &merges] {  // merger
    while (!done.load(std::memory_order_acquire)) {
      merging.store(true, std::memory_order_release);
      std::vector<ReservoirSnapshot> snaps;
      snaps.reserve(kShards);
      for (auto& shard : shards) {
        FWDECAY_AUDIT_INVARIANTS(shard);
        snaps.push_back(shard.Snapshot());
      }
      const ReservoirSnapshot combined = MergeSnapshots(snaps);
      CheckSnapshotInvariants(combined, kShards * kCapacity);
      std::size_t total = 0;
      for (const auto& s : snaps) total += s.size;
      ASSERT_EQ(combined.size, total);
      merges.fetch_add(1, std::memory_order_relaxed);
    }
  });

  for (int i = 0; i < kShards; ++i) threads[i].join();
  done.store(true, std::memory_order_release);
  threads.back().join();

  EXPECT_GE(merges.load(), 1);
  std::vector<ReservoirSnapshot> snaps;
  for (auto& shard : shards) snaps.push_back(shard.Snapshot());
  const ReservoirSnapshot combined = MergeSnapshots(snaps);
  EXPECT_EQ(combined.size, static_cast<std::size_t>(kShards) * kCapacity);
  CheckSnapshotInvariants(combined, kShards * kCapacity);
}

}  // namespace
}  // namespace fwdecay
