#ifndef FWDECAY_SKETCH_SPACE_SAVING_H_
#define FWDECAY_SKETCH_SPACE_SAVING_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "util/bytes.h"

// SpaceSaving heavy-hitter sketches (Metwally, Agrawal, El Abbadi, ICDT'05).
//
// Two variants, matching the paper's experimental setup (Section VIII):
//  * WeightedSpaceSaving — arbitrary positive real increments, O(log k)
//    per update via an intrusive min-heap. This is the workhorse behind
//    forward-decayed heavy hitters (Theorem 2): the increment for item i
//    is the static weight g(t_i - L).
//  * UnarySpaceSaving — optimized for +1 increments using the
//    stream-summary bucket list, O(1) worst-case per update. This is the
//    paper's "Unary HH" baseline for undecayed queries.
//
// Guarantee (both): with k counters, every reported estimate e(v)
// satisfies true(v) <= e(v) <= true(v) + W/k where W is the total inserted
// weight; choosing k = ceil(1/eps) gives the eps*W error of Theorem 2.

namespace fwdecay {

/// One reported heavy-hitter candidate.
struct HeavyHitter {
  std::uint64_t key = 0;
  /// Estimated (upper bound) weight of the key.
  double estimate = 0.0;
  /// Maximum possible overestimation; estimate - error is a lower bound.
  double error = 0.0;
};

/// SpaceSaving with real-valued weighted updates.
class WeightedSpaceSaving {
 public:
  /// Creates a sketch with `capacity` counters (capacity >= 1).
  /// For an eps-guarantee use capacity = ceil(1/eps).
  explicit WeightedSpaceSaving(std::size_t capacity);

  /// Adds `weight` (> 0) to `key`'s count.
  void Update(std::uint64_t key, double weight);

  /// Total weight inserted so far (exact).
  double TotalWeight() const { return total_weight_; }

  /// Returns every key whose estimated weight is >= phi * TotalWeight().
  /// Guaranteed to contain all keys with true weight >= phi * W and no key
  /// with true weight < (phi - 1/capacity) * W.
  std::vector<HeavyHitter> Query(double phi) const;

  /// Point estimate (upper bound) for one key; 0 if untracked.
  double Estimate(std::uint64_t key) const;

  /// Merges another sketch (same capacity required). Implements the
  /// distributed setting of Section VI-B: the merged sketch summarizes the
  /// union of the inputs with error bounds adding.
  void Merge(const WeightedSpaceSaving& other);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return counters_.size(); }

  /// Bytes of state, counted the way the paper's Figure 4(c,d) does:
  /// per-counter key + count + error storage.
  std::size_t MemoryBytes() const;

  /// Multiplies every counter (and the running total) by `factor` > 0.
  /// Used by the exponential landmark-rescaling of Section VI-A.
  void ScaleWeights(double factor);

  /// Serializes the full sketch state (Section VI-B: ship summaries
  /// between sites, then Merge()).
  void SerializeTo(ByteWriter* writer) const;

  /// Reconstructs a sketch; nullopt on truncated/corrupt input.
  static std::optional<WeightedSpaceSaving> Deserialize(ByteReader* reader);

  /// Representation audit (DESIGN.md §7): heap/index/back-pointer
  /// consistency, min-heap order, error <= count per counter, and weight
  /// conservation (Σ counts == TotalWeight()). Catches corruption that
  /// Deserialize() deliberately does not re-derive — e.g. an inflated
  /// error or a forged total. Aborts via FWDECAY_CHECK on violation.
  void CheckInvariants() const;

 private:
  struct Counter {
    std::uint64_t key;
    double count;
    double error;
    std::size_t heap_pos;  // index into heap_
  };

  // Min-heap maintenance on Counter::count.
  void SiftUp(std::size_t heap_index);
  void SiftDown(std::size_t heap_index);
  bool HeapLess(std::size_t a, std::size_t b) const;
  void HeapSwap(std::size_t a, std::size_t b);

  // Key -> counter index: open addressing with linear probing over a
  // power-of-two table kept at most half full, erased by backward shift
  // (no tombstones). It grows only while counters are being added, so
  // it never exceeds twice the capacity and a full sketch — every
  // eviction included — allocates nothing.
  static constexpr std::size_t kNoCounter = ~std::size_t{0};
  struct IndexSlot {
    std::uint64_t key = 0;
    std::size_t counter = kNoCounter;  // kNoCounter: empty slot
  };
  // Slot holding `key`, or the empty slot that ends its probe chain.
  std::size_t IndexProbe(std::uint64_t key) const;
  // Counter index of `key`, or kNoCounter.
  std::size_t IndexFind(std::uint64_t key) const;
  // Grows the table (rehashing) until `entries` keys fit half full.
  void IndexReserve(std::size_t entries);
  // Maps an absent `key` to `counter`; the table must have room.
  void IndexPlace(std::uint64_t key, std::size_t counter);
  void IndexErase(std::uint64_t key);

  std::size_t capacity_;
  double total_weight_ = 0.0;
  std::vector<Counter> counters_;
  std::vector<std::size_t> heap_;  // heap of counter indices, min count root
  std::vector<IndexSlot> index_;   // key -> counter, see IndexProbe
};

/// SpaceSaving specialized for unit increments with O(1) updates using the
/// stream-summary structure (buckets of equal count in a sorted list).
class UnarySpaceSaving {
 public:
  explicit UnarySpaceSaving(std::size_t capacity);

  /// Counts one occurrence of `key`.
  void Update(std::uint64_t key);

  /// Total number of updates.
  std::uint64_t TotalCount() const { return total_count_; }

  /// Returns keys with estimated count >= phi * TotalCount().
  std::vector<HeavyHitter> Query(double phi) const;

  /// Point estimate (upper bound) for one key; 0 if untracked.
  std::uint64_t Estimate(std::uint64_t key) const;

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return num_counters_; }
  std::size_t MemoryBytes() const;

  /// Serializes the exact structure — bucket list, link order, free
  /// list — so a restored sketch evolves identically to the original
  /// (engine checkpointing; the stream-summary replacement rule is
  /// sensitive to sibling order within the minimum bucket).
  void SerializeTo(ByteWriter* writer) const;

  /// Reconstructs a sketch; nullopt on truncated/corrupt input.
  static std::optional<UnarySpaceSaving> Deserialize(ByteReader* reader);

  /// Representation audit (DESIGN.md §7): the stream-summary discipline —
  /// strictly ascending bucket counts from min_bucket_, mutually
  /// consistent doubly-linked bucket and counter chains, every active
  /// counter reachable exactly once with error < its bucket count, free
  /// and live bucket slots partitioning the arena, and count
  /// conservation (Σ counter counts == TotalCount()). Aborts via
  /// FWDECAY_CHECK on violation.
  void CheckInvariants() const;

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  // Counters and buckets live in index-linked free lists so updates do no
  // allocation after the structure fills.
  struct Counter {
    std::uint64_t key;
    std::uint64_t error;
    std::uint32_t bucket;
    std::uint32_t prev, next;  // siblings within the bucket
  };
  struct Bucket {
    std::uint64_t count;
    std::uint32_t head;        // first counter in this bucket
    std::uint32_t prev, next;  // neighbouring buckets (ascending count)
  };

  void DetachCounter(std::uint32_t c);
  void AttachCounter(std::uint32_t c, std::uint32_t bucket);
  std::uint32_t AllocBucket(std::uint64_t count);
  void FreeBucket(std::uint32_t b);
  // Moves counter c from its bucket to one with count+1 (creating it if
  // needed), preserving the ascending bucket order.
  void IncrementCounter(std::uint32_t c);

  std::size_t capacity_;
  std::uint64_t total_count_ = 0;
  std::size_t num_counters_ = 0;
  std::vector<Counter> counters_;
  std::vector<Bucket> buckets_;
  std::uint32_t min_bucket_ = kNil;   // bucket with the smallest count
  std::uint32_t free_bucket_ = kNil;  // free list of bucket slots
  std::unordered_map<std::uint64_t, std::uint32_t> index_;
};

}  // namespace fwdecay

#endif  // FWDECAY_SKETCH_SPACE_SAVING_H_
