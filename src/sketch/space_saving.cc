#include "sketch/space_saving.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/hash.h"

namespace fwdecay {

// ---------------------------------------------------------------------------
// WeightedSpaceSaving
// ---------------------------------------------------------------------------

WeightedSpaceSaving::WeightedSpaceSaving(std::size_t capacity)
    : capacity_(capacity) {
  FWDECAY_CHECK_MSG(capacity >= 1, "SpaceSaving needs at least one counter");
  counters_.reserve(capacity);
  heap_.reserve(capacity);
}

std::size_t WeightedSpaceSaving::IndexProbe(std::uint64_t key) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t s = Mix64(key) & mask;
  while (index_[s].counter != kNoCounter && index_[s].key != key) {
    s = (s + 1) & mask;
  }
  return s;
}

std::size_t WeightedSpaceSaving::IndexFind(std::uint64_t key) const {
  if (index_.empty()) return kNoCounter;
  return index_[IndexProbe(key)].counter;
}

void WeightedSpaceSaving::IndexReserve(std::size_t entries) {
  if (entries * 2 <= index_.size()) return;
  std::size_t size = index_.empty() ? 16 : index_.size() * 2;
  while (size < entries * 2) size *= 2;
  std::vector<IndexSlot> old = std::move(index_);
  index_.assign(size, IndexSlot{});
  for (const IndexSlot& slot : old) {
    if (slot.counter != kNoCounter) IndexPlace(slot.key, slot.counter);
  }
}

void WeightedSpaceSaving::IndexPlace(std::uint64_t key, std::size_t counter) {
  index_[IndexProbe(key)] = IndexSlot{key, counter};
}

void WeightedSpaceSaving::IndexErase(std::uint64_t key) {
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = IndexProbe(key);
  FWDECAY_DCHECK(index_[hole].counter != kNoCounter);
  // Slide back every later chain member whose home is not after the
  // hole, so each key stays reachable from its home without tombstones.
  for (std::size_t next = (hole + 1) & mask;
       index_[next].counter != kNoCounter; next = (next + 1) & mask) {
    const std::size_t home = Mix64(index_[next].key) & mask;
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      index_[hole] = index_[next];
      hole = next;
    }
  }
  index_[hole] = IndexSlot{};
}

bool WeightedSpaceSaving::HeapLess(std::size_t a, std::size_t b) const {
  return counters_[heap_[a]].count < counters_[heap_[b]].count;
}

void WeightedSpaceSaving::HeapSwap(std::size_t a, std::size_t b) {
  std::swap(heap_[a], heap_[b]);
  counters_[heap_[a]].heap_pos = a;
  counters_[heap_[b]].heap_pos = b;
}

void WeightedSpaceSaving::SiftUp(std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!HeapLess(i, parent)) break;
    HeapSwap(i, parent);
    i = parent;
  }
}

void WeightedSpaceSaving::SiftDown(std::size_t i) {
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t smallest = i;
    const std::size_t l = 2 * i + 1;
    const std::size_t r = 2 * i + 2;
    if (l < n && HeapLess(l, smallest)) smallest = l;
    if (r < n && HeapLess(r, smallest)) smallest = r;
    if (smallest == i) break;
    HeapSwap(i, smallest);
    i = smallest;
  }
}

void WeightedSpaceSaving::Update(std::uint64_t key, double weight) {
  FWDECAY_DCHECK(weight > 0.0);
  total_weight_ += weight;
  const std::size_t found = IndexFind(key);
  if (found != kNoCounter) {
    Counter& c = counters_[found];
    c.count += weight;
    SiftDown(c.heap_pos);  // count only grew; heap property below may break
    return;
  }
  if (counters_.size() < capacity_) {
    const std::size_t idx = counters_.size();
    counters_.push_back(Counter{key, weight, 0.0, heap_.size()});
    heap_.push_back(idx);
    SiftUp(counters_[idx].heap_pos);
    // fwdecay: hotpath-cold(index growth while the sketch fills; never once it holds capacity counters)
    IndexReserve(counters_.size());
    IndexPlace(key, idx);
    return;
  }
  // Evict the minimum-count counter: the newcomer inherits its count as
  // error, per the SpaceSaving replacement rule. The index keeps its
  // size: one key leaves, one arrives.
  const std::size_t idx = heap_[0];
  Counter& c = counters_[idx];
  IndexErase(c.key);
  IndexPlace(key, idx);
  c.error = c.count;
  c.count += weight;
  c.key = key;
  SiftDown(c.heap_pos);
}

std::vector<HeavyHitter> WeightedSpaceSaving::Query(double phi) const {
  std::vector<HeavyHitter> out;
  const double threshold = phi * total_weight_;
  for (const Counter& c : counters_) {
    if (c.count >= threshold) {
      out.push_back(HeavyHitter{c.key, c.count, c.error});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const HeavyHitter& a, const HeavyHitter& b) {
              return a.estimate > b.estimate;
            });
  return out;
}

double WeightedSpaceSaving::Estimate(std::uint64_t key) const {
  const std::size_t found = IndexFind(key);
  return found == kNoCounter ? 0.0 : counters_[found].count;
}

void WeightedSpaceSaving::Merge(const WeightedSpaceSaving& other) {
  // Feeding the other sketch's counters as weighted updates preserves the
  // combined guarantee: estimates remain upper bounds and the total error
  // is at most the sum of the two sketches' errors.
  for (const Counter& c : other.counters_) {
    Update(c.key, c.count);
  }
  total_weight_ += other.total_weight_;
  // Update() above already added the counter weights to total_weight_;
  // correct it so the total equals the true combined weight.
  double counted = 0.0;
  for (const Counter& c : other.counters_) counted += c.count;
  total_weight_ -= counted;
}

void WeightedSpaceSaving::CheckInvariants() const {
  const std::size_t n = counters_.size();
  FWDECAY_CHECK_MSG(n <= capacity_, "SpaceSaving holds more counters than "
                                    "its capacity");
  FWDECAY_CHECK_MSG(heap_.size() == n, "heap and counter array sizes differ");
  const std::size_t indexed = static_cast<std::size_t>(
      std::count_if(index_.begin(), index_.end(), [](const IndexSlot& s) {
        return s.counter != kNoCounter;
      }));
  FWDECAY_CHECK_MSG(indexed == n, "index and counter array sizes differ");
  FWDECAY_CHECK_MSG(n * 2 <= index_.size() || n == 0,
                    "key index is more than half full");
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Counter& c = counters_[i];
    FWDECAY_CHECK_MSG(!std::isnan(c.count) && !std::isnan(c.error),
                      "counter count/error is NaN");
    FWDECAY_CHECK_MSG(c.count >= 0.0 && c.error >= 0.0,
                      "counter count/error is negative");
    FWDECAY_CHECK_MSG(c.error <= c.count,
                      "counter error exceeds its count (estimate would "
                      "lower-bound below zero)");
    // heap_pos back-pointers: together with the size equality above this
    // proves heap_ is exactly a permutation of the counter indices.
    FWDECAY_CHECK_MSG(c.heap_pos < n && heap_[c.heap_pos] == i,
                      "heap back-pointer diverged from the heap array");
    // Found from its home slot: with the count equality above, the
    // index is a bijection onto the counters with unbroken probe chains.
    FWDECAY_CHECK_MSG(IndexFind(c.key) == i,
                      "index entry missing or pointing at another counter");
    sum += c.count;
  }
  for (std::size_t i = 1; i < n; ++i) {
    FWDECAY_CHECK_MSG(!HeapLess(i, (i - 1) / 2),
                      "min-heap order violated (eviction would pick a "
                      "non-minimal victim)");
  }
  // Weight conservation: every update adds its weight to exactly one
  // counter and to the running total, and eviction inherits the victim's
  // count — so the counter counts always sum to TotalWeight() (up to
  // floating-point accumulation order).
  const double tol = 1e-6 * std::max(1.0, std::max(sum, total_weight_));
  FWDECAY_CHECK_MSG(std::abs(sum - total_weight_) <= tol,
                    "counter counts do not sum to TotalWeight()");
}

std::size_t WeightedSpaceSaving::MemoryBytes() const {
  // key (8) + count (8) + error (8) + heap bookkeeping (8) per counter,
  // plus the hash index entry (~16).
  return counters_.size() * (sizeof(Counter) + 16);
}

void WeightedSpaceSaving::ScaleWeights(double factor) {
  FWDECAY_CHECK(factor > 0.0);
  for (Counter& c : counters_) {
    c.count *= factor;
    c.error *= factor;
  }
  total_weight_ *= factor;
  // Scaling by a positive constant preserves the heap order.
}

namespace {
constexpr std::uint8_t kWeightedSsTag = 0x53;  // 'S'
// v1: counters only; the reader re-heapifies. v2 (current) appends the
// exact heap permutation: under tied counts the evicted key depends on
// the heap's array layout, and engine checkpoint recovery must
// reproduce the uninterrupted run bit-for-bit, not just up to ties.
constexpr std::uint8_t kWeightedSsVersion = 2;
}  // namespace

void WeightedSpaceSaving::SerializeTo(ByteWriter* writer) const {
  writer->WriteU8(kWeightedSsTag);
  writer->WriteU8(kWeightedSsVersion);
  writer->WriteU64(capacity_);
  writer->WriteDouble(total_weight_);
  writer->WriteU32(static_cast<std::uint32_t>(counters_.size()));
  for (const Counter& c : counters_) {
    writer->WriteU64(c.key);
    writer->WriteDouble(c.count);
    writer->WriteDouble(c.error);
  }
  for (std::size_t idx : heap_) {
    writer->WriteU32(static_cast<std::uint32_t>(idx));
  }
}

std::optional<WeightedSpaceSaving> WeightedSpaceSaving::Deserialize(
    ByteReader* reader) {
  std::uint8_t tag = 0;
  std::uint8_t version = 0;
  std::uint64_t capacity = 0;
  double total = 0.0;
  std::uint32_t n = 0;
  if (!reader->ReadU8(&tag) || tag != kWeightedSsTag) return std::nullopt;
  if (!reader->ReadU8(&version) || version < 1 ||
      version > kWeightedSsVersion) {
    return std::nullopt;
  }
  if (!reader->ReadU64(&capacity) || capacity == 0) return std::nullopt;
  // The constructor reserves `capacity` slots up front; cap it (64M
  // counters ≈ 2 GiB) so a corrupt header can't demand absurd memory,
  // and bound the counter count by the bytes actually present (24 per
  // counter) before anything is allocated for them.
  if (capacity > (std::uint64_t{1} << 26)) return std::nullopt;
  if (!reader->ReadDouble(&total)) return std::nullopt;
  if (!reader->ReadU32(&n) || n > capacity) return std::nullopt;
  if (n > reader->Remaining() / 24) return std::nullopt;

  WeightedSpaceSaving out(static_cast<std::size_t>(capacity));
  out.total_weight_ = total;
  for (std::uint32_t i = 0; i < n; ++i) {
    Counter c{0, 0.0, 0.0, i};
    if (!reader->ReadU64(&c.key) || !reader->ReadDouble(&c.count) ||
        !reader->ReadDouble(&c.error)) {
      return std::nullopt;
    }
    if (out.IndexFind(c.key) != kNoCounter) return std::nullopt;  // corrupt
    out.IndexReserve(out.counters_.size() + 1);
    out.IndexPlace(c.key, out.counters_.size());
    out.heap_.push_back(out.counters_.size());
    out.counters_.push_back(c);
  }
  if (version >= 2) {
    // Restore the serialized heap permutation exactly, validating that
    // it is a permutation of [0, n) and satisfies the heap property.
    std::vector<bool> used(n, false);
    for (std::uint32_t i = 0; i < n; ++i) {
      std::uint32_t idx = 0;
      if (!reader->ReadU32(&idx) || idx >= n || used[idx]) {
        return std::nullopt;
      }
      used[idx] = true;
      out.heap_[i] = idx;
      out.counters_[idx].heap_pos = i;
    }
    for (std::uint32_t i = 1; i < n; ++i) {
      if (out.HeapLess(i, (i - 1) / 2)) return std::nullopt;  // corrupt
    }
  } else {
    // Heapify (bottom-up) to restore the min-heap invariant.
    for (std::size_t i = out.heap_.size() / 2; i-- > 0;) {
      out.SiftDown(i);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// UnarySpaceSaving serialization
// ---------------------------------------------------------------------------

namespace {
constexpr std::uint8_t kUnarySsTag = 0x55;  // 'U'
constexpr std::uint8_t kUnarySsVersion = 1;

bool ValidLink(std::uint32_t link, std::size_t size) {
  return link == 0xffffffffu || link < size;
}
}  // namespace

void UnarySpaceSaving::SerializeTo(ByteWriter* writer) const {
  writer->WriteU8(kUnarySsTag);
  writer->WriteU8(kUnarySsVersion);
  writer->WriteU64(capacity_);
  writer->WriteU64(total_count_);
  writer->WriteU32(static_cast<std::uint32_t>(num_counters_));
  writer->WriteU32(static_cast<std::uint32_t>(buckets_.size()));
  writer->WriteU32(min_bucket_);
  writer->WriteU32(free_bucket_);
  for (std::size_t c = 0; c < num_counters_; ++c) {
    const Counter& cn = counters_[c];
    writer->WriteU64(cn.key);
    writer->WriteU64(cn.error);
    writer->WriteU32(cn.bucket);
    writer->WriteU32(cn.prev);
    writer->WriteU32(cn.next);
  }
  for (const Bucket& b : buckets_) {
    writer->WriteU64(b.count);
    writer->WriteU32(b.head);
    writer->WriteU32(b.prev);
    writer->WriteU32(b.next);
  }
}

std::optional<UnarySpaceSaving> UnarySpaceSaving::Deserialize(
    ByteReader* reader) {
  std::uint8_t tag = 0;
  std::uint8_t version = 0;
  std::uint64_t capacity = 0;
  std::uint64_t total = 0;
  std::uint32_t n = 0;
  std::uint32_t nbuckets = 0;
  std::uint32_t min_bucket = 0;
  std::uint32_t free_bucket = 0;
  if (!reader->ReadU8(&tag) || tag != kUnarySsTag) return std::nullopt;
  if (!reader->ReadU8(&version) || version != kUnarySsVersion) {
    return std::nullopt;
  }
  // capacity sizes the counters_ array up front; same 64M cap as the
  // weighted variant so a corrupt header cannot demand absurd memory.
  if (!reader->ReadU64(&capacity) || capacity == 0 ||
      capacity > (std::uint64_t{1} << 26)) {
    return std::nullopt;
  }
  if (!reader->ReadU64(&total)) return std::nullopt;
  if (!reader->ReadU32(&n) || n > capacity) return std::nullopt;
  // Counters are 28 serialized bytes, buckets 20: bound both counts by
  // the bytes actually present before allocating.
  if (n > reader->Remaining() / 28) return std::nullopt;
  if (!reader->ReadU32(&nbuckets) || nbuckets > capacity + 1 ||
      nbuckets > reader->Remaining() / 20) {
    return std::nullopt;
  }
  if (!reader->ReadU32(&min_bucket) || !ValidLink(min_bucket, nbuckets) ||
      !reader->ReadU32(&free_bucket) || !ValidLink(free_bucket, nbuckets)) {
    return std::nullopt;
  }

  UnarySpaceSaving out(static_cast<std::size_t>(capacity));
  out.total_count_ = total;
  out.num_counters_ = n;
  out.min_bucket_ = min_bucket;
  out.free_bucket_ = free_bucket;
  for (std::uint32_t c = 0; c < n; ++c) {
    Counter& cn = out.counters_[c];
    if (!reader->ReadU64(&cn.key) || !reader->ReadU64(&cn.error) ||
        !reader->ReadU32(&cn.bucket) || !reader->ReadU32(&cn.prev) ||
        !reader->ReadU32(&cn.next)) {
      return std::nullopt;
    }
    if (cn.bucket >= nbuckets || !ValidLink(cn.prev, n) ||
        !ValidLink(cn.next, n)) {
      return std::nullopt;
    }
    if (!out.index_.emplace(cn.key, c).second) return std::nullopt;
  }
  out.buckets_.resize(nbuckets);
  for (std::uint32_t b = 0; b < nbuckets; ++b) {
    Bucket& bk = out.buckets_[b];
    if (!reader->ReadU64(&bk.count) || !reader->ReadU32(&bk.head) ||
        !reader->ReadU32(&bk.prev) || !reader->ReadU32(&bk.next)) {
      return std::nullopt;
    }
    if (!ValidLink(bk.head, n) || !ValidLink(bk.prev, nbuckets) ||
        !ValidLink(bk.next, nbuckets)) {
      return std::nullopt;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// UnarySpaceSaving
// ---------------------------------------------------------------------------

UnarySpaceSaving::UnarySpaceSaving(std::size_t capacity)
    : capacity_(capacity) {
  FWDECAY_CHECK_MSG(capacity >= 1, "SpaceSaving needs at least one counter");
  counters_.resize(capacity);
  buckets_.reserve(capacity + 1);
  index_.reserve(capacity * 2);
}

std::uint32_t UnarySpaceSaving::AllocBucket(std::uint64_t count) {
  std::uint32_t b;
  if (free_bucket_ != kNil) {
    b = free_bucket_;
    free_bucket_ = buckets_[b].next;
  } else {
    b = static_cast<std::uint32_t>(buckets_.size());
    buckets_.emplace_back();
  }
  buckets_[b] = Bucket{count, kNil, kNil, kNil};
  return b;
}

void UnarySpaceSaving::FreeBucket(std::uint32_t b) {
  Bucket& bk = buckets_[b];
  if (bk.prev != kNil) buckets_[bk.prev].next = bk.next;
  if (bk.next != kNil) buckets_[bk.next].prev = bk.prev;
  if (min_bucket_ == b) min_bucket_ = bk.next;
  bk.next = free_bucket_;
  free_bucket_ = b;
}

void UnarySpaceSaving::DetachCounter(std::uint32_t c) {
  Counter& cn = counters_[c];
  Bucket& bk = buckets_[cn.bucket];
  if (cn.prev != kNil) counters_[cn.prev].next = cn.next;
  if (cn.next != kNil) counters_[cn.next].prev = cn.prev;
  if (bk.head == c) bk.head = cn.next;
}

void UnarySpaceSaving::AttachCounter(std::uint32_t c, std::uint32_t bucket) {
  Counter& cn = counters_[c];
  Bucket& bk = buckets_[bucket];
  cn.bucket = bucket;
  cn.prev = kNil;
  cn.next = bk.head;
  if (bk.head != kNil) counters_[bk.head].prev = c;
  bk.head = c;
}

void UnarySpaceSaving::IncrementCounter(std::uint32_t c) {
  const std::uint32_t old_bucket = counters_[c].bucket;
  const std::uint64_t new_count = buckets_[old_bucket].count + 1;
  const std::uint32_t next_bucket = buckets_[old_bucket].next;

  DetachCounter(c);
  std::uint32_t target;
  if (next_bucket != kNil && buckets_[next_bucket].count == new_count) {
    target = next_bucket;
  } else {
    // Insert a fresh bucket between old_bucket and next_bucket.
    target = AllocBucket(new_count);
    buckets_[target].prev = old_bucket;
    buckets_[target].next = next_bucket;
    buckets_[old_bucket].next = target;
    if (next_bucket != kNil) buckets_[next_bucket].prev = target;
  }
  AttachCounter(c, target);
  if (buckets_[old_bucket].head == kNil) FreeBucket(old_bucket);
}

void UnarySpaceSaving::Update(std::uint64_t key) {
  ++total_count_;
  auto it = index_.find(key);
  if (it != index_.end()) {
    IncrementCounter(it->second);
    return;
  }
  if (num_counters_ < capacity_) {
    const auto c = static_cast<std::uint32_t>(num_counters_++);
    counters_[c] = Counter{key, 0, kNil, kNil, kNil};
    if (min_bucket_ == kNil || buckets_[min_bucket_].count != 1) {
      const std::uint32_t b = AllocBucket(1);
      buckets_[b].next = min_bucket_;
      if (min_bucket_ != kNil) buckets_[min_bucket_].prev = b;
      min_bucket_ = b;
    }
    AttachCounter(c, min_bucket_);
    index_.emplace(key, c);
    return;
  }
  // Replace a counter from the minimum bucket.
  const std::uint32_t c = buckets_[min_bucket_].head;
  Counter& cn = counters_[c];
  index_.erase(cn.key);
  index_.emplace(key, c);
  cn.key = key;
  cn.error = buckets_[min_bucket_].count;
  IncrementCounter(c);
}

std::vector<HeavyHitter> UnarySpaceSaving::Query(double phi) const {
  std::vector<HeavyHitter> out;
  const double threshold = phi * static_cast<double>(total_count_);
  for (std::size_t c = 0; c < num_counters_; ++c) {
    const Counter& cn = counters_[c];
    const auto count = static_cast<double>(buckets_[cn.bucket].count);
    if (count >= threshold) {
      out.push_back(HeavyHitter{cn.key, count, static_cast<double>(cn.error)});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const HeavyHitter& a, const HeavyHitter& b) {
              return a.estimate > b.estimate;
            });
  return out;
}

std::uint64_t UnarySpaceSaving::Estimate(std::uint64_t key) const {
  auto it = index_.find(key);
  if (it == index_.end()) return 0;
  return buckets_[counters_[it->second].bucket].count;
}

std::size_t UnarySpaceSaving::MemoryBytes() const {
  return num_counters_ * (sizeof(Counter) + 16) +
         buckets_.size() * sizeof(Bucket);
}

void UnarySpaceSaving::CheckInvariants() const {
  FWDECAY_CHECK_MSG(num_counters_ <= capacity_,
                    "stream-summary holds more counters than its capacity");
  FWDECAY_CHECK_MSG(index_.size() == num_counters_,
                    "index and live-counter counts differ");
  std::vector<char> bucket_seen(buckets_.size(), 0);
  std::vector<char> counter_seen(num_counters_, 0);
  std::size_t live_counters = 0;
  std::size_t live_buckets = 0;
  std::uint64_t sum = 0;
  std::uint64_t prev_count = 0;
  std::uint32_t prev_b = kNil;
  for (std::uint32_t b = min_bucket_; b != kNil; b = buckets_[b].next) {
    FWDECAY_CHECK_MSG(b < buckets_.size(), "bucket link out of range");
    FWDECAY_CHECK_MSG(!bucket_seen[b], "bucket chain contains a cycle");
    bucket_seen[b] = 1;
    ++live_buckets;
    const Bucket& bk = buckets_[b];
    FWDECAY_CHECK_MSG(bk.prev == prev_b, "bucket prev link inconsistent "
                                         "with chain order");
    FWDECAY_CHECK_MSG(prev_b == kNil || bk.count > prev_count,
                      "bucket counts not strictly ascending from "
                      "min_bucket_ (replacement would evict a non-minimal "
                      "counter)");
    FWDECAY_CHECK_MSG(bk.head != kNil, "live bucket holds no counters");
    std::uint32_t prev_c = kNil;
    for (std::uint32_t c = bk.head; c != kNil; c = counters_[c].next) {
      FWDECAY_CHECK_MSG(c < num_counters_, "counter link out of range");
      FWDECAY_CHECK_MSG(!counter_seen[c], "counter chain contains a cycle");
      counter_seen[c] = 1;
      ++live_counters;
      const Counter& cn = counters_[c];
      FWDECAY_CHECK_MSG(cn.bucket == b,
                        "counter bucket field diverged from the chain it "
                        "is linked into");
      FWDECAY_CHECK_MSG(cn.prev == prev_c, "counter prev link inconsistent "
                                           "with chain order");
      FWDECAY_CHECK_MSG(cn.error < bk.count,
                        "counter error not below its bucket count");
      auto it = index_.find(cn.key);
      FWDECAY_CHECK_MSG(it != index_.end() && it->second == c,
                        "index entry missing or pointing at another "
                        "counter");
      sum += bk.count;
      prev_c = c;
    }
    prev_count = bk.count;
    prev_b = b;
  }
  FWDECAY_CHECK_MSG(live_counters == num_counters_,
                    "live counters unreachable from the bucket chain");
  // Count conservation: every Update() raises exactly one counter's
  // bucket count by one (integers, so the match is exact).
  FWDECAY_CHECK_MSG(sum == total_count_,
                    "counter counts do not sum to TotalCount()");
  std::size_t free_buckets = 0;
  for (std::uint32_t b = free_bucket_; b != kNil; b = buckets_[b].next) {
    FWDECAY_CHECK_MSG(b < buckets_.size(), "free-list link out of range");
    FWDECAY_CHECK_MSG(!bucket_seen[b],
                      "bucket slot both live and on the free list");
    bucket_seen[b] = 2;
    ++free_buckets;
  }
  FWDECAY_CHECK_MSG(live_buckets + free_buckets == buckets_.size(),
                    "bucket slot neither live nor free (leaked)");
}

}  // namespace fwdecay
