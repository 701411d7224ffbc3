#include "dsms/udafs.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dsms/agg.h"
#include "sampling/biased_reservoir.h"
#include "sampling/reservoir.h"
#include "sketch/backward_sum.h"
#include "sketch/dominance_norm.h"
#include "sketch/qdigest.h"
#include "sketch/sliding_hh.h"
#include "sketch/space_saving.h"
#include "util/check.h"
#include "util/random.h"
#include "util/thread_annotations.h"  // locking lint: file uses std::atomic
#include "util/top_k_heap.h"

namespace fwdecay::dsms {

namespace {

// Each sampler state draws from its own deterministic generator; states
// are numbered in creation order so repeated runs reproduce exactly.
std::uint64_t NextStateSeed() {
  static std::atomic<std::uint64_t> counter{0};
  // fwdecay: relaxed-ok(id allocation; uniqueness needs only RMW atomicity, not ordering)
  return 0x9d5f7ab1u + counter.fetch_add(1, std::memory_order_relaxed);
}

// Renders a sample of numeric items as "v1,v2,..." sorted ascending.
std::string RenderSample(std::vector<double> items) {
  std::sort(items.begin(), items.end());
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", items[i]);
    out += buf;
  }
  return out;
}

// Read an optional literal parameter from row `row` of the argument
// columns, or `fallback` when the call omits it. The plan compiler has
// range-checked the literal (see the signatures in RegisterPaperUdafs).
std::size_t OptColSize(std::span<const ValueColumn> args_columns,
                       std::size_t index, std::uint32_t row,
                       std::size_t fallback) {
  if (args_columns.size() <= index) return fallback;
  const std::int64_t v = args_columns[index][row].AsInt();
  FWDECAY_CHECK_MSG(v > 0, "UDAF size parameter must be positive");
  return static_cast<std::size_t>(v);
}

double OptColDouble(std::span<const ValueColumn> args_columns,
                    std::size_t index, std::uint32_t row, double fallback) {
  return args_columns.size() <= index ? fallback
                                      : args_columns[index][row].AsDouble();
}

// --- Checkpoint helpers -----------------------------------------------------
//
// Sampler UDAFs serialize their full generator state: a restored sampler
// must continue the exact random sequence of the checkpointed run, or
// recovery-replay would diverge from the uninterrupted baseline.

void WriteRngState(ByteWriter* writer, const Rng& rng) {
  std::uint64_t s[4];
  rng.SaveState(s);
  for (std::uint64_t word : s) writer->WriteU64(word);
}

bool ReadRngState(ByteReader* reader, Rng* rng) {
  std::uint64_t s[4];
  for (auto& word : s) {
    if (!reader->ReadU64(&word)) return false;
  }
  rng->LoadState(s);
  return true;
}

void WriteHeap(ByteWriter* writer, const TopKHeap<double>& heap) {
  writer->WriteU64(heap.capacity());
  writer->WriteU32(static_cast<std::uint32_t>(heap.size()));
  // Verbatim array order: eviction under tied scores depends on it.
  for (const auto& e : heap.entries()) {
    writer->WriteDouble(e.score);
    writer->WriteDouble(e.value);
  }
}

std::unique_ptr<TopKHeap<double>> ReadHeap(ByteReader* reader) {
  std::uint64_t capacity = 0;
  std::uint32_t n = 0;
  if (!reader->ReadU64(&capacity) || capacity == 0 ||
      capacity > (std::uint64_t{1} << 26)) {
    return nullptr;
  }
  if (!reader->ReadU32(&n) || n > capacity || n > reader->Remaining() / 16) {
    return nullptr;
  }
  std::vector<TopKHeap<double>::Entry> entries;
  entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    TopKHeap<double>::Entry e{0.0, 0.0};
    if (!reader->ReadDouble(&e.score) || !reader->ReadDouble(&e.value)) {
      return nullptr;
    }
    entries.push_back(e);
  }
  auto heap =
      std::make_unique<TopKHeap<double>>(static_cast<std::size_t>(capacity));
  if (!heap->RestoreEntries(std::move(entries))) return nullptr;
  return heap;
}

// --- Samplers ---------------------------------------------------------------

// PRISAMP and WRSAMP: a generator and a lazily built heap of the k
// top-scored (score, item) pairs. They differ only in the score drawn
// per row and in how the sample is read out.
class HeapSamplerUdaf : public AggState {
 public:
  HeapSamplerUdaf() : rng_(NextStateSeed()) {}

  void Merge(AggState& other) override {
    auto& o = static_cast<HeapSamplerUdaf&>(other);
    if (o.heap_ == nullptr) return;
    EnsureHeap(o.heap_->capacity());
    for (const auto& e : o.heap_->entries()) heap_->Offer(e.score, e.value);
  }

  bool SerializeTo(ByteWriter* writer) const override {
    WriteRngState(writer, rng_);
    writer->WriteU8(heap_ != nullptr ? 1 : 0);
    if (heap_ != nullptr) WriteHeap(writer, *heap_);
    return true;
  }

  bool RestoreFrom(ByteReader* reader) override {
    if (!ReadRngState(reader, &rng_)) return false;
    std::uint8_t flag = 0;
    if (!reader->ReadU8(&flag) || flag > 1) return false;
    heap_.reset();
    if (flag != 0) {
      heap_ = ReadHeap(reader);
      if (heap_ == nullptr) return false;
    }
    return true;
  }

 protected:
  static constexpr std::size_t kDefaultK = 64;

  void EnsureHeap(std::size_t capacity) {
    if (heap_ == nullptr) heap_ = std::make_unique<TopKHeap<double>>(capacity);
  }

  Rng rng_;
  std::unique_ptr<TopKHeap<double>> heap_;
};

/// PRISAMP(item, weight [, k]): priority sampling. Priorities w/u are
/// kept in the linear domain — weights such as exp(time % 60) stay well
/// within double range inside a one-minute group.
class PrisampUdaf : public HeapSamplerUdaf {
 public:
  void UpdateBatch(std::span<const ValueColumn> args_columns,
                   std::span<const std::uint32_t> rows) override {
    if (rows.empty()) return;
    if (heap_ == nullptr) {
      // +1: threshold slot.
      EnsureHeap(OptColSize(args_columns, 2, rows.front(), kDefaultK) + 1);
    }
    const ValueColumn& items = args_columns[0];
    const ValueColumn& weights = args_columns[1];
    for (std::uint32_t row : rows) {
      const double w = weights[row].AsDouble();
      if (w <= 0.0) continue;  // no RNG draw
      heap_->Offer(w / rng_.NextDoubleOpenZero(), items[row].AsDouble());
    }
  }

  Value Finalize() const override {
    if (heap_ == nullptr) return Value(std::string());
    auto sorted = heap_->SortedByScoreDesc();
    std::vector<double> items;
    const std::size_t take = sorted.size() == heap_->capacity()
                                 ? sorted.size() - 1
                                 : sorted.size();
    for (std::size_t i = 0; i < take; ++i) items.push_back(sorted[i].value);
    return Value(RenderSample(std::move(items)));
  }
};

/// WRSAMP(item, weight [, k]): A-Res weighted reservoir, log-domain keys.
class WrsampUdaf : public HeapSamplerUdaf {
 public:
  void UpdateBatch(std::span<const ValueColumn> args_columns,
                   std::span<const std::uint32_t> rows) override {
    if (rows.empty()) return;
    if (heap_ == nullptr) {
      EnsureHeap(OptColSize(args_columns, 2, rows.front(), kDefaultK));
    }
    const ValueColumn& items = args_columns[0];
    const ValueColumn& weights = args_columns[1];
    for (std::uint32_t row : rows) {
      const double w = weights[row].AsDouble();
      if (w <= 0.0) continue;  // no RNG draw
      const double score =
          std::log(w) - std::log(-std::log(rng_.NextDoubleOpenZero()));
      heap_->Offer(score, items[row].AsDouble());
    }
  }

  Value Finalize() const override {
    if (heap_ == nullptr) return Value(std::string());
    std::vector<double> items;
    for (const auto& e : heap_->entries()) items.push_back(e.value);
    return Value(RenderSample(std::move(items)));
  }
};

/// RESSAMP(item [, k]) with Sampler = ReservoirSampler: Vitter's
/// undecayed reservoir; AGGSAMP(item [, k]) with BiasedReservoirSampler:
/// Aggarwal's biased reservoir. Both are baselines.
template <class Sampler>
class ReservoirUdaf : public AggState {
 public:
  ReservoirUdaf() : rng_(NextStateSeed()) {}

  void UpdateBatch(std::span<const ValueColumn> args_columns,
                   std::span<const std::uint32_t> rows) override {
    if (rows.empty()) return;
    if (sampler_ == nullptr) {
      // fwdecay: hotpath-cold(one-time lazy sampler init on the group's first update)
      sampler_ = std::make_unique<Sampler>(
          OptColSize(args_columns, 1, rows.front(), kDefaultK));
    }
    const ValueColumn& items = args_columns[0];
    for (std::uint32_t row : rows) sampler_->Add(items[row].AsDouble(), rng_);
  }

  void Merge(AggState& other) override {
    // Approximate merge: re-offer the peer's sample. Fine for the
    // two-level engine split (partial groups are disjoint stream
    // segments) though not an exact reservoir union.
    auto& o = static_cast<ReservoirUdaf&>(other);
    if (o.sampler_ == nullptr) return;
    if (sampler_ == nullptr) {
      sampler_ = std::make_unique<Sampler>(o.sampler_->capacity());
    }
    for (double v : o.sampler_->sample()) sampler_->Add(v, rng_);
  }

  Value Finalize() const override {
    if (sampler_ == nullptr) return Value(std::string());
    return Value(RenderSample(sampler_->sample()));
  }

  bool SerializeTo(ByteWriter* writer) const override {
    WriteRngState(writer, rng_);
    writer->WriteU8(sampler_ != nullptr ? 1 : 0);
    if (sampler_ != nullptr) {
      writer->WriteU64(sampler_->capacity());
      writer->WriteU64(sampler_->seen());
      writer->WriteU32(static_cast<std::uint32_t>(sampler_->sample().size()));
      for (double v : sampler_->sample()) writer->WriteDouble(v);
    }
    return true;
  }

  bool RestoreFrom(ByteReader* reader) override {
    if (!ReadRngState(reader, &rng_)) return false;
    std::uint8_t flag = 0;
    if (!reader->ReadU8(&flag) || flag > 1) return false;
    sampler_.reset();
    if (flag == 0) return true;
    std::uint64_t capacity = 0;
    std::uint64_t seen = 0;
    std::uint32_t n = 0;
    if (!reader->ReadU64(&capacity) || capacity == 0 ||
        capacity > (std::uint64_t{1} << 26)) {
      return false;
    }
    if (!reader->ReadU64(&seen) || !reader->ReadU32(&n) || n > capacity ||
        n > reader->Remaining() / 8) {
      return false;
    }
    std::vector<double> sample;
    sample.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      double v = 0.0;
      if (!reader->ReadDouble(&v)) return false;
      sample.push_back(v);
    }
    sampler_ = std::make_unique<Sampler>(static_cast<std::size_t>(capacity));
    return sampler_->RestoreState(seen, std::move(sample));
  }

 private:
  static constexpr std::size_t kDefaultK = 64;

  Rng rng_;
  std::unique_ptr<Sampler> sampler_;
};

// --- Heavy hitters ----------------------------------------------------------

std::string RenderHitters(const std::vector<HeavyHitter>& hitters) {
  std::string out;
  for (std::size_t i = 0; i < hitters.size(); ++i) {
    if (i > 0) out += " ";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%llu:%.1f",
                  static_cast<unsigned long long>(hitters[i].key),
                  hitters[i].estimate);
    out += buf;
  }
  return out;
}

/// FDHH(key, weight [, phi [, eps]]): forward-decayed heavy hitters via
/// weighted SpaceSaving (Theorem 2). The weight argument is the static
/// weight g(t_i - L) generated by the query.
class FdhhUdaf : public AggState {
 public:
  void UpdateBatch(std::span<const ValueColumn> args_columns,
                   std::span<const std::uint32_t> rows) override {
    if (rows.empty()) return;
    if (sketch_ == nullptr) {
      phi_ = OptColDouble(args_columns, 2, rows.front(), 0.05);
      const double eps = OptColDouble(args_columns, 3, rows.front(), 0.01);
      // fwdecay: hotpath-cold(one-time lazy sketch init on the group's first update)
      sketch_ = std::make_unique<WeightedSpaceSaving>(
          static_cast<std::size_t>(std::ceil(1.0 / eps)));
    }
    const ValueColumn& keys = args_columns[0];
    const ValueColumn& weights = args_columns[1];
    for (std::uint32_t row : rows) {
      const double w = weights[row].AsDouble();
      if (w <= 0.0) continue;
      sketch_->Update(static_cast<std::uint64_t>(keys[row].AsInt()), w);
    }
  }

  void Merge(AggState& other) override {
    auto& o = static_cast<FdhhUdaf&>(other);
    if (o.sketch_ == nullptr) return;
    if (sketch_ == nullptr) {
      phi_ = o.phi_;
      sketch_ = std::make_unique<WeightedSpaceSaving>(o.sketch_->capacity());
    }
    sketch_->Merge(*o.sketch_);
  }

  Value Finalize() const override {
    if (sketch_ == nullptr) return Value(std::string());
    return Value(RenderHitters(sketch_->Query(phi_)));
  }

  bool SerializeTo(ByteWriter* writer) const override {
    writer->WriteDouble(phi_);
    writer->WriteU8(sketch_ != nullptr ? 1 : 0);
    if (sketch_ != nullptr) sketch_->SerializeTo(writer);
    return true;
  }

  bool RestoreFrom(ByteReader* reader) override {
    std::uint8_t flag = 0;
    if (!reader->ReadDouble(&phi_) || !std::isfinite(phi_) || phi_ < 0.0) {
      return false;
    }
    if (!reader->ReadU8(&flag) || flag > 1) return false;
    sketch_.reset();
    if (flag != 0) {
      auto sketch = WeightedSpaceSaving::Deserialize(reader);
      if (!sketch) return false;
      sketch_ = std::make_unique<WeightedSpaceSaving>(std::move(*sketch));
    }
    return true;
  }

 private:
  double phi_ = 0.05;
  std::unique_ptr<WeightedSpaceSaving> sketch_;
};

/// UNARYHH(key [, phi [, eps]]): undecayed heavy hitters via the
/// unary-optimized SpaceSaving (the paper's "Unary HH").
class UnaryhhUdaf : public AggState {
 public:
  void UpdateBatch(std::span<const ValueColumn> args_columns,
                   std::span<const std::uint32_t> rows) override {
    if (rows.empty()) return;
    if (sketch_ == nullptr) {
      phi_ = OptColDouble(args_columns, 1, rows.front(), 0.05);
      const double eps = OptColDouble(args_columns, 2, rows.front(), 0.01);
      // fwdecay: hotpath-cold(one-time lazy sketch init on the group's first update)
      sketch_ = std::make_unique<UnarySpaceSaving>(
          static_cast<std::size_t>(std::ceil(1.0 / eps)));
    }
    const ValueColumn& keys = args_columns[0];
    for (std::uint32_t row : rows) {
      sketch_->Update(static_cast<std::uint64_t>(keys[row].AsInt()));
    }
  }

  void Merge(AggState&) override {
    FWDECAY_CHECK_MSG(false,
                      "UNARYHH does not support the two-level split; run it "
                      "one-level (as the paper does for holistic UDAFs)");
  }

  Value Finalize() const override {
    if (sketch_ == nullptr) return Value(std::string());
    return Value(RenderHitters(sketch_->Query(phi_)));
  }

  bool SerializeTo(ByteWriter* writer) const override {
    writer->WriteDouble(phi_);
    writer->WriteU8(sketch_ != nullptr ? 1 : 0);
    if (sketch_ != nullptr) sketch_->SerializeTo(writer);
    return true;
  }

  bool RestoreFrom(ByteReader* reader) override {
    std::uint8_t flag = 0;
    if (!reader->ReadDouble(&phi_) || !std::isfinite(phi_) || phi_ < 0.0) {
      return false;
    }
    if (!reader->ReadU8(&flag) || flag > 1) return false;
    sketch_.reset();
    if (flag != 0) {
      auto sketch = UnarySpaceSaving::Deserialize(reader);
      if (!sketch) return false;
      sketch_ = std::make_unique<UnarySpaceSaving>(std::move(*sketch));
    }
    return true;
  }

 private:
  double phi_ = 0.05;
  std::unique_ptr<UnarySpaceSaving> sketch_;
};

/// SWHH(time, key [, phi [, eps]]): the sliding-window/backward-decay HH
/// baseline; finalizes to the HH set over the whole group span.
class SwhhUdaf : public AggState {
 public:
  void UpdateBatch(std::span<const ValueColumn> args_columns,
                   std::span<const std::uint32_t> rows) override {
    if (rows.empty()) return;
    if (sketch_ == nullptr) {
      phi_ = OptColDouble(args_columns, 2, rows.front(), 0.05);
      const double eps = OptColDouble(args_columns, 3, rows.front(), 0.01);
      // fwdecay: hotpath-cold(one-time lazy sketch init on the group's first update)
      sketch_ = std::make_unique<SlidingWindowHeavyHitters>(eps);
    }
    const ValueColumn& times = args_columns[0];
    const ValueColumn& keys = args_columns[1];
    for (std::uint32_t row : rows) {
      const double ts = times[row].AsDouble();
      last_ts_ = std::max(last_ts_, ts);
      if (first_ts_ < 0.0) first_ts_ = ts;
      sketch_->Update(ts, static_cast<std::uint64_t>(keys[row].AsInt()));
    }
  }

  void Merge(AggState&) override {
    FWDECAY_CHECK_MSG(false, "SWHH does not support the two-level split");
  }

  Value Finalize() const override {
    if (sketch_ == nullptr) return Value(std::string());
    const double window = std::max(last_ts_ - first_ts_, 1e-9) * 2.0;
    return Value(RenderHitters(sketch_->QueryWindow(last_ts_, window, phi_)));
  }

  bool SerializeTo(ByteWriter* writer) const override {
    writer->WriteDouble(phi_);
    writer->WriteDouble(first_ts_);
    writer->WriteDouble(last_ts_);
    writer->WriteU8(sketch_ != nullptr ? 1 : 0);
    if (sketch_ != nullptr) sketch_->SerializeTo(writer);
    return true;
  }

  bool RestoreFrom(ByteReader* reader) override {
    std::uint8_t flag = 0;
    if (!reader->ReadDouble(&phi_) || !std::isfinite(phi_) || phi_ < 0.0) {
      return false;
    }
    if (!reader->ReadDouble(&first_ts_) || !reader->ReadDouble(&last_ts_) ||
        !reader->ReadU8(&flag) || flag > 1) {
      return false;
    }
    sketch_.reset();
    if (flag != 0) {
      auto sketch = SlidingWindowHeavyHitters::Deserialize(reader);
      if (!sketch) return false;
      sketch_ =
          std::make_unique<SlidingWindowHeavyHitters>(std::move(*sketch));
    }
    return true;
  }

 private:
  double phi_ = 0.05;
  double first_ts_ = -1.0;
  double last_ts_ = 0.0;
  std::unique_ptr<SlidingWindowHeavyHitters> sketch_;
};

// --- Backward-decayed sum baseline ------------------------------------------

/// EHDSUM(time, value [, eps]): maintains the exponential-histogram pair
/// and finalizes to the backward *polynomial* decayed sum f(a)=(a+1)^-2
/// evaluated at the group's last timestamp — the Figure 2 baseline.
class EhdsumUdaf : public AggState {
 public:
  void UpdateBatch(std::span<const ValueColumn> args_columns,
                   std::span<const std::uint32_t> rows) override {
    if (rows.empty()) return;
    if (agg_ == nullptr) {
      const double eps = OptColDouble(args_columns, 2, rows.front(), 0.1);
      // fwdecay: hotpath-cold(one-time lazy sketch init on the group's first update)
      agg_ = std::make_unique<BackwardDecayedAggregator>(eps,
                                                         /*value_bits=*/16);
    }
    const ValueColumn& times = args_columns[0];
    const ValueColumn& values = args_columns[1];
    for (std::uint32_t row : rows) {
      const double ts = times[row].AsDouble();
      last_ts_ = std::max(last_ts_, ts);
      agg_->Insert(ts, static_cast<std::uint64_t>(values[row].AsInt()));
    }
  }

  void Merge(AggState&) override {
    FWDECAY_CHECK_MSG(false, "EHDSUM does not support the two-level split");
  }

  Value Finalize() const override {
    if (agg_ == nullptr) return Value(0.0);
    return Value(agg_->DecayedSum(
        last_ts_, [](double age) { return std::pow(age + 1.0, -2.0); }));
  }

  bool SerializeTo(ByteWriter* writer) const override {
    writer->WriteDouble(last_ts_);
    writer->WriteU8(agg_ != nullptr ? 1 : 0);
    if (agg_ != nullptr) agg_->SerializeTo(writer);
    return true;
  }

  bool RestoreFrom(ByteReader* reader) override {
    std::uint8_t flag = 0;
    if (!reader->ReadDouble(&last_ts_) || !reader->ReadU8(&flag) ||
        flag > 1) {
      return false;
    }
    agg_.reset();
    if (flag != 0) {
      auto agg = BackwardDecayedAggregator::Deserialize(reader);
      if (!agg) return false;
      agg_ = std::make_unique<BackwardDecayedAggregator>(std::move(*agg));
    }
    return true;
  }

 private:
  double last_ts_ = 0.0;
  std::unique_ptr<BackwardDecayedAggregator> agg_;
};

// --- Decayed min / max (Definition 6) ---------------------------------------

/// FDMIN/FDMAX(value, weight): tracks the extremum of weight * value —
/// the static product g(t_i - L) * v_i of Definition 6; divide by
/// g(t - L) downstream to obtain the decayed extremum at query time t.
template <bool kIsMax>
class FdExtremumUdaf : public AggState {
 public:
  void UpdateBatch(std::span<const ValueColumn> args_columns,
                   std::span<const std::uint32_t> rows) override {
    const ValueColumn& values = args_columns[0];
    const ValueColumn& weights = args_columns[1];
    for (std::uint32_t row : rows) {
      const double w = weights[row].AsDouble();
      if (w <= 0.0) continue;
      Offer(w * values[row].AsDouble());
    }
  }

  void Merge(AggState& other) override {
    auto& o = static_cast<FdExtremumUdaf&>(other);
    if (o.has_value_) Offer(o.best_);
  }

  Value Finalize() const override { return Value(has_value_ ? best_ : 0.0); }

  bool SerializeTo(ByteWriter* writer) const override {
    writer->WriteDouble(best_);
    writer->WriteU8(has_value_ ? 1 : 0);
    return true;
  }

  bool RestoreFrom(ByteReader* reader) override {
    std::uint8_t flag = 0;
    if (!reader->ReadDouble(&best_) || !reader->ReadU8(&flag) || flag > 1) {
      return false;
    }
    has_value_ = flag != 0;
    return true;
  }

 private:
  void Offer(double scaled) {
    if (!has_value_ || (kIsMax ? scaled > best_ : scaled < best_)) {
      best_ = scaled;
    }
    has_value_ = true;
  }

  double best_ = 0.0;
  bool has_value_ = false;
};

// --- Quantiles and distinct -------------------------------------------------

/// FDQUANTILE(value, weight, phi [, bits [, eps]]): weighted q-digest
/// quantile under forward decay (Theorem 3). Values outside the
/// digest's universe saturate into [0, 2^bits - 1] — negatives count as
/// 0, values at or above 2^bits as the top of the universe — the way
/// floor() saturates its int64 (SaturatingI64 in util/int_div.h).
class FdquantileUdaf : public AggState {
 public:
  void UpdateBatch(std::span<const ValueColumn> args_columns,
                   std::span<const std::uint32_t> rows) override {
    if (rows.empty()) return;
    if (digest_ == nullptr) {
      phi_ = args_columns[2][rows.front()].AsDouble();
      const int bits =
          static_cast<int>(OptColSize(args_columns, 3, rows.front(), 16));
      const double eps = OptColDouble(args_columns, 4, rows.front(), 0.01);
      // fwdecay: hotpath-cold(one-time lazy sketch init on the group's first update)
      digest_ = std::make_unique<QDigest>(bits, eps);
    }
    const ValueColumn& values = args_columns[0];
    const ValueColumn& weights = args_columns[1];
    const auto top = static_cast<std::int64_t>(
        (std::uint64_t{1} << digest_->universe_bits()) - 1);
    for (std::uint32_t row : rows) {
      const double w = weights[row].AsDouble();
      if (w <= 0.0) continue;
      const std::int64_t v =
          std::clamp<std::int64_t>(values[row].AsInt(), 0, top);
      digest_->Update(static_cast<std::uint64_t>(v), w);
    }
  }

  void Merge(AggState& other) override {
    auto& o = static_cast<FdquantileUdaf&>(other);
    if (o.digest_ == nullptr) return;
    if (digest_ == nullptr) {
      phi_ = o.phi_;
      digest_ = std::make_unique<QDigest>(o.digest_->universe_bits(),
                                          o.digest_->eps());
    }
    digest_->Merge(*o.digest_);
  }

  Value Finalize() const override {
    if (digest_ == nullptr) return Value(std::int64_t{0});
    return Value(static_cast<std::int64_t>(digest_->Quantile(phi_)));
  }

  bool SerializeTo(ByteWriter* writer) const override {
    writer->WriteDouble(phi_);
    writer->WriteU8(digest_ != nullptr ? 1 : 0);
    if (digest_ != nullptr) digest_->SerializeTo(writer);
    return true;
  }

  bool RestoreFrom(ByteReader* reader) override {
    std::uint8_t flag = 0;
    // QDigest::Quantile CHECKs phi in [0, 1]; enforce it here so a
    // hostile snapshot fails restore instead of crashing Finalize.
    if (!reader->ReadDouble(&phi_) || !(phi_ >= 0.0 && phi_ <= 1.0)) {
      return false;
    }
    if (!reader->ReadU8(&flag) || flag > 1) return false;
    digest_.reset();
    if (flag != 0) {
      auto digest = QDigest::Deserialize(reader);
      if (!digest) return false;
      digest_ = std::make_unique<QDigest>(std::move(*digest));
    }
    return true;
  }

 private:
  double phi_ = 0.5;
  std::unique_ptr<QDigest> digest_;
};

/// FDDISTINCT(key, weight [, k]): decayed count-distinct via the
/// dominance-norm sketch (Theorem 4). Finalizes to the un-normalized
/// dominance norm; divide by g(t - L) downstream if needed.
class FddistinctUdaf : public AggState {
 public:
  void UpdateBatch(std::span<const ValueColumn> args_columns,
                   std::span<const std::uint32_t> rows) override {
    if (rows.empty()) return;
    if (sketch_ == nullptr) {
      // fwdecay: hotpath-cold(one-time lazy sketch init on the group's first update)
      sketch_ = std::make_unique<DominanceNormSketch>(
          OptColSize(args_columns, 2, rows.front(), 1024));
    }
    const ValueColumn& keys = args_columns[0];
    const ValueColumn& weights = args_columns[1];
    for (std::uint32_t row : rows) {
      const double w = weights[row].AsDouble();
      if (w <= 0.0) continue;
      sketch_->Update(static_cast<std::uint64_t>(keys[row].AsInt()), w);
    }
  }

  void Merge(AggState& other) override {
    auto& o = static_cast<FddistinctUdaf&>(other);
    if (o.sketch_ == nullptr) return;
    if (sketch_ == nullptr) {
      sketch_ = std::make_unique<DominanceNormSketch>(1024);
    }
    sketch_->Merge(*o.sketch_);
  }

  Value Finalize() const override {
    if (sketch_ == nullptr) return Value(0.0);
    return Value(sketch_->Estimate());
  }

  bool SerializeTo(ByteWriter* writer) const override {
    writer->WriteU8(sketch_ != nullptr ? 1 : 0);
    if (sketch_ != nullptr) sketch_->SerializeTo(writer);
    return true;
  }

  bool RestoreFrom(ByteReader* reader) override {
    std::uint8_t flag = 0;
    if (!reader->ReadU8(&flag) || flag > 1) return false;
    sketch_.reset();
    if (flag != 0) {
      auto sketch = DominanceNormSketch::Deserialize(reader);
      if (!sketch) return false;
      sketch_ = std::make_unique<DominanceNormSketch>(std::move(*sketch));
    }
    return true;
  }

 private:
  std::unique_ptr<DominanceNormSketch> sketch_;
};

// --- Literal-parameter bounds -----------------------------------------------
//
// Sizes stop at 2^26, the cap every sampler's and sketch's Deserialize
// puts on what a header may allocate. SpaceSaving keeps ceil(1/eps)
// counters and an exponential histogram ceil(1/eps) buckets per size,
// so their eps starts at 2^-26; a q-digest reserves 8/eps nodes up
// front, so its eps starts at 2^-23.
constexpr double kMaxSize = 1 << 26;
constexpr AggParam kPhi{"phi", 0.0, 1.0};
constexpr AggParam kSampleK{"k", 1.0, kMaxSize};
constexpr AggParam kCounterEps{"eps", 1.0 / kMaxSize, 1.0};

}  // namespace

void RegisterPaperUdafs() {
  AggRegistry& r = AggRegistry::Instance();
  // PRISAMP's heap holds k + 1 entries (the threshold slot).
  // Trailing flags: string_result, mergeable (AggSignature).
  r.Register<PrisampUdaf>("prisamp", {"PRISAMP(item, weight [, k])", 2, 2,
                                      {{"k", 1.0, kMaxSize - 1.0}}, true});
  r.Register<WrsampUdaf>(
      "wrsamp", {"WRSAMP(item, weight [, k])", 2, 2, {kSampleK}, true});
  r.Register<ReservoirUdaf<ReservoirSampler<double>>>(
      "ressamp", {"RESSAMP(item [, k])", 1, 1, {kSampleK}, true});
  r.Register<ReservoirUdaf<BiasedReservoirSampler<double>>>(
      "aggsamp", {"AGGSAMP(item [, k])", 1, 1, {kSampleK}, true});
  r.Register<FdhhUdaf>("fdhh", {"FDHH(key, weight [, phi [, eps]])", 2, 2,
                                {kPhi, kCounterEps}, true});
  r.Register<UnaryhhUdaf>("unaryhh", {"UNARYHH(key [, phi [, eps]])", 1, 1,
                                      {kPhi, kCounterEps}, true, false});
  // The sliding-window sketch needs eps < 1.
  r.Register<SwhhUdaf>("swhh", {"SWHH(time, key [, phi [, eps]])", 2, 2,
                                {kPhi, {"eps", 1.0 / kMaxSize, 1.0, true}},
                                true, false});
  r.Register<EhdsumUdaf>("ehdsum", {"EHDSUM(time, value [, eps])", 2, 2,
                                    {kCounterEps}, false, false});
  r.Register<FdquantileUdaf>(
      "fdquantile", {"FDQUANTILE(value, weight, phi [, bits [, eps]])", 3, 2,
                     {kPhi, {"bits", 1.0, 62.0},
                      {"eps", 8.0 / kMaxSize, 1.0, true}}});
  // KMV keeps at least 3 hashes per level.
  r.Register<FddistinctUdaf>("fddistinct", {"FDDISTINCT(key, weight [, k])",
                                            2, 2, {{"k", 3.0, kMaxSize}}});
  r.Register<FdExtremumUdaf<false>>("fdmin",
                                    {"FDMIN(value, weight)", 2, 2, {}});
  r.Register<FdExtremumUdaf<true>>("fdmax",
                                   {"FDMAX(value, weight)", 2, 2, {}});
}

}  // namespace fwdecay::dsms
