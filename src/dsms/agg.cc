#include "dsms/agg.h"

#include <algorithm>
#include <cctype>
#include <unordered_set>

#include "util/check.h"
#include "util/int_div.h"

namespace fwdecay::dsms {

namespace {

std::string Lower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

// --- Built-in SQL aggregates -----------------------------------------------

class CountAgg : public AggState {
 public:
  void UpdateBatch(std::span<const ValueColumn>,
                   std::span<const std::uint32_t> rows) override {
    count_ += static_cast<std::int64_t>(rows.size());
  }
  void UpdateStates(std::span<AggState* const> states,
                    std::span<const ValueColumn>,
                    std::span<const std::uint32_t>) override {
    for (AggState* s : states) ++static_cast<CountAgg*>(s)->count_;
  }
  void Merge(AggState& other) override {
    count_ += static_cast<CountAgg&>(other).count_;
  }
  Value Finalize() const override { return Value(count_); }
  bool SerializeTo(ByteWriter* writer) const override {
    writer->WriteI64(count_);
    return true;
  }
  bool RestoreFrom(ByteReader* reader) override {
    return reader->ReadI64(&count_) && count_ >= 0;
  }

 private:
  std::int64_t count_ = 0;
};

class SumAgg : public AggState {
 public:
  void UpdateBatch(std::span<const ValueColumn> args_columns,
                   std::span<const std::uint32_t> rows) override {
    AddRows(args_columns[0], rows, [this](std::size_t) { return this; });
  }
  void UpdateStates(std::span<AggState* const> states,
                    std::span<const ValueColumn> args_columns,
                    std::span<const std::uint32_t> rows) override {
    AddRows(args_columns[0], rows, [&](std::size_t k) {
      return static_cast<SumAgg*>(states[k]);
    });
  }
  void Merge(AggState& other) override {
    auto& o = static_cast<SumAgg&>(other);
    sum_ += o.sum_;
    all_int_ = all_int_ && o.all_int_;
  }
  Value Finalize() const override {
    if (all_int_) return Value(SaturatingI64(sum_));
    return Value(sum_);
  }
  bool SerializeTo(ByteWriter* writer) const override {
    writer->WriteDouble(sum_);
    writer->WriteU8(all_int_ ? 1 : 0);
    return true;
  }
  bool RestoreFrom(ByteReader* reader) override {
    std::uint8_t flag = 0;
    if (!reader->ReadDouble(&sum_) || !reader->ReadU8(&flag) || flag > 1) {
      return false;
    }
    all_int_ = flag != 0;
    return true;
  }

 private:
  // Adds row rows[k] of `col` to the state state_at(k), in row order, so
  // each state's FP additions are the per-tuple path's. A kI64 column is
  // int in every row (all_int_ unchanged), a kF64 column in none.
  template <class StateAt>
  static void AddRows(const ValueColumn& col,
                      std::span<const std::uint32_t> rows,
                      const StateAt& state_at) {
    if (col.rep() == ValueColumn::Rep::kI64) {
      const std::int64_t* v = col.i64_data();
      for (std::size_t k = 0; k < rows.size(); ++k) {
        state_at(k)->sum_ += static_cast<double>(v[rows[k]]);
      }
      return;
    }
    const double* v = col.f64_data();
    for (std::size_t k = 0; k < rows.size(); ++k) {
      SumAgg* s = state_at(k);
      s->all_int_ = false;
      s->sum_ += v[rows[k]];
    }
  }

  double sum_ = 0.0;
  bool all_int_ = true;
};

class AvgAgg : public AggState {
 public:
  void UpdateBatch(std::span<const ValueColumn> args_columns,
                   std::span<const std::uint32_t> rows) override {
    AddRows(args_columns[0], rows, [this](std::size_t) { return this; });
  }
  void UpdateStates(std::span<AggState* const> states,
                    std::span<const ValueColumn> args_columns,
                    std::span<const std::uint32_t> rows) override {
    AddRows(args_columns[0], rows, [&](std::size_t k) {
      return static_cast<AvgAgg*>(states[k]);
    });
  }
  void Merge(AggState& other) override {
    auto& o = static_cast<AvgAgg&>(other);
    sum_ += o.sum_;
    count_ += o.count_;
  }
  Value Finalize() const override {
    return Value(count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_));
  }
  bool SerializeTo(ByteWriter* writer) const override {
    writer->WriteDouble(sum_);
    writer->WriteI64(count_);
    return true;
  }
  bool RestoreFrom(ByteReader* reader) override {
    return reader->ReadDouble(&sum_) && reader->ReadI64(&count_) &&
           count_ >= 0;
  }

 private:
  // Adds row rows[k] of `col` to the state state_at(k), in row order.
  template <class StateAt>
  static void AddRows(const ValueColumn& col,
                      std::span<const std::uint32_t> rows,
                      const StateAt& state_at) {
    const auto add = [&](std::size_t k, double x) {
      AvgAgg* s = state_at(k);
      s->sum_ += x;
      ++s->count_;
    };
    if (col.rep() == ValueColumn::Rep::kI64) {
      const std::int64_t* v = col.i64_data();
      for (std::size_t k = 0; k < rows.size(); ++k) {
        add(k, static_cast<double>(v[rows[k]]));
      }
      return;
    }
    const double* v = col.f64_data();
    for (std::size_t k = 0; k < rows.size(); ++k) add(k, v[rows[k]]);
  }

  double sum_ = 0.0;
  std::int64_t count_ = 0;
};

/// count(distinct expr): exact distinct count over the argument's value
/// hashes (Section IV-D's undecayed special case; the decayed variant is
/// the FDDISTINCT UDAF).
class CountDistinctAgg : public AggState {
 public:
  void UpdateBatch(std::span<const ValueColumn> args_columns,
                   std::span<const std::uint32_t> rows) override {
    const ValueColumn& col = args_columns[0];
    for (std::uint32_t row : rows) seen_.insert(col[row].Hash());
  }
  void Merge(AggState& other) override {
    auto& o = static_cast<CountDistinctAgg&>(other);
    seen_.insert(o.seen_.begin(), o.seen_.end());
  }
  Value Finalize() const override {
    return Value(static_cast<std::int64_t>(seen_.size()));
  }
  bool SerializeTo(ByteWriter* writer) const override {
    // Sorted so snapshots of equal states are byte-identical.
    std::vector<std::uint64_t> hashes(seen_.begin(), seen_.end());
    std::sort(hashes.begin(), hashes.end());
    writer->WriteU64(hashes.size());
    for (std::uint64_t h : hashes) writer->WriteU64(h);
    return true;
  }
  bool RestoreFrom(ByteReader* reader) override {
    std::uint64_t n = 0;
    if (!reader->ReadU64(&n) || n > reader->Remaining() / 8) return false;
    seen_.clear();
    seen_.reserve(n);
    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      std::uint64_t h = 0;
      if (!reader->ReadU64(&h)) return false;
      if (i > 0 && h <= prev) return false;  // must be strictly ascending
      prev = h;
      seen_.insert(h);
    }
    return true;
  }

 private:
  std::unordered_set<std::uint64_t> seen_;
};

template <bool kIsMax>
class ExtremumAgg : public AggState {
 public:
  void UpdateBatch(std::span<const ValueColumn> args_columns,
                   std::span<const std::uint32_t> rows) override {
    const ValueColumn& col = args_columns[0];
    for (std::uint32_t row : rows) Offer(col[row]);
  }
  void UpdateStates(std::span<AggState* const> states,
                    std::span<const ValueColumn> args_columns,
                    std::span<const std::uint32_t> rows) override {
    const ValueColumn& col = args_columns[0];
    for (std::size_t k = 0; k < rows.size(); ++k) {
      static_cast<ExtremumAgg*>(states[k])->Offer(col[rows[k]]);
    }
  }
  void Merge(AggState& other) override {
    auto& o = static_cast<ExtremumAgg&>(other);
    if (o.has_value_) Offer(o.best_);
  }
  Value Finalize() const override { return has_value_ ? best_ : Value(); }
  bool SerializeTo(ByteWriter* writer) const override {
    writer->WriteU8(has_value_ ? 1 : 0);
    if (has_value_) best_.SerializeTo(writer);
    return true;
  }
  bool RestoreFrom(ByteReader* reader) override {
    std::uint8_t flag = 0;
    if (!reader->ReadU8(&flag) || flag > 1) return false;
    has_value_ = flag != 0;
    if (has_value_) {
      auto v = Value::Deserialize(reader);
      if (!v) return false;
      best_ = std::move(*v);
    }
    return true;
  }

 private:
  void Offer(const Value& v) {
    if (!has_value_ || (kIsMax ? Compare(v, best_) > 0
                               : Compare(v, best_) < 0)) {
      best_ = v;
    }
    has_value_ = true;
  }

  Value best_;
  bool has_value_ = false;
};

}  // namespace

void AggState::UpdateStates(std::span<AggState* const> states,
                            std::span<const ValueColumn> args_columns,
                            std::span<const std::uint32_t> rows) {
  // One UpdateBatch per run of equal consecutive states: each state
  // still sees its rows in stream order.
  std::size_t begin = 0;
  while (begin < rows.size()) {
    std::size_t end = begin + 1;
    while (end < rows.size() && states[end] == states[begin]) ++end;
    states[begin]->UpdateBatch(args_columns, rows.subspan(begin, end - begin));
    begin = end;
  }
}

bool AggState::SerializeTo(ByteWriter*) const {
  // Aggregates that predate checkpointing opt out by default; the engine
  // reports the plan as non-checkpointable instead of writing a partial
  // snapshot.
  return false;
}

bool AggState::RestoreFrom(ByteReader*) { return false; }

AggRegistry::AggRegistry() {
  Register<CountAgg>("count", {"count([value])", 0, 1, {}});
  Register<CountDistinctAgg>("count_distinct",
                             {"count(distinct value)", 1, 1, {}});
  Register<SumAgg>("sum", {"sum(value)", 1, 1, {}});
  Register<AvgAgg>("avg", {"avg(value)", 1, 1, {}});
  Register<ExtremumAgg<false>>("min", {"min(value)", 1, 1, {}});
  Register<ExtremumAgg<true>>("max", {"max(value)", 1, 1, {}});
}

AggRegistry& AggRegistry::Instance() {
  // Leaked singleton: trivially-destructible static storage per the
  // style rules on global objects.
  static AggRegistry& registry = *new AggRegistry();
  return registry;
}

void AggRegistry::RegisterKind(const std::string& name, AggKind kind) {
  const std::string key = Lower(name);
  for (auto& [existing, k] : entries_) {
    if (existing == key) {
      k = kind;
      return;
    }
  }
  entries_.emplace_back(key, kind);
}

bool AggRegistry::Contains(const std::string& name) const {
  const std::string key = Lower(name);
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const auto& e) { return e.first == key; });
}

const AggKind& AggRegistry::Kind(const std::string& name) const {
  const std::string key = Lower(name);
  for (const auto& [existing, kind] : entries_) {
    if (existing == key) return kind;
  }
  FWDECAY_CHECK_MSG(false, "unknown aggregate function");
  return entries_.front().second;
}

std::unique_ptr<AggState> AggRegistry::Create(const std::string& name) const {
  return Kind(name).create();
}

std::vector<std::string> AggRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, kind] : entries_) names.push_back(name);
  return names;
}

void AggStateLayout::Append(const AggKind& kind) {
  const std::size_t offset = (size_ + kind.align - 1) & ~(kind.align - 1);
  kinds_.push_back(kind);
  offsets_.push_back(offset);
  size_ = offset + kind.size;
  align_ = std::max(align_, kind.align);
}

void AggStateLayout::Construct(std::byte* block) const {
  for (std::size_t slot = 0; slot < kinds_.size(); ++slot) {
    AggState* state = kinds_[slot].construct(block + offsets_[slot]);
    // State() reads the AggState base at the slot's address: single
    // inheritance from the polymorphic base puts it there.
    FWDECAY_CHECK_MSG(static_cast<void*>(state) == block + offsets_[slot],
                      "aggregate state base is not at the slot address");
  }
}

void AggStateLayout::Destroy(std::byte* block) const {
  for (std::size_t slot = 0; slot < kinds_.size(); ++slot) {
    State(block, slot)->~AggState();
  }
}

}  // namespace fwdecay::dsms
