#ifndef FWDECAY_DSMS_COLUMN_H_
#define FWDECAY_DSMS_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dsms/value.h"
#include "util/check.h"
#include "util/hash.h"

// Typed evaluation column for the batched ingest path (DESIGN.md §13.2).
//
// A ValueColumn stores one evaluated expression over a batch's selected
// rows. Packet fields and arithmetic over them are int64 or double for
// every row of a batch, so the column holds a flat typed vector the SIMD
// kernels (util/simd.h) can read and write directly; the boxed
// representation exists for string literals and mixed-type columns and
// falls back to the exact per-row Value semantics. Appending a value
// whose type disagrees with the column's current representation boxes
// the whole column — types are never coerced, so `is_int()`, hash seeds,
// and SumAgg's integer-exactness tracking observe the same Value types
// the per-tuple path produces.

namespace fwdecay::dsms {

/// Value equality of an int64 against a Value (int/int exact, string
/// false, otherwise compared as doubles): Value(x) == v without boxing x.
inline bool I64EqualsValue(std::int64_t x, const Value& v) {
  if (v.is_int()) return x == v.AsInt();
  return !v.is_string() && static_cast<double>(x) == v.AsDouble();
}

class ValueColumn {
 public:
  enum class Rep : std::uint8_t { kI64, kF64, kBoxed };

  /// Lightweight row proxy: reads typed storage in place, converts to a
  /// Value only on demand. Mirrors the Value accessor contract (AsInt on
  /// a double row truncates; AsString CHECK-fails off strings).
  class RowRef {
   public:
    RowRef(const ValueColumn* col, std::size_t row) : col_(col), row_(row) {}

    bool is_int() const {
      switch (col_->rep_) {
        case Rep::kI64: return true;
        case Rep::kF64: return false;
        case Rep::kBoxed: return col_->boxed_[row_].is_int();
      }
      return false;
    }
    bool is_double() const {
      switch (col_->rep_) {
        case Rep::kI64: return false;
        case Rep::kF64: return true;
        case Rep::kBoxed: return col_->boxed_[row_].is_double();
      }
      return false;
    }
    bool is_string() const {
      return col_->rep_ == Rep::kBoxed && col_->boxed_[row_].is_string();
    }

    std::int64_t AsInt() const {
      switch (col_->rep_) {
        case Rep::kI64: return col_->i64_[row_];
        case Rep::kF64: return static_cast<std::int64_t>(col_->f64_[row_]);
        case Rep::kBoxed: return col_->boxed_[row_].AsInt();
      }
      return 0;
    }
    double AsDouble() const {
      switch (col_->rep_) {
        case Rep::kI64: return static_cast<double>(col_->i64_[row_]);
        case Rep::kF64: return col_->f64_[row_];
        case Rep::kBoxed: return col_->boxed_[row_].AsDouble();
      }
      return 0.0;
    }
    const std::string& AsString() const {
      FWDECAY_CHECK_MSG(col_->rep_ == Rep::kBoxed,
                        "typed column row used as string");
      return col_->boxed_[row_].AsString();
    }

    /// Identical to Value::Hash() on the equivalent Value (same seeds).
    std::uint64_t Hash() const {
      switch (col_->rep_) {
        case Rep::kI64:
          return HashU64(static_cast<std::uint64_t>(col_->i64_[row_]), 1);
        case Rep::kF64: {
          const double d = col_->f64_[row_];
          std::uint64_t bits;
          __builtin_memcpy(&bits, &d, sizeof(bits));
          return HashU64(bits, 2);
        }
        case Rep::kBoxed: return col_->boxed_[row_].Hash();
      }
      return 0;
    }

    operator Value() const {  // NOLINT(google-explicit-constructor)
      switch (col_->rep_) {
        case Rep::kI64: return Value(col_->i64_[row_]);
        case Rep::kF64: return Value(col_->f64_[row_]);
        case Rep::kBoxed: return col_->boxed_[row_];
      }
      return Value();
    }

    /// Equality with Value semantics (int/int exact, string vs
    /// non-string false, otherwise compared as doubles) without
    /// materializing Values for typed rows.
    friend bool operator==(const RowRef& a, const RowRef& b) {
      // Hidden friends see RowRef's privates but not ValueColumn's, so
      // this goes through the column's public typed accessors.
      if (a.col_->rep() != Rep::kBoxed && b.col_->rep() != Rep::kBoxed) {
        if (a.col_->rep() == Rep::kI64 && b.col_->rep() == Rep::kI64) {
          return a.col_->i64_data()[a.row_] == b.col_->i64_data()[b.row_];
        }
        return a.AsDouble() == b.AsDouble();
      }
      if (a.col_->rep() == Rep::kBoxed) {
        return b == a.col_->boxed_at(a.row_);
      }
      return a == b.col_->boxed_at(b.row_);
    }

    friend bool operator==(const RowRef& a, const Value& v) {
      switch (a.col_->rep()) {
        case Rep::kI64:
          return I64EqualsValue(a.col_->i64_data()[a.row_], v);
        case Rep::kF64:
          if (v.is_string()) return false;
          return a.col_->f64_data()[a.row_] == v.AsDouble();
        case Rep::kBoxed:
          return a.col_->boxed_at(a.row_) == v;
      }
      return false;
    }
    friend bool operator==(const Value& v, const RowRef& a) { return a == v; }

   private:
    const ValueColumn* col_;
    std::size_t row_;
  };

  ValueColumn() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Rep rep() const { return rep_; }

  RowRef operator[](std::size_t row) const { return RowRef(this, row); }

  /// Drops all rows but keeps every buffer's capacity (the scratch pools
  /// in BatchEvalScratch recycle columns across batches).
  void clear() {
    i64_.clear();
    f64_.clear();
    boxed_.clear();
    size_ = 0;
    rep_ = Rep::kI64;
  }

  void reserve(std::size_t n) {
    switch (rep_) {
      case Rep::kI64: i64_.reserve(n); break;
      case Rep::kF64: f64_.reserve(n); break;
      case Rep::kBoxed: boxed_.reserve(n); break;
    }
  }

  /// Appends one Value, preserving its exact type. A type that disagrees
  /// with the current representation boxes the whole column.
  void AppendValue(const Value& v) {
    switch (rep_) {
      case Rep::kI64:
        if (v.is_int()) {
          i64_.push_back(v.AsInt());
          ++size_;
          return;
        }
        if (v.is_double() && size_ == 0) {
          rep_ = Rep::kF64;
          f64_.push_back(v.AsDouble());
          ++size_;
          return;
        }
        break;
      case Rep::kF64:
        if (v.is_double()) {
          f64_.push_back(v.AsDouble());
          ++size_;
          return;
        }
        break;
      case Rep::kBoxed:
        boxed_.push_back(v);
        ++size_;
        return;
    }
    Box();
    boxed_.push_back(v);
    ++size_;
  }
  void push_back(const Value& v) { AppendValue(v); }

  // --- Typed bulk access for the SIMD kernels ------------------------------

  /// Appends `n` uninitialized int64 rows and returns a pointer to the
  /// first; the column must be empty or already kI64.
  std::int64_t* AppendI64(std::size_t n) {
    FWDECAY_CHECK_MSG(rep_ == Rep::kI64, "AppendI64 on non-i64 column");
    const std::size_t at = size_;
    i64_.resize(at + n);
    size_ += n;
    return i64_.data() + at;
  }

  /// Appends `n` uninitialized double rows; the column must be empty or
  /// already kF64 (an empty kI64 column switches representation).
  double* AppendF64(std::size_t n) {
    if (rep_ == Rep::kI64 && size_ == 0) rep_ = Rep::kF64;
    FWDECAY_CHECK_MSG(rep_ == Rep::kF64, "AppendF64 on non-f64 column");
    const std::size_t at = size_;
    f64_.resize(at + n);
    size_ += n;
    return f64_.data() + at;
  }

  const std::int64_t* i64_data() const { return i64_.data(); }
  const double* f64_data() const { return f64_.data(); }
  const Value& boxed_at(std::size_t row) const { return boxed_[row]; }

 private:
  // Rebox every row into boxed_ (cold: only mixed-type columns hit it).
  void Box() {
    boxed_.reserve(size_ > boxed_.capacity() ? size_ : boxed_.capacity());
    if (rep_ == Rep::kI64) {
      for (std::size_t i = 0; i < size_; ++i) {
        boxed_.emplace_back(i64_[i]);
      }
      i64_.clear();
    } else {
      for (std::size_t i = 0; i < size_; ++i) {
        boxed_.emplace_back(f64_[i]);
      }
      f64_.clear();
    }
    rep_ = Rep::kBoxed;
  }

  Rep rep_ = Rep::kI64;
  std::size_t size_ = 0;
  std::vector<std::int64_t> i64_;
  std::vector<double> f64_;
  std::vector<Value> boxed_;
};

}  // namespace fwdecay::dsms

#endif  // FWDECAY_DSMS_COLUMN_H_
