#ifndef FWDECAY_DSMS_COLUMN_H_
#define FWDECAY_DSMS_COLUMN_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "dsms/value.h"
#include "util/check.h"
#include "util/hash.h"
#include "util/int_div.h"

// Typed evaluation column for the batched ingest path (DESIGN.md §13.2).
//
// A ValueColumn stores one evaluated expression over a batch's selected
// rows. CompiledQuery::Compile gives every row expression a static type,
// int64 or double (no string reaches the row path), so a column is one
// flat typed vector the SIMD kernels (util/simd.h) read and write
// directly. Rows convert to Values only on demand, with the type the
// per-tuple evaluator produces, so `is_int()`, hash seeds and SumAgg's
// integer-exactness observe exactly the per-tuple Value types.
//
// A GROUP BY column is read as 8-byte key words (word(), words()): the
// int64 value, or the double's bit pattern. The engine stores, hashes,
// compares and orders group keys as those words and builds Values from
// them only where a key leaves the engine (DESIGN.md §13.1).

namespace fwdecay::dsms {

class ValueColumn {
 public:
  enum class Rep : std::uint8_t { kI64, kF64 };

  /// Lightweight row proxy: reads typed storage in place, converts to a
  /// Value only on demand. Mirrors the Value accessor contract (AsInt on
  /// a double row truncates and saturates, as Value::AsInt does).
  class RowRef {
   public:
    RowRef(const ValueColumn* col, std::size_t row) : col_(col), row_(row) {}

    bool is_int() const { return col_->rep_ == Rep::kI64; }
    bool is_double() const { return col_->rep_ == Rep::kF64; }

    std::int64_t AsInt() const {
      return is_int() ? col_->i64_[row_] : SaturatingI64(col_->f64_[row_]);
    }
    double AsDouble() const {
      return is_int() ? static_cast<double>(col_->i64_[row_])
                      : col_->f64_[row_];
    }

    /// Identical to Value::Hash() on the equivalent Value (same seeds).
    std::uint64_t Hash() const {
      return HashU64(col_->word(row_), is_int() ? 1 : 2);
    }

    operator Value() const {  // NOLINT(google-explicit-constructor)
      return is_int() ? Value(col_->i64_[row_]) : Value(col_->f64_[row_]);
    }

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
    size_ = 0;
    rep_ = Rep::kI64;
  }

  void reserve(std::size_t n) {
    if (rep_ == Rep::kI64) {
      i64_.reserve(n);
    } else {
      f64_.reserve(n);
    }
  }

  /// Appends one numeric Value in the column's type (an empty column
  /// takes the Value's type); CHECK-fails on a string or a mixed type.
  void push_back(const Value& v) {
    if (v.is_int()) {
      *AppendI64(1) = v.AsInt();
    } else {
      *AppendF64(1) = v.AsDouble();
    }
  }

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

  /// Row `row` as a group-key word: the int64 value, or the double's
  /// bit pattern.
  std::uint64_t word(std::size_t row) const {
    return rep_ == Rep::kI64 ? static_cast<std::uint64_t>(i64_[row])
                             : std::bit_cast<std::uint64_t>(f64_[row]);
  }

  /// Every row's key word, contiguous (simd::GroupHashI64's input).
  const void* words() const {
    return rep_ == Rep::kI64 ? static_cast<const void*>(i64_.data())
                             : static_cast<const void*>(f64_.data());
  }

 private:
  Rep rep_ = Rep::kI64;
  std::size_t size_ = 0;
  std::vector<std::int64_t> i64_;
  std::vector<double> f64_;
};

/// A key word's *order word* (DESIGN.md §13.1): unsigned < over order
/// words is the group-key order. An int64 word gets its sign bit flipped,
/// so unsigned < is signed <. A double's bit pattern becomes ~w when its
/// sign is set and w ^ 2^63 otherwise, so unsigned < is IEEE totalOrder
/// (std::strong_order): -NaN < -inf < ... < -0.0 < +0.0 < ... < +inf <
/// +NaN, NaN payloads included. The map is a bijection, so equal order
/// words are equal keys.
inline std::uint64_t OrderWord(ValueColumn::Rep rep, std::uint64_t word) {
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  if (rep == ValueColumn::Rep::kI64) return word ^ kSign;
  return (word & kSign) != 0 ? ~word : word ^ kSign;
}

}  // namespace fwdecay::dsms

#endif  // FWDECAY_DSMS_COLUMN_H_
