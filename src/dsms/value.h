#ifndef FWDECAY_DSMS_VALUE_H_
#define FWDECAY_DSMS_VALUE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <variant>

#include "util/bytes.h"

namespace fwdecay::dsms {

/// Runtime value in the GSQL engine: 64-bit integer, double, or string.
///
/// Integer arithmetic stays in integers (so `time/60` is the paper's
/// time-bucket truncation and `time % 60` its in-bucket offset) and is
/// total (util/int_div.h: wrapping + - *, x / 0 == 0, x % 0 == x);
/// mixing an integer with a double promotes to double. AsInt() of a
/// double truncates and saturates (SaturatingI64). Strings exist only
/// as finalized aggregate results: GSQL expressions have no string
/// operands (CompiledQuery::Compile rejects them).
class Value {
 public:
  Value() : v_(std::int64_t{0}) {}
  explicit Value(std::int64_t i) : v_(i) {}
  explicit Value(double d) : v_(d) {}
  explicit Value(std::string s) : v_(std::move(s)) {}

  bool is_int() const { return std::holds_alternative<std::int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }

  std::int64_t AsInt() const;
  double AsDouble() const;
  const std::string& AsString() const;

  /// Human-readable rendering (integers without decimals).
  std::string ToString() const;

  /// Hash for group-by keys.
  std::uint64_t Hash() const;

  /// Serializes as a tagged frame (0 = int, 1 = double, 2 = string).
  void SerializeTo(ByteWriter* writer) const;

  /// Reconstructs a value; nullopt on truncated/corrupt input.
  static std::optional<Value> Deserialize(ByteReader* reader);

  friend bool operator==(const Value& a, const Value& b);

  // Total arithmetic with int/double promotion; CHECK-fails on strings.
  friend Value operator+(const Value& a, const Value& b);
  friend Value operator-(const Value& a, const Value& b);
  friend Value operator*(const Value& a, const Value& b);
  friend Value operator/(const Value& a, const Value& b);
  friend Value operator%(const Value& a, const Value& b);

  // Ordering comparison: -1, 0, +1. Strings compare lexicographically;
  // numerics numerically.
  friend int Compare(const Value& a, const Value& b);

 private:
  std::variant<std::int64_t, double, std::string> v_;
};

/// Namespace-scope declaration so Compare can be named with
/// qualification (the in-class friend is otherwise ADL-only).
int Compare(const Value& a, const Value& b);

}  // namespace fwdecay::dsms

#endif  // FWDECAY_DSMS_VALUE_H_
