#include "dsms/value.h"

#include <cmath>
#include <cstdio>

#include "util/check.h"
#include "util/hash.h"
#include "util/int_div.h"

namespace fwdecay::dsms {

std::int64_t Value::AsInt() const {
  if (is_int()) return std::get<std::int64_t>(v_);
  if (is_double()) return SaturatingI64(std::get<double>(v_));
  FWDECAY_CHECK_MSG(false, "string value used as integer");
  return 0;
}

double Value::AsDouble() const {
  if (is_double()) return std::get<double>(v_);
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(v_));
  FWDECAY_CHECK_MSG(false, "string value used as double");
  return 0.0;
}

const std::string& Value::AsString() const {
  FWDECAY_CHECK_MSG(is_string(), "non-string value used as string");
  return std::get<std::string>(v_);
}

std::string Value::ToString() const {
  if (is_string()) return std::get<std::string>(v_);
  char buf[64];
  if (is_int()) {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(std::get<std::int64_t>(v_)));
  } else {
    std::snprintf(buf, sizeof(buf), "%g", std::get<double>(v_));
  }
  return buf;
}

std::uint64_t Value::Hash() const {
  if (is_int()) {
    return HashU64(static_cast<std::uint64_t>(std::get<std::int64_t>(v_)), 1);
  }
  if (is_double()) {
    const double d = std::get<double>(v_);
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    __builtin_memcpy(&bits, &d, sizeof(bits));
    return HashU64(bits, 2);
  }
  return HashString(std::get<std::string>(v_), 3);
}

void Value::SerializeTo(ByteWriter* writer) const {
  if (is_int()) {
    writer->WriteU8(0);
    writer->WriteI64(std::get<std::int64_t>(v_));
  } else if (is_double()) {
    writer->WriteU8(1);
    writer->WriteDouble(std::get<double>(v_));
  } else {
    writer->WriteU8(2);
    writer->WriteString(std::get<std::string>(v_));
  }
}

std::optional<Value> Value::Deserialize(ByteReader* reader) {
  // In-place construction (no Value temporary moved into the optional):
  // GCC 12 flags the variant move with a spurious -Wmaybe-uninitialized
  // under sanitizer instrumentation.
  std::uint8_t tag = 0;
  if (!reader->ReadU8(&tag)) return std::nullopt;
  switch (tag) {
    case 0: {
      std::int64_t i = 0;
      if (!reader->ReadI64(&i)) return std::nullopt;
      return std::optional<Value>(std::in_place, i);
    }
    case 1: {
      double d = 0.0;
      if (!reader->ReadDouble(&d)) return std::nullopt;
      return std::optional<Value>(std::in_place, d);
    }
    case 2: {
      std::string s;
      if (!reader->ReadString(&s)) return std::nullopt;
      return std::optional<Value>(std::in_place, std::move(s));
    }
    default:
      return std::nullopt;
  }
}

bool operator==(const Value& a, const Value& b) {
  if (a.is_string() || b.is_string()) {
    return a.is_string() && b.is_string() && a.AsString() == b.AsString();
  }
  if (a.is_int() && b.is_int()) return a.AsInt() == b.AsInt();
  return a.AsDouble() == b.AsDouble();
}

namespace {

// Applies an arithmetic op with integer/double promotion.
template <typename IntOp, typename DblOp>
Value Arith(const Value& a, const Value& b, IntOp iop, DblOp dop) {
  FWDECAY_CHECK_MSG(!a.is_string() && !b.is_string(),
                    "arithmetic on string value");
  if (a.is_int() && b.is_int()) return Value(iop(a.AsInt(), b.AsInt()));
  return Value(dop(a.AsDouble(), b.AsDouble()));
}

}  // namespace

Value operator+(const Value& a, const Value& b) {
  return Arith(a, b, WrapAdd, [](double x, double y) { return x + y; });
}

Value operator-(const Value& a, const Value& b) {
  return Arith(a, b, WrapSub, [](double x, double y) { return x - y; });
}

Value operator*(const Value& a, const Value& b) {
  return Arith(a, b, WrapMul, [](double x, double y) { return x * y; });
}

Value operator/(const Value& a, const Value& b) {
  return Arith(a, b, DivI64, [](double x, double y) { return x / y; });
}

Value operator%(const Value& a, const Value& b) {
  return Arith(a, b, ModI64,
               [](double x, double y) { return std::fmod(x, y); });
}

int Compare(const Value& a, const Value& b) {
  if (a.is_string() || b.is_string()) {
    FWDECAY_CHECK_MSG(a.is_string() && b.is_string(),
                      "comparing string with non-string");
    return a.AsString().compare(b.AsString());
  }
  if (a.is_int() && b.is_int()) {
    const std::int64_t x = a.AsInt();
    const std::int64_t y = b.AsInt();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  const double x = a.AsDouble();
  const double y = b.AsDouble();
  return x < y ? -1 : (x > y ? 1 : 0);
}

}  // namespace fwdecay::dsms
