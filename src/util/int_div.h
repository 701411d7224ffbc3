#ifndef FWDECAY_UTIL_INT_DIV_H_
#define FWDECAY_UTIL_INT_DIV_H_

#include <cmath>
#include <cstdint>
#include <limits>

// Total int64 arithmetic for GSQL (DESIGN.md §13.2). Every integer
// operator the engine evaluates — the Value operators behind
// post-aggregation and per-tuple evaluation, the batched loops, the
// scalar SIMD arms and ConstDivisorI64 — is defined here, once, and
// none of them can trap or hit undefined behaviour:
//
//   +, -, *, negation   wrap in two's complement;
//   x / 0 == 0          x % 0 == x;
//   INT64_MIN / -1 == INT64_MIN, INT64_MIN % -1 == 0.
//
// So (x / y) * y + x % y == x holds for every pair (with wrapping *).
// SaturatingI64 is the one double -> int64 conversion.
//
// ConstDivisorI64 divides by a divisor fixed before the loop, as a
// multiply-high plus shift instead of an idiv per element (Hacker's
// Delight, 2nd ed., §10-4/§10-5 and Figure 10-1, widened to 64 bits).
// The batched evaluator uses it for `x / c` and `x % c` with an integer
// literal c — `time / 60` and `time % 60` in every paper query.
// Div(n) == DivI64(n, d) and Mod(n) == ModI64(n, d) for every int64 n.
// Divisors 0, ±1 and INT64_MIN have no magic number in this scheme and
// take DivI64/ModI64. There is no AVX2 64x64->128 multiply, so this
// stays a scalar helper.

namespace fwdecay {

inline std::int64_t WrapAdd(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

inline std::int64_t WrapSub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}

inline std::int64_t WrapMul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}

inline std::int64_t DivI64(std::int64_t a, std::int64_t b) {
  if (b == 0) return 0;
  if (b == -1) return WrapSub(0, a);
  return a / b;
}

inline std::int64_t ModI64(std::int64_t a, std::int64_t b) {
  if (b == 0) return a;
  if (b == -1) return 0;
  return a % b;
}

// Truncates toward zero, saturating where the plain conversion would be
// undefined: NaN -> 0, below -2^63 (or -inf) -> INT64_MIN, at or above
// 2^63 (or +inf) -> INT64_MAX. floor(), the time column, Value::AsInt
// and typed column rows all convert through here.
inline std::int64_t SaturatingI64(double y) {
  constexpr double kTwo63 = 9223372036854775808.0;  // 2^63, exact
  if (std::isnan(y)) return 0;
  if (y < -kTwo63) return std::numeric_limits<std::int64_t>::min();
  if (y >= kTwo63) return std::numeric_limits<std::int64_t>::max();
  return static_cast<std::int64_t>(y);
}

class ConstDivisorI64 {
 public:
  explicit ConstDivisorI64(std::int64_t d) : d_(d) {
    plain_ = d == 0 || d == 1 || d == -1 || d == INT64_MIN;
    if (plain_) return;
    // Smallest p >= 64 with 2^p > nc * (|d| - 2^p mod |d|), where nc is
    // the largest value with rem(nc, |d|) == |d| - 1; the magic number
    // is then ceil(2^p / |d|), negated for d < 0.
    const std::uint64_t two63 = std::uint64_t{1} << 63;
    const std::uint64_t ad =
        d < 0 ? std::uint64_t{0} - static_cast<std::uint64_t>(d)
              : static_cast<std::uint64_t>(d);
    const std::uint64_t t = two63 + (static_cast<std::uint64_t>(d) >> 63);
    const std::uint64_t anc = t - 1 - t % ad;  // |nc|
    int p = 63;
    std::uint64_t q1 = two63 / anc;  // 2^p / |nc|
    std::uint64_t r1 = two63 - q1 * anc;
    std::uint64_t q2 = two63 / ad;  // 2^p / |d|
    std::uint64_t r2 = two63 - q2 * ad;
    std::uint64_t delta = 0;
    do {
      ++p;
      q1 *= 2;
      r1 *= 2;
      if (r1 >= anc) {
        ++q1;
        r1 -= anc;
      }
      q2 *= 2;
      r2 *= 2;
      if (r2 >= ad) {
        ++q2;
        r2 -= ad;
      }
      delta = ad - r2;
    } while (q1 < delta || (q1 == delta && r1 == 0));
    const std::uint64_t magic = q2 + 1;
    magic_ = static_cast<std::int64_t>(d < 0 ? std::uint64_t{0} - magic
                                             : magic);
    shift_ = p - 64;
  }

  std::int64_t Div(std::int64_t n) const {
    if (plain_) return DivI64(n, d_);
    // High word of the signed 128-bit product, corrected for a magic
    // number whose sign differs from the divisor's (the true multiplier
    // is magic_ ± 2^64). Unsigned adds: the corrected value fits, the
    // wrap is only in the intermediate.
    const auto hi = static_cast<std::int64_t>(
        (static_cast<__int128>(magic_) * n) >> 64);
    std::uint64_t q = static_cast<std::uint64_t>(hi);
    if (d_ > 0 && magic_ < 0) q += static_cast<std::uint64_t>(n);
    if (d_ < 0 && magic_ > 0) q -= static_cast<std::uint64_t>(n);
    const std::int64_t s = static_cast<std::int64_t>(q) >> shift_;
    // Truncate toward zero: the shifted estimate is one low when negative.
    return s + static_cast<std::int64_t>(static_cast<std::uint64_t>(s) >> 63);
  }

  std::int64_t Mod(std::int64_t n) const {
    if (plain_) return ModI64(n, d_);
    return n - Div(n) * d_;  // |Div(n) * d| <= |n|: no overflow
  }

 private:
  std::int64_t d_;
  std::int64_t magic_ = 0;
  int shift_ = 0;
  bool plain_ = false;
};

}  // namespace fwdecay

#endif  // FWDECAY_UTIL_INT_DIV_H_
