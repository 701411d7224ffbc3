#ifndef FWDECAY_UTIL_INT_DIV_H_
#define FWDECAY_UTIL_INT_DIV_H_

#include <cstdint>

#include "util/check.h"

// Signed int64 division by a divisor fixed before the loop, as a
// multiply-high plus shift instead of an idiv per element (Hacker's
// Delight, 2nd ed., §10-4/§10-5 and Figure 10-1, widened to 64 bits).
// The batched evaluator uses it for `x / c` and `x % c` with an integer
// literal c — `time / 60` and `time % 60` in every paper query — checking
// the divisor once per batch instead of once per row.
//
// Div(n) == n / d and Mod(n) == n % d (C++ truncating semantics) for
// every int64 n. Divisors ±1 and INT64_MIN have no magic number in this
// scheme and keep the native operators, so INT64_MIN / -1 behaves
// exactly as the native expression does. There is no AVX2 64x64->128
// multiply, so this stays a scalar helper.

namespace fwdecay {

class ConstDivisorI64 {
 public:
  explicit ConstDivisorI64(std::int64_t d) : d_(d) {
    FWDECAY_CHECK_MSG(d != 0, "integer division by zero");
    plain_ = d == 1 || d == -1 || d == INT64_MIN;
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
    if (plain_) return n / d_;
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
    if (plain_) return n % d_;
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
