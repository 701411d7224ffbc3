#ifndef FWDECAY_UTIL_HASH_H_
#define FWDECAY_UTIL_HASH_H_

#include <cstdint>
#include <string_view>

// 64-bit hashing utilities shared by the sketches (SpaceSaving, KMV,
// dominance-norm) and the DSMS group-by hash tables. All are deterministic
// across runs and platforms; sketches that need independent hash functions
// mix in a per-instance seed.

namespace fwdecay {

// Mix64, HashU64 and HashCombine are always_inline: the AVX2 arms of the
// SIMD hash kernels compile them in, and must never call out to baseline
// code (DESIGN.md §13.4; scripts/analyze.py rule avx2-call).

/// Strong 64-bit finalizer (the SplitMix64 / Murmur3 fmix64 family).
/// Bijective, so distinct inputs stay distinct.
[[gnu::always_inline]] inline std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Hashes a 64-bit key under a 64-bit seed; different seeds give
/// effectively independent hash functions.
[[gnu::always_inline]] inline std::uint64_t HashU64(std::uint64_t key,
                                                 std::uint64_t seed = 0) {
  return Mix64(key ^ (seed * 0xff51afd7ed558ccdULL + 0xc4ceb9fe1a85ec53ULL));
}

/// Combines two hashes (order-sensitive), boost::hash_combine style but
/// with a 64-bit constant and a final mix.
[[gnu::always_inline]] inline std::uint64_t HashCombine(std::uint64_t h,
                                                     std::uint64_t v) {
  h ^= Mix64(v) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

/// FNV-1a over raw bytes; adequate for short group-by keys and strings.
inline std::uint64_t HashBytes(const void* data, std::size_t len,
                               std::uint64_t seed = 0) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ULL ^ Mix64(seed);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return Mix64(h);
}

/// Hashes a string view.
inline std::uint64_t HashString(std::string_view s, std::uint64_t seed = 0) {
  return HashBytes(s.data(), s.size(), seed);
}

/// Maps a 64-bit hash to a double uniform in (0, 1]. Used by sketches
/// (e.g. KMV) that need a hash interpreted as a uniform draw.
inline double HashToUnitOpen(std::uint64_t h) {
  return (static_cast<double>(h >> 11) + 1.0) * 0x1.0p-53;
}

}  // namespace fwdecay

#endif  // FWDECAY_UTIL_HASH_H_
