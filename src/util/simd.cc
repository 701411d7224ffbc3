#include "util/simd.h"

#include <cstdlib>
#include <cstring>

#include "util/hash.h"
#include "util/int_div.h"

#if defined(__x86_64__)
#define FWDECAY_SIMD_X86 1
#endif

namespace fwdecay::simd {

namespace {

struct DispatchState {
  Arch arch = Arch::kScalar;
  bool forced = false;
};

// Resolved once at static initialization — the only place the dispatch
// layer touches the environment, so the ingest hot path itself stays
// syscall-free (scripts/analyze.py rule hotpath-purity).
DispatchState Detect() {
  DispatchState s;
  const char* env = std::getenv("FWDECAY_FORCE_SCALAR");
  s.forced = env != nullptr && env[0] != '\0' &&
             !(env[0] == '0' && env[1] == '\0');
  if (s.forced) return s;
#if defined(FWDECAY_SIMD_X86)
  if (__builtin_cpu_supports("avx2")) s.arch = Arch::kAvx2;
#endif
  return s;
}

const DispatchState g_dispatch = Detect();

}  // namespace

Arch ActiveArch() { return g_dispatch.arch; }

const char* ActiveArchName() {
  switch (g_dispatch.arch) {
    case Arch::kAvx2: return "avx2";
    case Arch::kScalar: return "scalar";
  }
  return "scalar";
}

bool ForcedScalar() { return g_dispatch.forced; }

// ---------------------------------------------------------------------------
// Kernel bodies. A loop the compiler vectorizes on its own has exactly one
// body, forced inline into both its scalar arm (baseline ISA) and its AVX2
// arm (target("avx2")): the compiler builds both arms from the same loop,
// so they cannot drift apart. Every loop is one operation per element
// with no reassociation, so any vectorization of it matches the scalar
// order lane for lane.
// ---------------------------------------------------------------------------

namespace {

// Key word i. Key columns hold int64 values or double bit patterns, so
// the kernels read words through memcpy, never through a typed pointer.
[[gnu::always_inline]] inline std::uint64_t WordAt(const void* words,
                                                std::size_t i) {
  std::uint64_t w;
  std::memcpy(&w, static_cast<const unsigned char*>(words) + i * sizeof(w),
              sizeof(w));
  return w;
}

[[gnu::always_inline]] inline void GroupHashI64Body(
    const void* words, std::size_t n, std::uint64_t value_seed,
    std::uint64_t seed, std::uint64_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = HashCombine(seed, HashU64(WordAt(words, i), value_seed));
  }
}

[[gnu::always_inline]] inline void GroupHashCombineI64Body(
    const void* words, std::size_t n, std::uint64_t value_seed,
    std::uint64_t* inout) {
  for (std::size_t i = 0; i < n; ++i) {
    inout[i] = HashCombine(inout[i], HashU64(WordAt(words, i), value_seed));
  }
}

[[gnu::always_inline]] inline void ShardIndexU64Body(
    const std::uint64_t* hashes, std::size_t n, std::uint64_t seed,
    std::uint32_t num_shards, std::uint32_t* out) {
  // A power-of-two count reduces with a mask (h & (count - 1) == h % count),
  // which vectorizes; any other count keeps the 64-bit modulo, which has
  // no vector instruction.
  if ((num_shards & (num_shards - 1)) == 0) {
    const std::uint64_t mask = num_shards - 1;
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<std::uint32_t>(HashU64(hashes[i], seed) & mask);
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint32_t>(HashU64(hashes[i], seed) % num_shards);
  }
}

[[gnu::always_inline]] inline void CmpF64Body(CmpOp op, const double* a,
                                              const double* b, std::size_t n,
                                              std::int64_t* out01) {
  // Exactly dsms::Compare's double branch: ordered < and >, so kLe/kGe
  // are the *negated* strict compares (a NaN operand makes Compare
  // return 0, which satisfies <= and >=).
  switch (op) {
    case CmpOp::kEq:
      for (std::size_t i = 0; i < n; ++i) out01[i] = a[i] == b[i] ? 1 : 0;
      return;
    case CmpOp::kNe:
      for (std::size_t i = 0; i < n; ++i) out01[i] = a[i] == b[i] ? 0 : 1;
      return;
    case CmpOp::kLt:
      for (std::size_t i = 0; i < n; ++i) out01[i] = a[i] < b[i] ? 1 : 0;
      return;
    case CmpOp::kLe:
      for (std::size_t i = 0; i < n; ++i) out01[i] = a[i] > b[i] ? 0 : 1;
      return;
    case CmpOp::kGt:
      for (std::size_t i = 0; i < n; ++i) out01[i] = a[i] > b[i] ? 1 : 0;
      return;
    case CmpOp::kGe:
      for (std::size_t i = 0; i < n; ++i) out01[i] = a[i] < b[i] ? 0 : 1;
      return;
  }
}

[[gnu::always_inline]] inline void CmpI64Body(CmpOp op, const std::int64_t* a,
                                              const std::int64_t* b,
                                              std::size_t n,
                                              std::int64_t* out01) {
  switch (op) {
    case CmpOp::kEq:
      for (std::size_t i = 0; i < n; ++i) out01[i] = a[i] == b[i] ? 1 : 0;
      return;
    case CmpOp::kNe:
      for (std::size_t i = 0; i < n; ++i) out01[i] = a[i] != b[i] ? 1 : 0;
      return;
    case CmpOp::kLt:
      for (std::size_t i = 0; i < n; ++i) out01[i] = a[i] < b[i] ? 1 : 0;
      return;
    case CmpOp::kLe:
      for (std::size_t i = 0; i < n; ++i) out01[i] = a[i] <= b[i] ? 1 : 0;
      return;
    case CmpOp::kGt:
      for (std::size_t i = 0; i < n; ++i) out01[i] = a[i] > b[i] ? 1 : 0;
      return;
    case CmpOp::kGe:
      for (std::size_t i = 0; i < n; ++i) out01[i] = a[i] >= b[i] ? 1 : 0;
      return;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Scalar arms — the oracle, compiled for the baseline ISA. The elementwise
// arithmetic loops already compile to packed SSE2 there, so they have no
// AVX2 arm.
// ---------------------------------------------------------------------------

namespace scalar {

std::size_t FilterByteEq(const std::uint8_t* bytes, std::uint8_t target,
                         std::size_t n, std::uint32_t* out_sel) {
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (bytes[i] == target) out_sel[k++] = static_cast<std::uint32_t>(i);
  }
  return k;
}

void GroupHashI64(const void* words, std::size_t n, std::uint64_t value_seed,
                  std::uint64_t seed, std::uint64_t* out) {
  GroupHashI64Body(words, n, value_seed, seed, out);
}

void GroupHashCombineI64(const void* words, std::size_t n,
                         std::uint64_t value_seed, std::uint64_t* inout) {
  GroupHashCombineI64Body(words, n, value_seed, inout);
}

void ShardIndexU64(const std::uint64_t* hashes, std::size_t n,
                   std::uint64_t seed, std::uint32_t num_shards,
                   std::uint32_t* out) {
  ShardIndexU64Body(hashes, n, seed, num_shards, out);
}

void AddF64(const double* a, const double* b, std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}
void SubF64(const double* a, const double* b, std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}
void MulF64(const double* a, const double* b, std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}
void DivF64(const double* a, const double* b, std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] / b[i];
}
void AddI64(const std::int64_t* a, const std::int64_t* b, std::size_t n,
            std::int64_t* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = WrapAdd(a[i], b[i]);
}
void SubI64(const std::int64_t* a, const std::int64_t* b, std::size_t n,
            std::int64_t* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = WrapSub(a[i], b[i]);
}

void CmpF64(CmpOp op, const double* a, const double* b, std::size_t n,
            std::int64_t* out01) {
  CmpF64Body(op, a, b, n, out01);
}

void CmpI64(CmpOp op, const std::int64_t* a, const std::int64_t* b,
            std::size_t n, std::int64_t* out01) {
  CmpI64Body(op, a, b, n, out01);
}

std::size_t CompactNonZeroI64(const std::int64_t* vals, std::uint32_t* sel,
                              std::size_t n) {
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (vals[i] != 0) sel[k++] = sel[i];
  }
  return k;
}

std::size_t CompactNonZeroF64(const double* vals, std::uint32_t* sel,
                              std::size_t n) {
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (vals[i] != 0.0) sel[k++] = sel[i];  // NaN != 0.0 — NaN is truthy
  }
  return k;
}

}  // namespace scalar

// ---------------------------------------------------------------------------
// AVX2 arms (x86-64, runtime-gated on cpuid; compiled with a per-function
// target attribute so the rest of the library keeps the baseline ISA).
// An AVX2 arm never calls out of its own body: it inlines its kernel's
// one body, which the compiler vectorizes for AVX2. A call into baseline
// code would leave the upper YMM state dirty (GCC emits no vzeroupper
// before a tail jump), and every legacy-SSE instruction after it pays for
// that. scripts/analyze.py (rule avx2-call) enforces this. The
// index-emitting kernels (FilterByteEq, CompactNonZeroI64/F64) have no
// vector arm: GCC does not vectorize them, and hand-written movemask arms
// measured no end-to-end win over the scalar loops.
// ---------------------------------------------------------------------------

#if defined(FWDECAY_SIMD_X86)

namespace avx2 {

__attribute__((target("avx2"))) void GroupHashI64(const void* words,
                                                  std::size_t n,
                                                  std::uint64_t value_seed,
                                                  std::uint64_t seed,
                                                  std::uint64_t* out) {
  GroupHashI64Body(words, n, value_seed, seed, out);
}

__attribute__((target("avx2"))) void GroupHashCombineI64(
    const void* words, std::size_t n, std::uint64_t value_seed,
    std::uint64_t* inout) {
  GroupHashCombineI64Body(words, n, value_seed, inout);
}

__attribute__((target("avx2"))) void ShardIndexU64(const std::uint64_t* hashes,
                                                   std::size_t n,
                                                   std::uint64_t seed,
                                                   std::uint32_t num_shards,
                                                   std::uint32_t* out) {
  ShardIndexU64Body(hashes, n, seed, num_shards, out);
}

__attribute__((target("avx2"))) void CmpF64(CmpOp op, const double* a,
                                            const double* b, std::size_t n,
                                            std::int64_t* out01) {
  CmpF64Body(op, a, b, n, out01);
}

__attribute__((target("avx2"))) void CmpI64(CmpOp op, const std::int64_t* a,
                                            const std::int64_t* b,
                                            std::size_t n,
                                            std::int64_t* out01) {
  CmpI64Body(op, a, b, n, out01);
}

}  // namespace avx2

#endif  // FWDECAY_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatched entry points
// ---------------------------------------------------------------------------

std::size_t FilterByteEq(const std::uint8_t* bytes, std::uint8_t target,
                         std::size_t n, std::uint32_t* out_sel) {
  return scalar::FilterByteEq(bytes, target, n, out_sel);
}

void GroupHashI64(const void* words, std::size_t n, std::uint64_t value_seed,
                  std::uint64_t seed, std::uint64_t* out) {
#if defined(FWDECAY_SIMD_X86)
  if (g_dispatch.arch == Arch::kAvx2) {
    avx2::GroupHashI64(words, n, value_seed, seed, out);
    return;
  }
#endif
  scalar::GroupHashI64(words, n, value_seed, seed, out);
}

void GroupHashCombineI64(const void* words, std::size_t n,
                         std::uint64_t value_seed, std::uint64_t* inout) {
#if defined(FWDECAY_SIMD_X86)
  if (g_dispatch.arch == Arch::kAvx2) {
    avx2::GroupHashCombineI64(words, n, value_seed, inout);
    return;
  }
#endif
  scalar::GroupHashCombineI64(words, n, value_seed, inout);
}

void ShardIndexU64(const std::uint64_t* hashes, std::size_t n,
                   std::uint64_t seed, std::uint32_t num_shards,
                   std::uint32_t* out) {
#if defined(FWDECAY_SIMD_X86)
  if (g_dispatch.arch == Arch::kAvx2) {
    avx2::ShardIndexU64(hashes, n, seed, num_shards, out);
    return;
  }
#endif
  scalar::ShardIndexU64(hashes, n, seed, num_shards, out);
}

void AddF64(const double* a, const double* b, std::size_t n, double* out) {
  scalar::AddF64(a, b, n, out);
}

void SubF64(const double* a, const double* b, std::size_t n, double* out) {
  scalar::SubF64(a, b, n, out);
}

void MulF64(const double* a, const double* b, std::size_t n, double* out) {
  scalar::MulF64(a, b, n, out);
}

void DivF64(const double* a, const double* b, std::size_t n, double* out) {
  scalar::DivF64(a, b, n, out);
}

void AddI64(const std::int64_t* a, const std::int64_t* b, std::size_t n,
            std::int64_t* out) {
  scalar::AddI64(a, b, n, out);
}

void SubI64(const std::int64_t* a, const std::int64_t* b, std::size_t n,
            std::int64_t* out) {
  scalar::SubI64(a, b, n, out);
}

void CmpF64(CmpOp op, const double* a, const double* b, std::size_t n,
            std::int64_t* out01) {
#if defined(FWDECAY_SIMD_X86)
  if (g_dispatch.arch == Arch::kAvx2) return avx2::CmpF64(op, a, b, n, out01);
#endif
  scalar::CmpF64(op, a, b, n, out01);
}

void CmpI64(CmpOp op, const std::int64_t* a, const std::int64_t* b,
            std::size_t n, std::int64_t* out01) {
#if defined(FWDECAY_SIMD_X86)
  if (g_dispatch.arch == Arch::kAvx2) return avx2::CmpI64(op, a, b, n, out01);
#endif
  scalar::CmpI64(op, a, b, n, out01);
}

std::size_t CompactNonZeroI64(const std::int64_t* vals, std::uint32_t* sel,
                              std::size_t n) {
  return scalar::CompactNonZeroI64(vals, sel, n);
}

std::size_t CompactNonZeroF64(const double* vals, std::uint32_t* sel,
                              std::size_t n) {
  return scalar::CompactNonZeroF64(vals, sel, n);
}

}  // namespace fwdecay::simd
