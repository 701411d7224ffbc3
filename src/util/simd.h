#ifndef FWDECAY_UTIL_SIMD_H_
#define FWDECAY_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>

// Runtime-dispatched SIMD kernels for the batched ingest hot path
// (DESIGN.md §13.4). The instruction set is detected once at startup
// (AVX2 on x86-64, scalar otherwise); every kernel also
// ships a scalar arm that is compiled unconditionally and kept
// *bit-exact* with the vector arms — the scalar implementations are the
// differential oracle (tests/simd_test.cc) and the forced-scalar CI leg
// runs the whole engine through them.
//
// A kernel's AVX2 arm is compiled from the same loop as its scalar arm
// (one always_inline body, built twice). The elementwise arithmetic has
// no AVX2 arm: its baseline arm is already packed SSE2. Nor do the
// index-emitting kernels (FilterByteEq, CompactNonZero*), which GCC does
// not vectorize: their scalar loop is the only arm. Off x86-64 every
// kernel runs its scalar loop, left to the compiler to vectorize for the
// baseline ISA (ASIMD on aarch64), as SSE2 is on x86-64.
// An AVX2 arm never calls out of its own body, so it never returns to
// baseline code with the upper YMM state dirty (analyze.py avx2-call).
//
// Bit-exactness discipline: vector arms may only reorder *independent*
// lanes. Elementwise IEEE-754 add/sub/mul/div/compare are exact per
// lane, so they vectorize; ordered reductions and libm calls stay with
// the caller in stream order. Each kernel performs exactly one FP
// operation per element so no arm can be contracted into an FMA the
// other arm does not perform.
//
// FWDECAY_FORCE_SCALAR=1 (env) forces the scalar arms at startup.

namespace fwdecay::simd {

enum class Arch { kScalar, kAvx2 };

/// The arm every dispatched kernel below routes to; fixed at startup.
Arch ActiveArch();

/// "scalar" | "avx2": the active arm's name.
const char* ActiveArchName();

/// True if FWDECAY_FORCE_SCALAR pinned the dispatch to scalar.
bool ForcedScalar();

/// Comparison operator selector for the compare kernels. Semantics match
/// dsms::Value comparisons on numerics: ordered predicates, so any NaN
/// operand yields 0 for kEq/kLt/kGt and 1 for their negations.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

// --- Dispatched kernels ----------------------------------------------------

/// Writes the indices i in [0, n) with bytes[i] == target to out_sel
/// (ascending); returns the match count. The engine's protocol filter.
std::size_t FilterByteEq(const std::uint8_t* bytes, std::uint8_t target,
                         std::size_t n, std::uint32_t* out_sel);

/// Group-key hash of a key column (the first column of a group key;
/// GroupHashCombineI64 folds in the rest). A key column is n 8-byte
/// words: int64 values, or double bit patterns (DESIGN.md §13.1), so
/// the kernels take it untyped and copy each word out. out[i] is exactly
/// HashCombine(seed, HashU64(words[i], value_seed)); with value_seed 1
/// for an int64 column and 2 for a double column, HashU64(words[i],
/// value_seed) is Value::Hash of the row's value.
void GroupHashI64(const void* words, std::size_t n, std::uint64_t value_seed,
                  std::uint64_t seed, std::uint64_t* out);

/// Folds one more key column into running group hashes:
/// inout[i] = HashCombine(inout[i], HashU64(words[i], value_seed)).
/// After GroupHashI64 over column 0 and this kernel over each further
/// column in order, inout[i] is the row's group hash, for int64 and
/// double columns alike.
void GroupHashCombineI64(const void* words, std::size_t n,
                         std::uint64_t value_seed, std::uint64_t* inout);

/// Batch-partition kernel for shard routing (DESIGN.md §14.1): out[i] is
/// exactly HashU64(hashes[i], seed) % num_shards — the group hash
/// remixed under an independent seed, reduced to a shard index. A
/// power-of-two count reduces with a mask, which vectorizes; other
/// counts keep the 64-bit modulo. num_shards must be > 0.
void ShardIndexU64(const std::uint64_t* hashes, std::size_t n,
                   std::uint64_t seed, std::uint32_t num_shards,
                   std::uint32_t* out);

// Elementwise arithmetic, one IEEE operation per element. The int64
// forms wrap in two's complement (util/int_div.h WrapAdd/WrapSub).
void AddF64(const double* a, const double* b, std::size_t n, double* out);
void SubF64(const double* a, const double* b, std::size_t n, double* out);
void MulF64(const double* a, const double* b, std::size_t n, double* out);
void DivF64(const double* a, const double* b, std::size_t n, double* out);
void AddI64(const std::int64_t* a, const std::int64_t* b, std::size_t n,
            std::int64_t* out);
void SubI64(const std::int64_t* a, const std::int64_t* b, std::size_t n,
            std::int64_t* out);

/// Elementwise compare producing an int64 0/1 column (the engine's
/// boolean representation).
void CmpF64(CmpOp op, const double* a, const double* b, std::size_t n,
            std::int64_t* out01);
void CmpI64(CmpOp op, const std::int64_t* a, const std::int64_t* b,
            std::size_t n, std::int64_t* out01);

/// In-place selection compaction: keeps sel[i] where vals[i] is truthy
/// (non-zero; NaN is truthy), returns the new count. Predicate batch
/// evaluation's final narrowing step.
std::size_t CompactNonZeroI64(const std::int64_t* vals, std::uint32_t* sel,
                              std::size_t n);
std::size_t CompactNonZeroF64(const double* vals, std::uint32_t* sel,
                              std::size_t n);

// --- Scalar oracle ---------------------------------------------------------
// The always-compiled scalar arms, callable directly so the differential
// tests can compare a dispatched result against the oracle on the same
// inputs regardless of what ActiveArch() resolved to.

namespace scalar {

std::size_t FilterByteEq(const std::uint8_t* bytes, std::uint8_t target,
                         std::size_t n, std::uint32_t* out_sel);
void GroupHashI64(const void* words, std::size_t n, std::uint64_t value_seed,
                  std::uint64_t seed, std::uint64_t* out);
void GroupHashCombineI64(const void* words, std::size_t n,
                         std::uint64_t value_seed, std::uint64_t* inout);
void ShardIndexU64(const std::uint64_t* hashes, std::size_t n,
                   std::uint64_t seed, std::uint32_t num_shards,
                   std::uint32_t* out);
void AddF64(const double* a, const double* b, std::size_t n, double* out);
void SubF64(const double* a, const double* b, std::size_t n, double* out);
void MulF64(const double* a, const double* b, std::size_t n, double* out);
void DivF64(const double* a, const double* b, std::size_t n, double* out);
void AddI64(const std::int64_t* a, const std::int64_t* b, std::size_t n,
            std::int64_t* out);
void SubI64(const std::int64_t* a, const std::int64_t* b, std::size_t n,
            std::int64_t* out);
void CmpF64(CmpOp op, const double* a, const double* b, std::size_t n,
            std::int64_t* out01);
void CmpI64(CmpOp op, const std::int64_t* a, const std::int64_t* b,
            std::size_t n, std::int64_t* out01);
std::size_t CompactNonZeroI64(const std::int64_t* vals, std::uint32_t* sel,
                              std::size_t n);
std::size_t CompactNonZeroF64(const double* vals, std::uint32_t* sel,
                              std::size_t n);

}  // namespace scalar

}  // namespace fwdecay::simd

#endif  // FWDECAY_UTIL_SIMD_H_
