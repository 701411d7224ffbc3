#ifndef FWDECAY_DSMS_AGG_H_
#define FWDECAY_DSMS_AGG_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "dsms/column.h"
#include "dsms/value.h"
#include "util/bytes.h"

// Aggregate-function framework of the mini DSMS.
//
// Mirrors the GS architecture the paper builds on (Section I/VIII): the
// engine ships with the built-in SQL aggregates (count, sum, avg, min,
// max) and exposes the same *UDAF* extension hook GS has — arbitrary
// C++ aggregation code fed the evaluated arguments of each tuple, in
// stream order. The paper's entire experimental apparatus (weighted
// SpaceSaving, samplers, EH baselines) plugs in through this interface;
// see udafs.h.

namespace fwdecay::dsms {

/// Per-group aggregation state. One instance per (group, aggregate call).
/// The engine constructs states in place inside a per-group block
/// (AggStateLayout), so an aggregate is registered by type, not by a
/// heap factory (AggRegistry::Register<T>).
class AggState {
 public:
  virtual ~AggState() = default;

  /// Folds a run of tuples from evaluated argument *columns*:
  /// args_columns[a][row] is argument `a` of the tuple at dense row
  /// index `row`; `rows` lists the (ascending) rows belonging to this
  /// state's group. This is the aggregate's one update body: a single
  /// tuple is a one-row call. The columns match the signature the plan
  /// compiler checked (AggSignature), so bodies index their arguments
  /// without re-checking the arity. Rows must be processed in order —
  /// samplers draw from their RNG per row, and FP accumulation order
  /// defines the engine's bit-exactness contract (DESIGN.md §8).
  virtual void UpdateBatch(std::span<const ValueColumn> args_columns,
                           std::span<const std::uint32_t> rows) = 0;

  /// Folds a segment of rows spread over many states of this aggregate
  /// kind: row rows[k] goes to states[k] (states.size() == rows.size(),
  /// rows ascending, equal states allowed anywhere). The engine calls it
  /// on one of the segment's states, so the override that runs is the
  /// kind's own. Each state must see its rows in order, exactly as
  /// UpdateBatch would. The default coalesces runs of equal consecutive
  /// states into UpdateBatch calls; the built-ins override it with one
  /// loop over the segment.
  virtual void UpdateStates(std::span<AggState* const> states,
                            std::span<const ValueColumn> args_columns,
                            std::span<const std::uint32_t> rows);

  /// Merges another state of the same concrete type (used by the
  /// two-level aggregation split when the low level evicts a partial
  /// group, and by distributed combination). Aggregates whose signature
  /// is not `mergeable` never reach it from a plan; theirs CHECK-fails.
  virtual void Merge(AggState& other) = 0;

  /// Produces the output value for the group.
  virtual Value Finalize() const = 0;

  /// Writes the state's *exact* contents for engine checkpointing: a
  /// restored state must not just finalize to the same value, it must
  /// evolve identically under future updates (recovery-replay proves
  /// equality with the uninterrupted run bit for bit). Returns false if
  /// this aggregate does not support checkpointing; the engine then
  /// refuses to snapshot the plan rather than write a partial snapshot.
  virtual bool SerializeTo(ByteWriter* writer) const;

  /// Restores state written by SerializeTo into a freshly created
  /// instance of the same aggregate. Returns false on truncated or
  /// corrupt input (the instance is then unusable and must be dropped).
  virtual bool RestoreFrom(ByteReader* reader);
};

/// One literal parameter of an aggregate call: a sample size k, an
/// accuracy eps, a quantile phi, a universe size in bits. The plan
/// compiler accepts only a numeric literal in [min, max] ([min, max)
/// when `max_open`); the bounds keep every sketch the body sizes from it
/// within what that sketch's constructor CHECKs and its Deserialize
/// accepts, so every plan that compiles can also be restored. Integer
/// parameters have integral bounds, so the body's AsInt() truncation of
/// an accepted literal stays in range too.
struct AggParam {
  const char* name = "";
  double min = 0.0;
  double max = 0.0;
  bool max_open = false;
};

/// An aggregate's call signature, checked once when a plan compiles:
/// `data_args` leading per-row argument expressions, then up to
/// params.size() literal parameters; a call passes at least `min_args`.
struct AggSignature {
  const char* usage = "";  // names the aggregate in compile errors
  std::size_t min_args = 0;
  std::size_t data_args = 0;
  std::vector<AggParam> params;
  /// Finalizes to a string (the sampler and heavy-hitter UDAFs): a plan
  /// may output it only as a whole SELECT item, never as an operand.
  bool string_result = false;
  /// Merge() is defined. The two-level split merges evicted partial
  /// groups, so a two-level plan rejects aggregates without it.
  bool mergeable = true;
};

/// How to make one aggregate's state and call it: its size and
/// alignment, so the engine can reserve a slot for it in a group's
/// state block; plain function pointers that construct a fresh state
/// there or on the heap; and the signature a call must match.
struct AggKind {
  std::size_t size = 0;
  std::size_t align = 0;
  /// Placement-constructs a fresh state at `where` (size/align bytes).
  AggState* (*construct)(void* where) = nullptr;
  /// A fresh heap state (tests and tools; the engine never calls it).
  std::unique_ptr<AggState> (*create)() = nullptr;
  AggSignature signature;
};

/// Name-to-kind registry. Built-in aggregates are pre-registered; UDAFs
/// are added with Register<T>() — no query-language or engine changes
/// required, which is the deployment story of Section VI.
class AggRegistry {
 public:
  /// The process-wide registry (lazily constructed, never destroyed).
  static AggRegistry& Instance();

  /// Registers (or replaces) aggregate type T under a lowercase name,
  /// with the signature its calls must match. T must be
  /// default-constructible and derive from AggState.
  template <class T>
  void Register(const std::string& name, AggSignature signature) {
    static_assert(std::is_base_of_v<AggState, T>,
                  "aggregates derive from AggState");
    RegisterKind(name, AggKind{
        sizeof(T), alignof(T),
        [](void* where) -> AggState* { return ::new (where) T(); },
        []() -> std::unique_ptr<AggState> { return std::make_unique<T>(); },
        std::move(signature)});
  }

  /// True if `name` (any case) is a known aggregate.
  bool Contains(const std::string& name) const;

  /// The kind registered under `name` (any case); CHECK-fails for
  /// unknown names. Plans copy it at compile time.
  const AggKind& Kind(const std::string& name) const;

  /// Creates a heap state; CHECK-fails for unknown names.
  std::unique_ptr<AggState> Create(const std::string& name) const;

  /// All registered lowercase names (for the planner's classifier).
  std::vector<std::string> Names() const;

 private:
  AggRegistry();

  void RegisterKind(const std::string& name, AggKind kind);

  std::vector<std::pair<std::string, AggKind>> entries_;
};

/// Where a group's aggregate states live inside its one state block: a
/// slot per aggregate call, each at a fixed offset aligned for its kind.
/// A plan builds this once; the engine carves one block per group shell
/// and per low-level slot and constructs and destroys states in it.
class AggStateLayout {
 public:
  /// Appends a slot for `kind` after the existing ones.
  void Append(const AggKind& kind);

  std::size_t num_slots() const { return kinds_.size(); }
  /// Bytes and alignment one block needs (0 bytes: no aggregates).
  std::size_t block_size() const { return size_; }
  std::size_t block_align() const { return align_; }

  /// Constructs a fresh state in every slot of `block`, in slot order
  /// (sampler seeds are drawn in construction order).
  void Construct(std::byte* block) const;

  /// Destroys every slot's state in `block`; the block stays reusable.
  void Destroy(std::byte* block) const;

  /// The live state in slot `slot` of `block`.
  AggState* State(std::byte* block, std::size_t slot) const {
    return std::launder(reinterpret_cast<AggState*>(block + offsets_[slot]));
  }

 private:
  std::vector<AggKind> kinds_;
  std::vector<std::size_t> offsets_;
  std::size_t size_ = 0;
  std::size_t align_ = 1;
};

}  // namespace fwdecay::dsms

#endif  // FWDECAY_DSMS_AGG_H_
