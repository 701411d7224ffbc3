#include "dsms/engine.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <span>
#include <thread>
#include <utility>

#include "core/decay.h"
#include "util/arena.h"
#include "util/bounded_queue.h"
#include "util/bytes.h"
#include "util/check.h"
#include "util/crc32c.h"
#include "util/fault_fs.h"
#include "util/hash.h"
#include "util/sched.h"
#include "util/simd.h"

namespace fwdecay::dsms {

namespace {

std::string Lower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

// --- Group keys (DESIGN.md §13.1) -----------------------------------------
//
// A group key is one 8-byte word per GROUP BY column: the int64 value,
// or the double's bit pattern (ValueColumn::word). Each column's type
// comes from the plan (CompiledQuery::key_types_). Hash, equality and
// order are defined here, once, over the words.

// The seed a key word hashes under: Value::Hash's seed for the type.
std::uint64_t WordSeed(ExprType type) {
  return type == ExprType::kI64 ? 1 : 2;
}

// Group hash of n keys, column at a time (`column(g)`: column g's n
// words): HashCombine from kGroupHashSeed of each column's
// HashU64(word, WordSeed), which is its Value::Hash.
template <class Column>
void HashKeys(const std::vector<ExprType>& types, const Column& column,
              std::size_t n, std::uint64_t* out) {
  if (types.empty()) {
    std::fill_n(out, n, kGroupHashSeed);
    return;
  }
  simd::GroupHashI64(column(0), n, WordSeed(types[0]), kGroupHashSeed, out);
  for (std::size_t g = 1; g < types.size(); ++g) {
    simd::GroupHashCombineI64(column(g), n, WordSeed(types[g]), out);
  }
}

// HashKeys of one stored key (restore, audit): a batch of one row, whose
// column g is the key's word g.
std::uint64_t WordsHash(const std::vector<ExprType>& types,
                        const std::uint64_t* key) {
  std::uint64_t h = 0;
  HashKeys(types, [key](std::size_t g) { return key + g; }, 1, &h);
  return h;
}

// Equal keys are equal words: NaNs with one bit pattern are one key,
// -0.0 and +0.0 are two.
bool WordsEqual(const std::uint64_t* a, const std::uint64_t* b,
                std::size_t arity) {
  return std::equal(a, a + arity, b);
}

// The key order: unsigned lexicographic order of the keys' order words
// (column.h OrderWord), i.e. signed < on int64 columns and IEEE
// totalOrder on double columns (-NaN < -inf < ... < -0.0 < +0.0 < ... <
// +inf < +NaN), column by column. The shed tie-break compares two keys
// with it; Finish, snapshots and the pipeline sort records of the same
// order words (QueryExecution::KeyOrder).
bool WordsLess(const std::vector<ExprType>& types, const std::uint64_t* a,
               const std::uint64_t* b) {
  for (std::size_t g = 0; g < types.size(); ++g) {
    if (a[g] == b[g]) continue;
    return OrderWord(types[g], a[g]) < OrderWord(types[g], b[g]);
  }
  return false;
}

// WordsEqual of row `row`'s key, read in place from the key columns,
// and `key`.
bool RowKeyEquals(const std::vector<ValueColumn>& key_cols, std::size_t row,
                  const std::uint64_t* key) {
  for (std::size_t g = 0; g < key_cols.size(); ++g) {
    if (key_cols[g].word(row) != key[g]) return false;
  }
  return true;
}

// The key word `order_word` is the order word of (column.h OrderWord's
// inverse).
std::uint64_t KeyWord(ExprType type, std::uint64_t order_word) {
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  if (type == ExprType::kI64 || (order_word & kSign) != 0) {
    return order_word ^ kSign;
  }
  return ~order_word;
}

// A key column's value as it leaves the engine in a result row.
Value WordValue(ExprType type, std::uint64_t word) {
  return type == ExprType::kI64 ? Value(static_cast<std::int64_t>(word))
                                : Value(std::bit_cast<double>(word));
}

// A key column's snapshot tag: Value::SerializeTo's (0 int, 1 double),
// so a key word is written as exactly the bytes of its Value frame.
std::uint8_t KeyTag(ExprType type) { return type == ExprType::kI64 ? 0 : 1; }

// The filter stage: the protocol filter (a vectorized byte compare over
// the column; 0 keeps every row), then WHERE (null keeps every row).
// Writes the surviving rows of `batch`, ascending, to (*sel)[0..n) and
// returns n. QueryExecution and the pipeline router both select through
// here, so they keep exactly the same rows.
std::size_t SelectRows(const PacketBatch& batch, std::uint8_t protocol_filter,
                       const Expr* where, std::vector<std::uint32_t>* sel,
                       BatchEvalScratch* scratch) {
  const std::size_t n_in = batch.size();
  sel->resize(n_in);
  std::size_t n = n_in;
  if (protocol_filter != 0) {
    n = simd::FilterByteEq(batch.protocol(), protocol_filter, n_in,
                           sel->data());
  } else {
    for (std::size_t i = 0; i < n_in; ++i) {
      (*sel)[i] = static_cast<std::uint32_t>(i);
    }
  }
  if (where != nullptr && n > 0) {
    n = EvalPredicateBatch(*where, batch, sel->data(), n, scratch);
  }
  return n;
}

// Binds an expression for post-aggregation evaluation: aggregate calls
// become kAggRef slots (appending their name and per-tuple argument
// expressions to the plan), and subtrees matching a GROUP BY expression
// (textually) or a GROUP BY alias become kGroupRef. Any raw column that
// survives is an error — it is neither aggregated nor grouped.
bool BindPostExpr(
    std::unique_ptr<Expr>& expr, const std::vector<std::string>& agg_names,
    const std::vector<std::string>& group_text,
    const std::vector<std::pair<std::string, int>>& alias_to_pos,
    std::vector<std::string>* slot_names,
    std::vector<std::vector<std::unique_ptr<Expr>>>* slot_args,
    std::string* error) {
  if (expr->kind == Expr::Kind::kCall) {
    const std::string name = Lower(expr->name);
    if (std::find(agg_names.begin(), agg_names.end(), name) !=
        agg_names.end()) {
      const int slot = static_cast<int>(slot_names->size());
      slot_names->push_back(name);
      slot_args->push_back(std::move(expr->args));
      expr = Expr::AggRef(slot);
      return true;
    }
  }
  if (expr->kind == Expr::Kind::kColumn) {
    const std::string col = Lower(expr->name);
    for (const auto& [alias, pos] : alias_to_pos) {
      if (alias == col) {
        expr = Expr::GroupRef(pos);
        return true;
      }
    }
  }
  const std::string text = expr->ToString();
  for (std::size_t i = 0; i < group_text.size(); ++i) {
    if (group_text[i] == text) {
      expr = Expr::GroupRef(static_cast<int>(i));
      return true;
    }
  }
  if (expr->kind == Expr::Kind::kColumn) {
    *error = "column '" + expr->name +
             "' is used outside an aggregate and does not match a GROUP BY "
             "expression or alias";
    return false;
  }
  for (auto& arg : expr->args) {
    if (!BindPostExpr(arg, agg_names, group_text, alias_to_pos, slot_names,
                      slot_args, error)) {
      return false;
    }
  }
  return true;
}

// Checks one aggregate call against its kind's signature: the argument
// count, and that each literal parameter is a numeric literal within the
// bounds its sketch accepts. Runs once per slot at compile time, so no
// tenant's query can reach a sketch constructor's CHECK or size a sketch
// past what a snapshot may restore.
bool CheckAggCall(const AggSignature& sig,
                  const std::vector<std::unique_ptr<Expr>>& args,
                  std::string* error) {
  if (args.size() < sig.min_args ||
      args.size() > sig.data_args + sig.params.size()) {
    *error = std::string(sig.usage) + ": wrong number of arguments (" +
             std::to_string(args.size()) + ")";
    return false;
  }
  for (std::size_t i = sig.data_args; i < args.size(); ++i) {
    const AggParam& p = sig.params[i - sig.data_args];
    const Expr& arg = *args[i];
    const bool numeric =
        arg.kind == Expr::Kind::kLiteral && !arg.literal.is_string();
    const double v = numeric ? arg.literal.AsDouble() : 0.0;
    if (!numeric || !(v >= p.min && (p.max_open ? v < p.max : v <= p.max))) {
      char range[64];
      std::snprintf(range, sizeof(range), "[%.10g, %.10g%c", p.min, p.max,
                    p.max_open ? ')' : ']');
      *error = std::string(sig.usage) + ": " + p.name +
               " must be a numeric literal in " + range;
      return false;
    }
  }
  return true;
}

// The type pass: what may appear where once names are bound (Expr nodes
// bind when the parser builds them). Row expressions — WHERE, GROUP BY
// and aggregate arguments — must type as int64 or double, so an unknown
// column or function, an aggregate, a short scalar call and a string
// literal are errors there. Post-aggregation expressions — SELECT items
// and HAVING, checked with their aggregate slots' signatures in
// `post_slots` (null for a row expression) — are numeric too, except
// that a string-valued aggregate may stand alone as a SELECT item; the
// caller skips such a root. One walk per expression.
bool CheckTypes(const Expr& e,
                const std::vector<const AggSignature*>* post_slots,
                std::string* error) {
  switch (e.kind) {
    case Expr::Kind::kColumn:
      if (e.column == ColumnId::kUnknown) {
        *error = "unknown column '" + e.name + "'";
        return false;
      }
      break;
    case Expr::Kind::kLiteral:
      if (e.literal.is_string()) {
        *error = "string literal '" + e.literal.AsString() +
                 "': GSQL expressions are numeric";
        return false;
      }
      break;
    case Expr::Kind::kStar:
      if (post_slots == nullptr) break;  // a row expression: reads as 1
      *error = "'*' outside an aggregate call";
      return false;
    case Expr::Kind::kCall:
      if (e.fn == ScalarFn::kNone) {
        *error = AggRegistry::Instance().Contains(e.name)
                     ? "aggregate '" + Lower(e.name) +
                           "' inside a row expression (WHERE, GROUP BY or "
                           "an aggregate argument)"
                     : "unknown function '" + e.name + "'";
        return false;
      }
      if (e.args.size() < ScalarFnArity(e.fn)) {
        *error = "function '" + Lower(e.name) + "' needs " +
                 std::to_string(ScalarFnArity(e.fn)) + " arguments, got " +
                 std::to_string(e.args.size());
        return false;
      }
      break;
    case Expr::Kind::kAggRef: {
      const AggSignature& sig =
          *(*post_slots)[static_cast<std::size_t>(e.agg_index)];
      if (sig.string_result) {
        *error = std::string(sig.usage) +
                 " returns a string: it can only be a whole SELECT item";
        return false;
      }
      break;
    }
    case Expr::Kind::kNeg:
    case Expr::Kind::kBinary:
    case Expr::Kind::kGroupRef:
      break;
  }
  for (const auto& arg : e.args) {
    if (!CheckTypes(*arg, post_slots, error)) return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Self-instrumentation (DESIGN.md §9)
// ---------------------------------------------------------------------------

namespace {

// Registry handles for the engine-wide metric families, resolved once.
// Per-shard executions rebind their counter handles to the labelled
// fwdecay_shard_* families via QueryExecution::UseShardMetrics(); the
// decayed tuple rate and the ns-per-batch reservoir stay shared (both
// are internally locked, and a process-wide view is what an operator
// wants from them).
struct EngineMetrics {
  metrics::Counter* packets;
  metrics::Counter* batches;
  metrics::Counter* tuples;
  metrics::Counter* evictions;
  metrics::Counter* groups_shed;
  metrics::Counter* tuples_shed;
  metrics::Gauge* groups;
  metrics::DecayedRate* tuple_rate;
  metrics::LatencyReservoir* batch_ns;
  metrics::Counter* plans_compiled;
  metrics::LatencyReservoir* compile_ns;
  metrics::Counter* checkpoints;
  metrics::Counter* checkpoint_bytes;
  metrics::LatencyReservoir* checkpoint_ns;
  metrics::Counter* restores;
  metrics::LatencyReservoir* restore_ns;

  static const EngineMetrics& Get() {
    static const EngineMetrics m = Create();
    return m;
  }

 private:
  static EngineMetrics Create() {
    auto& reg = metrics::MetricsRegistry::Instance();
    EngineMetrics m{};
    m.packets = reg.GetCounter("fwdecay_engine_packets_total",
                               "Packets offered to Consume() (pre-filter).");
    m.batches = reg.GetCounter("fwdecay_engine_batches_total",
                               "Batches processed (a Packet is a 1-batch).");
    m.tuples = reg.GetCounter("fwdecay_engine_tuples_total",
                              "Tuples that passed the filter and were "
                              "aggregated.");
    m.evictions = reg.GetCounter("fwdecay_engine_low_evictions_total",
                                 "Low-level slot evictions to the high "
                                 "table (two-level mode).");
    m.groups_shed = reg.GetCounter("fwdecay_engine_groups_shed_total",
                                   "Groups evicted by overload shedding.");
    m.tuples_shed = reg.GetCounter("fwdecay_engine_tuples_shed_total",
                                   "Tuples lost inside shed groups.");
    m.groups = reg.GetGauge("fwdecay_engine_groups",
                            "Live groups (low + high level) at the last "
                            "metrics flush.");
    m.tuple_rate = reg.GetDecayedRate(
        "fwdecay_engine_tuple_rate",
        "Forward-decayed tuple ingest rate (events/s; alpha=0.1).",
        /*alpha=*/0.1);
    m.batch_ns = reg.GetReservoir(
        "fwdecay_engine_batch_ns",
        "Consume() wall time per batch, ns (decayed reservoir; sampled "
        "1-in-64 batches).",
        /*k=*/256, /*alpha=*/0.015);
    m.plans_compiled = reg.GetCounter("fwdecay_plans_compiled_total",
                                      "GSQL plans successfully compiled.");
    m.compile_ns = reg.GetReservoir(
        "fwdecay_plan_compile_ns",
        "Parse-to-plan compile time, ns (decayed reservoir).",
        /*k=*/64, /*alpha=*/0.015);
    m.checkpoints = reg.GetCounter("fwdecay_checkpoint_total",
                                   "Snapshots successfully written.");
    m.checkpoint_bytes = reg.GetCounter(
        "fwdecay_checkpoint_bytes_total",
        "Total snapshot bytes handed to the atomic-write path.");
    m.checkpoint_ns = reg.GetReservoir(
        "fwdecay_checkpoint_ns",
        "Durable snapshot wall time incl. fsync+rename (engine "
        "Checkpoint() and fwdecayd checkpoints), ns (decayed reservoir).",
        /*k=*/64, /*alpha=*/0.015);
    m.restores = reg.GetCounter("fwdecay_restore_total",
                                "Snapshots successfully restored.");
    m.restore_ns = reg.GetReservoir(
        "fwdecay_restore_ns",
        "Restore() wall time (read + validate + rebuild), ns (decayed "
        "reservoir).",
        /*k=*/64, /*alpha=*/0.015);
    return m;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

std::unique_ptr<CompiledQuery> CompiledQuery::Compile(const std::string& gsql,
                                                      std::string* error) {
  return Compile(gsql, error, Options{});
}

std::unique_ptr<CompiledQuery> CompiledQuery::Compile(const std::string& gsql,
                                                      std::string* error,
                                                      Options options) {
  ParseResult parsed = ParseQuery(gsql);
  if (!parsed.ok()) {
    *error = parsed.error;
    return nullptr;
  }
  return CompileParsed(std::move(*parsed.query), error, options);
}

std::unique_ptr<CompiledQuery> CompiledQuery::CompileParsed(Query query,
                                                            std::string* error,
                                                            Options options) {
  // Compilation is cold, so it is timed unconditionally (no sampling).
  metrics::ScopedTimerSample compile_timer(
      EngineMetrics::Get().compile_ns,
      metrics::MetricsRegistry::Instance().NowSeconds());
  auto plan = std::unique_ptr<CompiledQuery>(new CompiledQuery());
  plan->options_ = options;

  // FROM clause: TCP and UDP are protocol-filtered views of the packet
  // stream; PKT (or anything else) is the raw stream.
  const std::string from = Lower(query.from);
  if (from == "tcp") {
    plan->protocol_filter_ = kProtoTcp;
  } else if (from == "udp") {
    plan->protocol_filter_ = kProtoUdp;
  } else {
    plan->protocol_filter_ = 0;
  }
  plan->where_ = std::move(query.where);

  // Group-by expressions, with alias -> position mapping.
  std::vector<std::pair<std::string, int>> alias_to_pos;
  std::vector<std::string> group_text;
  for (std::size_t i = 0; i < query.group_by.size(); ++i) {
    SelectItem& item = query.group_by[i];
    group_text.push_back(item.expr->ToString());
    if (!item.alias.empty()) {
      alias_to_pos.emplace_back(item.alias, static_cast<int>(i));
    }
    plan->group_exprs_.push_back(std::move(item.expr));
  }

  const std::vector<std::string> agg_names = AggRegistry::Instance().Names();

  for (SelectItem& item : query.select) {
    OutputItem out;
    out.source_text = item.expr->ToString();
    out.column_name = item.alias.empty() ? out.source_text : item.alias;
    if (!BindPostExpr(item.expr, agg_names, group_text, alias_to_pos,
                      &plan->agg_names_, &plan->agg_args_, error)) {
      return nullptr;
    }
    out.post = std::move(item.expr);
    plan->outputs_.push_back(std::move(out));
  }

  // HAVING: a post-aggregation predicate over group columns + aggregates.
  if (query.having != nullptr) {
    if (!BindPostExpr(query.having, agg_names, group_text, alias_to_pos,
                      &plan->agg_names_, &plan->agg_args_, error)) {
      return nullptr;
    }
    plan->having_ = std::move(query.having);
  }
  // Each slot's signature is checked and its kind and block offset
  // resolved once for every group.
  std::vector<const AggSignature*> slot_sigs;
  for (std::size_t slot = 0; slot < plan->agg_names_.size(); ++slot) {
    const AggKind& kind = AggRegistry::Instance().Kind(plan->agg_names_[slot]);
    if (!CheckAggCall(kind.signature, plan->agg_args_[slot], error)) {
      return nullptr;
    }
    if (options.two_level && !kind.signature.mergeable) {
      *error = std::string(kind.signature.usage) +
               " cannot run in a two-level plan: its state does not merge";
      return nullptr;
    }
    slot_sigs.push_back(&kind.signature);
    plan->agg_layout_.Append(kind);
  }

  // The type pass, after the signature checks.
  bool typed =
      plan->where_ == nullptr || CheckTypes(*plan->where_, nullptr, error);
  for (const auto& g : plan->group_exprs_) {
    typed = typed && CheckTypes(*g, nullptr, error);
  }
  for (const auto& args : plan->agg_args_) {
    for (const auto& arg : args) {
      typed = typed && CheckTypes(*arg, nullptr, error);
    }
  }
  for (const OutputItem& out : plan->outputs_) {
    typed = typed && (out.post->kind == Expr::Kind::kAggRef ||
                      CheckTypes(*out.post, &slot_sigs, error));
  }
  typed = typed && (plan->having_ == nullptr ||
                    CheckTypes(*plan->having_, &slot_sigs, error));
  if (!typed) return nullptr;
  for (const auto& g : plan->group_exprs_) plan->key_types_.push_back(g->type);

  // ORDER BY: resolve each entry to an output column — by 1-based
  // position, by alias/column name, or by expression text.
  for (OrderItem& item : query.order_by) {
    std::size_t col = plan->outputs_.size();
    if (item.expr->kind == Expr::Kind::kLiteral &&
        item.expr->literal.is_int()) {
      const std::int64_t pos = item.expr->literal.AsInt();
      if (pos < 1 ||
          pos > static_cast<std::int64_t>(plan->outputs_.size())) {
        *error = "ORDER BY position out of range";
        return nullptr;
      }
      col = static_cast<std::size_t>(pos - 1);
    } else {
      const std::string text = item.expr->ToString();
      for (std::size_t i = 0; i < plan->outputs_.size(); ++i) {
        if (plan->outputs_[i].column_name == text ||
            plan->outputs_[i].source_text == text) {
          col = i;
          break;
        }
      }
      if (col == plan->outputs_.size()) {
        *error = "ORDER BY item '" + text +
                 "' does not name an output column";
        return nullptr;
      }
    }
    plan->order_by_.emplace_back(col, item.descending);
  }
  plan->limit_ = query.limit;

  if (plan->options_.two_level) {
    FWDECAY_CHECK_MSG(plan->options_.low_level_slots >= 2,
                      "two-level mode needs at least 2 low-level slots");
  }
  EngineMetrics::Get().plans_compiled->Increment();
  return plan;
}

std::unique_ptr<QueryExecution> CompiledQuery::NewExecution() const {
  return std::make_unique<QueryExecution>(this);
}

std::uint64_t CompiledQuery::Fingerprint() const {
  std::uint64_t h = HashString("fwdsnap-plan", 7);
  h = HashCombine(h, options_.two_level ? 1 : 0);
  h = HashCombine(h, options_.low_level_slots);
  h = HashCombine(h, protocol_filter_);
  h = HashCombine(h, HashString(where_ ? where_->ToString() : ""));
  for (const auto& g : group_exprs_) {
    h = HashCombine(h, HashString(g->ToString()));
  }
  for (std::size_t slot = 0; slot < agg_names_.size(); ++slot) {
    h = HashCombine(h, HashString(agg_names_[slot]));
    for (const auto& arg : agg_args_[slot]) {
      h = HashCombine(h, HashString(arg->ToString()));
    }
  }
  for (const auto& out : outputs_) {
    h = HashCombine(h, HashString(out.post->ToString()));
    h = HashCombine(h, HashString(out.column_name));
  }
  h = HashCombine(h, HashString(having_ ? having_->ToString() : ""));
  for (const auto& [col, desc] : order_by_) {
    h = HashCombine(h, col);
    h = HashCombine(h, desc ? 1 : 0);
  }
  h = HashCombine(h, limit_.has_value()
                         ? static_cast<std::uint64_t>(*limit_) + 1
                         : 0);
  return h;
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

struct QueryExecution::Group {
  // The group's arena block, carved when the shell (or low slot) is
  // first used and kept for its life: the key's words (one per GROUP BY
  // column), then the aggregate states, one per plan slot at the plan's
  // AggStateLayout offsets. Each part is null when the plan has none.
  // States are constructed at admission and destroyed at release,
  // eviction or shedding.
  std::uint64_t* key = nullptr;
  std::byte* states = nullptr;
  // Forward-decayed weight Σ g(t_i - L) and tuple count, maintained for
  // the overload-shedding eviction rule (cheap: one add per update).
  double weight = 0.0;
  std::uint64_t tuples = 0;
};

struct QueryExecution::LowSlot {
  bool occupied = false;
  std::uint64_t hash = 0;
  Group group;
};

// Open-addressing flat high table (DESIGN.md §13.1). Two parallel slot
// arrays — cached key hash and group pointer (nullptr = empty) — probed
// linearly under a power-of-two mask, so a lookup touches one cache
// line of hashes before it ever dereferences a group. Group shells live
// out-of-line in a bump arena and are recycled through a free list:
// pointers stay stable across rehash (only the slot arrays move), and a
// shell released by shedding or a window Reset() keeps its block (key
// words and states) for the next admission. Tombstone-free: removal
// backward-shifts the probe chain, so layout is a pure function of the
// insertion sequence — but no observable order ever reads the layout
// (Finish/CheckpointBytes walk it but sort what they emit by key order
// words, and the shed victim is a deterministic (weight, WordsLess)
// minimum).
struct QueryExecution::HighTable {
  std::vector<std::uint64_t> hashes;  // slot -> cached key hash
  std::vector<Group*> slots;          // slot -> shell, nullptr = empty
  std::size_t mask = 0;               // capacity - 1
  std::size_t size = 0;               // occupied slots

  const AggStateLayout& layout;       // the plan's state block layout
  const std::size_t key_arity;        // group-key columns per group
  util::Arena arena;                  // shells and every block
  std::vector<Group*> free_shells;    // released, block-retaining

  HighTable(const AggStateLayout& state_layout, std::size_t arity)
      : layout(state_layout), key_arity(arity) {}

  ~HighTable() {
    // Arena memory (trivially destructible shells, key words) is freed
    // wholesale; live states are ordinary objects.
    for (Group* g : slots) {
      if (g != nullptr) layout.Destroy(g->states);
    }
  }

  // Carves `g`'s block from the arena (DESIGN.md §13.3) unless it has
  // one: the key words, padded to the states' alignment, then the
  // state block.
  void CarveBlock(Group* g) {
    if (g->key != nullptr || g->states != nullptr) return;
    const std::size_t align =
        std::max(alignof(std::uint64_t), layout.block_align());
    const std::size_t key_bytes =
        (key_arity * sizeof(std::uint64_t) + align - 1) & ~(align - 1);
    const std::size_t bytes = key_bytes + layout.block_size();
    if (bytes == 0) return;  // no key columns, no aggregates
    auto* block = static_cast<std::byte*>(arena.Allocate(bytes, align));
    if (key_arity > 0) g->key = reinterpret_cast<std::uint64_t*>(block);
    if (layout.block_size() > 0) g->states = block + key_bytes;
  }

  // Walks the probe chain of `hash` for `key`. Returns its slot, or the
  // empty slot that ends the chain — where Insert() places a new key
  // when the table does not grow first. Needs slots.
  std::size_t Probe(std::uint64_t hash, const std::uint64_t* key) const {
    std::size_t s = hash & mask;
    while (slots[s] != nullptr) {
      if (hashes[s] == hash && WordsEqual(slots[s]->key, key, key_arity)) {
        return s;
      }
      s = (s + 1) & mask;
    }
    return s;
  }

  // Inserts a shell whose key is already in place. The caller has
  // established absence via Probe.
  void Insert(std::uint64_t hash, Group* g) {
    if (slots.empty() || (size + 1) * 8 > (mask + 1) * 7) Grow();
    InsertNoGrow(hash, g);
    ++size;
  }

  // Insert() for a key whose absence Probe() just established, with no
  // table change since: `empty_slot` is where InsertNoGrow would land,
  // so unless the table must grow, no second probe is needed.
  void InsertAt(std::size_t empty_slot, std::uint64_t hash, Group* g) {
    if ((size + 1) * 8 > (mask + 1) * 7) {
      Insert(hash, g);
      return;
    }
    slots[empty_slot] = g;
    hashes[empty_slot] = hash;
    ++size;
  }

  // Backward-shift deletion: close the hole by sliding back every chain
  // member that probed across it, so no tombstones accumulate and the
  // probe invariant (home..slot unbroken) is restored locally.
  void EraseSlot(std::size_t slot) {
    slots[slot] = nullptr;
    std::size_t hole = slot;
    std::size_t next = (slot + 1) & mask;
    while (slots[next] != nullptr) {
      const std::size_t home = hashes[next] & mask;
      if (((next - home) & mask) >= ((next - hole) & mask)) {
        slots[hole] = slots[next];
        hashes[hole] = hashes[next];
        slots[next] = nullptr;
        hole = next;
      }
      next = (next + 1) & mask;
    }
    --size;
  }

  Group* AcquireShell() {
    if (!free_shells.empty()) {
      Group* g = free_shells.back();
      free_shells.pop_back();
      return g;
    }
    // fwdecay: hotpath-cold(shell construction: once per peak live group, arena-backed)
    Group* g = arena.New<Group>();
    // fwdecay: hotpath-cold(key words and state block carved from the arena once per shell)
    CarveBlock(g);
    return g;
  }

  // Destroys a live group's states and empties its shell back into the
  // pool. The block survives, so readmission after shedding or a window
  // turnover allocates nothing.
  void ReleaseShell(Group* g) {
    layout.Destroy(g->states);
    g->weight = 0.0;
    g->tuples = 0;
    // fwdecay: hotpath-cold(pool vector growth bounded by peak live shells)
    free_shells.push_back(g);
  }

  // Calls visit(slot, group) for every group, in slot order: one
  // sequential pass over the slot array. The visits themselves are
  // random accesses, so each is prefetched: the shell kShellAhead slots
  // ahead, and its block (key words, then states) kBlockAhead slots
  // ahead, by when the shell has arrived.
  template <class Visit>
  void ForEach(const Visit& visit) const {
    constexpr std::size_t kShellAhead = 16;
    constexpr std::size_t kBlockAhead = 8;
    const std::size_t cap = slots.size();
    for (std::size_t s = 0; s < cap; ++s) {
      if (s + kShellAhead < cap) __builtin_prefetch(slots[s + kShellAhead]);
      if (s + kBlockAhead < cap && slots[s + kBlockAhead] != nullptr) {
        __builtin_prefetch(slots[s + kBlockAhead]->key);
        __builtin_prefetch(slots[s + kBlockAhead]->states);
      }
      if (slots[s] != nullptr) visit(s, *slots[s]);
    }
  }

  // Releases every group and empties the table; slot arrays, shells and
  // arena chunks are all retained for the next window.
  void Clear() {
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (slots[s] != nullptr) {
        ReleaseShell(slots[s]);
        slots[s] = nullptr;
      }
    }
    size = 0;
  }

 private:
  void InsertNoGrow(std::uint64_t hash, Group* g) {
    std::size_t s = hash & mask;
    while (slots[s] != nullptr) s = (s + 1) & mask;
    slots[s] = g;
    hashes[s] = hash;
  }

  void Grow() {
    const std::size_t new_cap = slots.empty() ? 16 : (mask + 1) * 2;
    std::vector<Group*> old_slots = std::move(slots);
    std::vector<std::uint64_t> old_hashes = std::move(hashes);
    // fwdecay: hotpath-cold(table growth: amortized over 7/8ths of the new capacity)
    slots.assign(new_cap, nullptr);
    hashes.assign(new_cap, 0);
    mask = new_cap - 1;
    // Reinsert in ascending old-slot order: the rehashed layout is a
    // deterministic function of the old layout.
    for (std::size_t s = 0; s < old_slots.size(); ++s) {
      if (old_slots[s] != nullptr) InsertNoGrow(old_hashes[s], old_slots[s]);
    }
  }
};

// Records in key order (DESIGN.md §13.1): each record is one group key's
// order words (column.h OrderWord), then a payload index — the offset of
// the group's aggregate cells, or its table slot. Sort() is an LSD radix
// sort, one byte per pass from the last column's low byte to the first
// column's high byte, skipping every byte that is equal across all
// records. Each pass is a stable counting sort, so the records end in
// unsigned lexicographic order of their order words: WordsLess order.
// Keys are distinct, so none tie.
class QueryExecution::KeyOrder {
 public:
  explicit KeyOrder(const std::vector<ExprType>& types)
      : types_(types), stride_(types.size() + 1) {}

  void Add(const std::uint64_t* key, std::size_t payload) {
    for (std::size_t g = 0; g < types_.size(); ++g) {
      records_.push_back(OrderWord(types_[g], key[g]));
    }
    records_.push_back(payload);
  }

  void Sort() {
    const std::size_t n = size();
    if (n < 2) return;
    std::vector<std::uint64_t> out(records_.size());
    for (std::size_t g = types_.size(); g-- > 0;) {
      // The bits of column g that differ between some two records.
      std::uint64_t varying = 0;
      for (std::size_t i = 0; i < n; ++i) {
        varying |= records_[i * stride_ + g] ^ records_[g];
      }
      for (unsigned shift = 0; shift < 64; shift += 8) {
        if (((varying >> shift) & 0xff) == 0) continue;
        std::size_t at[256] = {};
        for (std::size_t i = 0; i < n; ++i) {
          ++at[(records_[i * stride_ + g] >> shift) & 0xff];
        }
        std::size_t sum = 0;
        for (std::size_t& a : at) sum += std::exchange(a, sum);
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint64_t* rec = &records_[i * stride_];
          const std::size_t to = at[(rec[g] >> shift) & 0xff]++;
          std::copy_n(rec, stride_, &out[to * stride_]);
        }
        records_.swap(out);
      }
    }
  }

  std::size_t size() const { return records_.size() / stride_; }
  // Record i's order words and payload; after Sort(), record i is the
  // i-th in key order.
  const std::uint64_t* words(std::size_t i) const {
    return &records_[i * stride_];
  }
  std::size_t payload(std::size_t i) const {
    return static_cast<std::size_t>(records_[i * stride_ + stride_ - 1]);
  }

 private:
  const std::vector<ExprType>& types_;
  const std::size_t stride_;  // order words + payload
  std::vector<std::uint64_t> records_;
};

QueryExecution::QueryExecution(const CompiledQuery* plan)
    : plan_(plan),
      high_(std::make_unique<HighTable>(plan->agg_layout_,
                                        plan->group_exprs_.size())) {
  if (plan_->options_.two_level) {
    low_table_.resize(plan_->options_.low_level_slots);
    const std::size_t slots = low_table_.size();
    if ((slots & (slots - 1)) == 0) low_mask_ = slots - 1;
  }
  const EngineMetrics& em = EngineMetrics::Get();
  metrics_.packets = em.packets;
  metrics_.batches = em.batches;
  metrics_.tuples = em.tuples;
  metrics_.evictions = em.evictions;
  metrics_.groups_shed = em.groups_shed;
  metrics_.tuples_shed = em.tuples_shed;
  metrics_.groups = em.groups;
  metrics_.tuple_rate = em.tuple_rate;
  metrics_.batch_ns = em.batch_ns;
}

QueryExecution::~QueryExecution() {
  // Short-lived executions may never hit a periodic flush; publish the
  // tail deltas so process-wide counters stay exact.
  FlushMetrics();
  // Low-level states live in arena blocks that high_ frees.
  for (LowSlot& slot : low_table_) {
    if (slot.occupied) plan_->agg_layout_.Destroy(slot.group.states);
  }
}

void QueryExecution::FlushMetrics() {
  if (!FWDECAY_METRICS_ENABLED) return;  // constant-folds away when OFF
  const std::uint64_t d_packets = packets_consumed_ - flushed_packets_;
  const std::uint64_t d_batches = metrics_batch_seq_ - flushed_batches_;
  const std::uint64_t d_tuples = tuples_aggregated_ - flushed_tuples_;
  const std::uint64_t d_evict = low_level_evictions_ - flushed_evictions_;
  const std::uint64_t d_gshed = groups_shed_ - flushed_groups_shed_;
  const std::uint64_t d_tshed = tuples_shed_ - flushed_tuples_shed_;
  flushed_packets_ = packets_consumed_;
  flushed_batches_ = metrics_batch_seq_;
  flushed_tuples_ = tuples_aggregated_;
  flushed_evictions_ = low_level_evictions_;
  flushed_groups_shed_ = groups_shed_;
  flushed_tuples_shed_ = tuples_shed_;
  if (d_packets > 0) metrics_.packets->Increment(d_packets);
  if (d_batches > 0) metrics_.batches->Increment(d_batches);
  if (d_tuples > 0) metrics_.tuples->Increment(d_tuples);
  if (d_evict > 0) metrics_.evictions->Increment(d_evict);
  if (d_gshed > 0) metrics_.groups_shed->Increment(d_gshed);
  if (d_tshed > 0) metrics_.tuples_shed->Increment(d_tshed);
  metrics_.groups->Set(static_cast<double>(GroupCount()));
  if (d_tuples > 0) {
    metrics_.tuple_rate->Mark(metrics::MetricsRegistry::Instance().NowSeconds(),
                              static_cast<double>(d_tuples));
  }
}

void QueryExecution::UseShardMetrics(std::size_t shard_index) {
  if (!FWDECAY_METRICS_ENABLED) return;
  FlushMetrics();  // anything recorded so far belongs to the global family
  const std::string label = "shard=\"" + std::to_string(shard_index) + "\"";
  auto& reg = metrics::MetricsRegistry::Instance();
  metrics_.packets =
      reg.GetCounter("fwdecay_shard_packets_total",
                     "Post-filter rows routed to this shard.", label);
  metrics_.batches =
      reg.GetCounter("fwdecay_shard_batches_total",
                     "Routed batch fragments applied on this shard.", label);
  metrics_.tuples = reg.GetCounter("fwdecay_shard_tuples_total",
                                   "Tuples aggregated on this shard.", label);
  metrics_.evictions =
      reg.GetCounter("fwdecay_shard_low_evictions_total",
                     "Low-level evictions on this shard.", label);
  metrics_.groups_shed =
      reg.GetCounter("fwdecay_shard_groups_shed_total",
                     "Groups shed by this shard's overload policy.", label);
  metrics_.tuples_shed =
      reg.GetCounter("fwdecay_shard_tuples_shed_total",
                     "Tuples lost inside groups shed by this shard.", label);
  metrics_.groups = reg.GetGauge("fwdecay_shard_groups",
                                 "Live groups held by this shard.", label);
  // tuple_rate / batch_ns stay bound to the shared engine-wide families.
}

QueryExecution::Group* QueryExecution::FindOrCreateHighGroup(
    std::uint64_t hash, const std::uint64_t* key) {
  HighTable& table = *high_;
  bool placed = !table.slots.empty();
  std::size_t slot = 0;
  if (placed) {
    slot = table.Probe(hash, key);
    if (table.slots[slot] != nullptr) return table.slots[slot];
  }
  // A new group is about to be admitted; under a bounded-ingest policy
  // make room by shedding the lowest-weight incumbent instead of growing
  // without bound. The incoming group represents the newest tuples —
  // under forward decay the ones with the largest static weights — so
  // admitting it over the minimum-weight group is the principled choice.
  // Shedding reshapes probe chains, so the probed slot no longer holds.
  if (policy_.max_groups > 0 && high_group_count_ >= policy_.max_groups) {
    // A victim's states must hold every row resolved to it so far, and
    // its block is about to be reused: close the segment first.
    FlushSegment();
    while (high_group_count_ >= policy_.max_groups) ShedLowestWeightGroup();
    placed = false;
  }
  Group* g = table.AcquireShell();
  std::copy_n(key, table.key_arity, g->key);
  // fwdecay: hotpath-cold(new-group admission: states constructed in place once per group, not per row)
  plan_->agg_layout_.Construct(g->states);
  if (placed) {
    table.InsertAt(slot, hash, g);
  } else {
    table.Insert(hash, g);
  }
  ++high_group_count_;
  return g;
}

double QueryExecution::ForwardWeight(double ts) const {
  if (policy_.decay_alpha == 0.0) return 1.0;
  // Routed through the sanctioned g (scripts/analyze.py rule exp-pow):
  // core/decay.h owns the weight exponential and its rescaling algebra.
  return ExponentialG(policy_.decay_alpha).G(ts - policy_.landmark);
}

void QueryExecution::ShedLowestWeightGroup() {
  // Deterministic min scan: weight first, group key as tie-break, so the
  // shed victim does not depend on table layout (recovery replay must
  // reproduce the uninterrupted run exactly; the flat table's slot order
  // never influences which group loses the strict-minimum scan).
  std::size_t victim_slot = 0;
  const Group* victim = nullptr;
  for (std::size_t s = 0; s < high_->slots.size(); ++s) {
    const Group* g = high_->slots[s];
    if (g == nullptr) continue;
    if (victim == nullptr || g->weight < victim->weight ||
        (g->weight == victim->weight &&
         WordsLess(plan_->key_types_, g->key, victim->key))) {
      victim = g;
      victim_slot = s;
    }
  }
  FWDECAY_CHECK_MSG(victim != nullptr, "shedding from an empty group table");
  ++groups_shed_;
  tuples_shed_ += victim->tuples;
  // fwdecay: hotpath-cold(state destruction once per shed group, not per row)
  high_->ReleaseShell(high_->slots[victim_slot]);
  high_->EraseSlot(victim_slot);
  --high_group_count_;
}

void QueryExecution::EvictToHigh(LowSlot& slot) {
  Group* target = FindOrCreateHighGroup(slot.hash, slot.group.key);
  const AggStateLayout& layout = plan_->agg_layout_;
  for (std::size_t i = 0; i < layout.num_slots(); ++i) {
    // fwdecay: hotpath-cold(amortized-rare eviction; Merge runs once per evicted group, not per row)
    layout.State(target->states, i)->Merge(*layout.State(slot.group.states, i));
  }
  target->weight += slot.group.weight;
  target->tuples += slot.group.tuples;
  // fwdecay: hotpath-cold(state destruction once per evicted group, not per row)
  layout.Destroy(slot.group.states);
  slot.occupied = false;
  --low_occupied_;
  // The slot's block stays for the next tenant.
  slot.group.weight = 0.0;
  slot.group.tuples = 0;
  ++low_level_evictions_;
}

void QueryExecution::AdmitLow(LowSlot& slot, std::uint64_t hash,
                              const std::uint64_t* key) {
  // fwdecay: hotpath-cold(key words and state block carved from the arena once per low slot)
  high_->CarveBlock(&slot.group);
  std::copy_n(key, high_->key_arity, slot.group.key);
  // fwdecay: hotpath-cold(low-slot admission: states constructed in place once per group, not per row)
  plan_->agg_layout_.Construct(slot.group.states);
  slot.occupied = true;
  ++low_occupied_;
  slot.hash = hash;
}

void QueryExecution::Consume(const Packet& p) {
  single_.Clear();
  single_.Append(p);
  Consume(single_);
}

void QueryExecution::Consume(const PacketBatch& batch) {
  ConsumeFiltered(batch, plan_->protocol_filter_, plan_->where_.get());
}

void QueryExecution::ConsumeFiltered(const PacketBatch& batch,
                                     std::uint8_t protocol_filter,
                                     const Expr* where) {
  // 1-in-kMetricsSamplePeriod batches get a wall-clock sample into the
  // decayed ns-per-batch reservoir; a null handle means the clock is
  // never read. The periodic FlushMetrics() below publishes counter
  // deltas. Both compile to nothing under FWDECAY_METRICS=OFF.
  metrics::LatencyReservoir* sampled_reservoir =
      (FWDECAY_METRICS_ENABLED &&
       metrics_batch_seq_ % kMetricsSamplePeriod == 0)
          ? metrics_.batch_ns
          : nullptr;
  metrics::ScopedTimerSample batch_timer(
      sampled_reservoir,
      sampled_reservoir != nullptr
          // fwdecay: hotpath-cold(1-in-64 sampled batch timer reads the clock)
          ? metrics::MetricsRegistry::Instance().NowSeconds()
          : 0.0);
  if (FWDECAY_METRICS_ENABLED &&
      ++metrics_batch_seq_ % kMetricsFlushPeriod == 0) {
    // fwdecay: hotpath-cold(1-in-64 periodic metrics flush)
    FlushMetrics();
  }

  packets_consumed_ += batch.size();
  if (batch.empty()) return;
  AggregateSelection(
      batch, SelectRows(batch, protocol_filter, where, &sel_, &batch_scratch_));
}

void QueryExecution::AggregateSelection(const PacketBatch& batch,
                                        std::size_t n) {
  if (n == 0) return;
  tuples_aggregated_ += n;
  const std::size_t num_groups = plan_->group_exprs_.size();
  const std::size_t num_slots = plan_->agg_names_.size();

  // Evaluate group-key and aggregate-argument columns once per batch,
  // dense over the selection (column i = row sel_[i]).
  key_cols_.resize(num_groups);
  for (std::size_t g = 0; g < num_groups; ++g) {
    EvalExprBatch(*plan_->group_exprs_[g], batch, sel_.data(), n,
                  &batch_scratch_, &key_cols_[g]);
  }
  arg_cols_.resize(num_slots);
  for (std::size_t slot = 0; slot < num_slots; ++slot) {
    const auto& args = plan_->agg_args_[slot];
    arg_cols_[slot].resize(args.size());
    for (std::size_t a = 0; a < args.size(); ++a) {
      EvalExprBatch(*args[a], batch, sel_.data(), n, &batch_scratch_,
                    &arg_cols_[slot][a]);
    }
  }

  // Group hash per selected row, column at a time (vectorized).
  hashes_.resize(n);
  HashKeys(plan_->key_types_,
           [this](std::size_t g) { return key_cols_[g].words(); }, n,
           hashes_.data());
  row_index_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    row_index_[i] = static_cast<std::uint32_t>(i);
  }
  row_blocks_.resize(n);
  row_key_.resize(num_groups);

  // Phase 1: resolve runs of consecutive equal-key rows to their
  // groups. A run resolves its group once; re-resolving an identical
  // key between the run's rows would be side-effect-free (same slot, no
  // eviction, no shed), so skipping it leaves every observable state
  // bit-identical to the per-row loop. Forward weights are added here,
  // per row in stream order, so a shed scan sees per-tuple weights.
  // Aggregate updates wait for phase 2 (FlushSegment), which runs
  // before any eviction or shed and once at the end of the batch.
  //
  // A run's key is gathered once into row_key_ as words; run scans,
  // slot hit tests and high-table probes compare words.
  const double* times = batch.time();
  seg_begin_ = 0;
  seg_runs_ = 0;
  std::size_t i = 0;
  while (i < n) {
    for (std::size_t g = 0; g < num_groups; ++g) {
      row_key_[g] = key_cols_[g].word(i);
    }
    const std::uint64_t* key = row_key_.data();
    const std::uint64_t hash = hashes_[i];
    std::size_t j = i + 1;
    while (j < n && hashes_[j] == hash && RowKeyEquals(key_cols_, j, key)) {
      ++j;
    }
    seg_end_ = i;  // a flush from here on applies the rows before i

    Group* target = nullptr;
    if (!plan_->options_.two_level) {
      target = FindOrCreateHighGroup(hash, key);
    } else {
      LowSlot& slot =
          low_table_[low_mask_ != 0 ? (hash & low_mask_)
                                    : (hash % low_table_.size())];
      const bool hit = slot.occupied && slot.hash == hash &&
                       WordsEqual(slot.group.key, key, num_groups);
      if (!hit) {
        if (slot.occupied) {
          // The merge reads the tenant's states and its block is reused
          // by the newcomer: apply the rows resolved so far first.
          FlushSegment();
          EvictToHigh(slot);
        }
        AdmitLow(slot, hash, key);
      }
      target = &slot.group;
    }
    for (std::size_t r = i; r < j; ++r) {
      target->weight += ForwardWeight(times[sel_[r]]);
    }
    target->tuples += j - i;
    std::fill(row_blocks_.begin() + static_cast<std::ptrdiff_t>(i),
              row_blocks_.begin() + static_cast<std::ptrdiff_t>(j),
              target->states);
    ++seg_runs_;
    i = j;
  }
  seg_end_ = n;
  FlushSegment();
}

void QueryExecution::FlushSegment() {
  const std::size_t begin = seg_begin_;
  const std::size_t len = seg_end_ - begin;
  const std::size_t runs = seg_runs_;
  seg_begin_ = seg_end_;
  seg_runs_ = 0;
  if (len == 0) return;
  // Phase 2. Per-slot states are independent, and every state receives
  // its rows in stream order whichever slot goes first, so each state's
  // sequence of updates is the per-tuple one.
  const AggStateLayout& layout = plan_->agg_layout_;
  const std::span<const std::uint32_t> rows(row_index_.data() + begin, len);
  if (runs == 1) {
    // One group: a single UpdateBatch per slot, no per-row state array.
    std::byte* block = row_blocks_[begin];
    for (std::size_t slot = 0; slot < layout.num_slots(); ++slot) {
      layout.State(block, slot)->UpdateBatch(
          std::span<const ValueColumn>(arg_cols_[slot]), rows);
    }
    return;
  }
  slot_states_.resize(len);
  for (std::size_t slot = 0; slot < layout.num_slots(); ++slot) {
    for (std::size_t k = 0; k < len; ++k) {
      slot_states_[k] = layout.State(row_blocks_[begin + k], slot);
    }
    slot_states_[0]->UpdateStates(
        slot_states_, std::span<const ValueColumn>(arg_cols_[slot]), rows);
  }
}

void QueryExecution::CheckInvariants() const {
  // High level: every group is slotted under the hash of its key and is
  // reachable from its home slot through an unbroken linear-probe chain
  // (the tombstone-free deletion contract), no key appears twice,
  // aggregate arity matches the plan, and the cached counts are exact.
  // A violation here is precisely the kind of corruption the
  // differential fuzzers cannot see until an affected group is queried —
  // and Restore() of a hostile snapshot must never leave one behind.
  const std::size_t cap = high_->slots.size();
  FWDECAY_CHECK_MSG(cap == 0 || (cap & (cap - 1)) == 0,
                    "flat-table capacity is not a power of two");
  FWDECAY_CHECK_MSG(high_->hashes.size() == cap,
                    "flat-table slot arrays diverged in length");
  std::size_t high_n = 0;
  std::vector<std::pair<std::uint64_t, const Group*>> seen;
  seen.reserve(high_->size);
  for (std::size_t s = 0; s < cap; ++s) {
    const Group* g = high_->slots[s];
    if (g == nullptr) continue;
    ++high_n;
    const std::uint64_t hash = high_->hashes[s];
    FWDECAY_CHECK_MSG(WordsHash(plan_->key_types_, g->key) == hash,
                      "group filed under the wrong hash");
    FWDECAY_CHECK_MSG(g->states != nullptr || plan_->agg_names_.empty(),
                      "group has no state block for the plan's aggregates");
    FWDECAY_CHECK_MSG(g->weight >= 0.0 && !std::isnan(g->weight),
                      "group forward-decay weight is negative or NaN");
    // Probe invariant: no empty slot between the key's home slot and
    // where the group actually sits, or Probe() could never reach it.
    for (std::size_t p = hash & high_->mask; p != s;
         p = (p + 1) & high_->mask) {
      FWDECAY_CHECK_MSG(high_->slots[p] != nullptr,
                        "broken probe chain in the flat high table");
    }
    seen.emplace_back(hash, g);
  }
  // Equal keys imply equal hashes, so duplicate keys can only hide
  // inside equal-hash runs.
  std::sort(seen.begin(), seen.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i + 1 < seen.size(); ++i) {
    for (std::size_t j = i + 1;
         j < seen.size() && seen[j].first == seen[i].first; ++j) {
      FWDECAY_CHECK_MSG(!WordsEqual(seen[i].second->key, seen[j].second->key,
                                    high_->key_arity),
                        "duplicate group key in the flat high table");
    }
  }
  FWDECAY_CHECK_MSG(high_n == high_->size,
                    "flat-table occupancy count out of sync");
  FWDECAY_CHECK_MSG(high_n == high_group_count_,
                    "cached high-level group count out of sync");

  // Low level: the table's size is fixed by the plan options, and every
  // occupied slot sits at hash % slots with a key that re-hashes to the
  // stored hash.
  if (plan_->options_.two_level) {
    FWDECAY_CHECK_MSG(low_table_.size() == plan_->options_.low_level_slots,
                      "low-level table was resized after construction");
  } else {
    FWDECAY_CHECK_MSG(low_table_.empty(),
                      "low-level table allocated in one-level mode");
  }
  std::size_t low_n = 0;
  for (std::size_t s = 0; s < low_table_.size(); ++s) {
    const LowSlot& slot = low_table_[s];
    if (!slot.occupied) continue;
    ++low_n;
    FWDECAY_CHECK_MSG(slot.hash % low_table_.size() == s,
                      "low-level slot holds a group mapped elsewhere");
    FWDECAY_CHECK_MSG(WordsHash(plan_->key_types_, slot.group.key) == slot.hash,
                      "low-level slot hash diverged from its key");
    FWDECAY_CHECK_MSG(
        slot.group.states != nullptr || plan_->agg_names_.empty(),
        "low-level group has no state block for the plan's aggregates");
    FWDECAY_CHECK_MSG(slot.group.weight >= 0.0 && !std::isnan(slot.group.weight),
                      "low-level group weight is negative or NaN");
  }
  FWDECAY_CHECK_MSG(low_n == low_occupied_,
                    "cached low-level occupancy count out of sync");

  // Counters and the shedding contract.
  FWDECAY_CHECK_MSG(tuples_aggregated_ <= packets_consumed_,
                    "more tuples aggregated than packets consumed");
  if (policy_.max_groups > 0) {
    FWDECAY_CHECK_MSG(high_group_count_ <= policy_.max_groups,
                      "overload policy group bound exceeded");
  }
}

void QueryExecution::FlushLowLevel() {
  for (LowSlot& slot : low_table_) {
    if (slot.occupied) EvictToHigh(slot);
  }
}

void QueryExecution::ReleaseAllGroups() {
  for (LowSlot& slot : low_table_) {
    if (!slot.occupied) continue;
    plan_->agg_layout_.Destroy(slot.group.states);
    slot.occupied = false;
    slot.group.weight = 0.0;
    slot.group.tuples = 0;
  }
  low_occupied_ = 0;
  high_->Clear();
  high_group_count_ = 0;
}

void QueryExecution::Reset() {
  // Publish the finished window's tail deltas before the counters
  // rewind; the flush baselines rewind with them so the next window's
  // first flush publishes exact deltas again.
  FlushMetrics();
  ReleaseAllGroups();
  packets_consumed_ = 0;
  tuples_aggregated_ = 0;
  low_level_evictions_ = 0;
  groups_shed_ = 0;
  tuples_shed_ = 0;
  metrics_batch_seq_ = 0;
  flushed_packets_ = 0;
  flushed_batches_ = 0;
  flushed_tuples_ = 0;
  flushed_evictions_ = 0;
  flushed_groups_shed_ = 0;
  flushed_tuples_shed_ = 0;
}

ResultSet QueryExecution::Finish() {
  // Flush remaining low-level partial groups.
  FlushLowLevel();
  // Publish the tail counter deltas (including the evictions the flush
  // above just produced) before results are read.
  FlushMetrics();
  std::vector<Value> cells;
  KeyOrder order(plan_->key_types_);
  WalkGroups(&cells, &order);
  return OrderedResult(cells, &order);
}

void QueryExecution::WalkGroups(std::vector<Value>* cells,
                                KeyOrder* order) const {
  const AggStateLayout& layout = plan_->agg_layout_;
  const std::vector<ExprType>& key_types = plan_->key_types_;
  std::vector<Value> key_values(key_types.size());
  cells->reserve(cells->size() + high_group_count_ * layout.num_slots());
  high_->ForEach([&](std::size_t, const Group& g) {
    const std::size_t at = cells->size();
    for (std::size_t slot = 0; slot < layout.num_slots(); ++slot) {
      cells->push_back(layout.State(g.states, slot)->Finalize());
    }
    if (plan_->having_ != nullptr) {
      for (std::size_t k = 0; k < key_types.size(); ++k) {
        key_values[k] = WordValue(key_types[k], g.key[k]);
      }
      if (!EvalPostPredicate(*plan_->having_,
                             std::span<const Value>(*cells).subspan(at),
                             key_values)) {
        cells->resize(at);
        return;
      }
    }
    order->Add(g.key, at);
  });
}

ResultSet QueryExecution::OrderedResult(const std::vector<Value>& cells,
                                        KeyOrder* order) const {
  ResultSet result;
  for (const auto& out : plan_->outputs_) {
    result.columns.push_back(out.column_name);
  }
  // Rows are built, and so allocated, in key order: keys from the
  // records' order words, aggregates from the cells, which are read in
  // that order and so prefetched a few records ahead. A bare key or
  // aggregate output is copied; any other output is evaluated.
  order->Sort();
  const std::vector<ExprType>& key_types = plan_->key_types_;
  const std::size_t num_slots = plan_->agg_layout_.num_slots();
  constexpr std::size_t kCellsAhead = 8;
  std::vector<Value> key_values(key_types.size());
  result.rows.reserve(order->size());
  for (std::size_t i = 0; i < order->size(); ++i) {
    if (i + kCellsAhead < order->size() && num_slots > 0) {
      const Value* ahead = cells.data() + order->payload(i + kCellsAhead);
      __builtin_prefetch(ahead);
      __builtin_prefetch(ahead + num_slots - 1);
    }
    const std::uint64_t* words = order->words(i);
    for (std::size_t k = 0; k < key_types.size(); ++k) {
      key_values[k] = WordValue(key_types[k], KeyWord(key_types[k], words[k]));
    }
    const std::span<const Value> aggs(cells.data() + order->payload(i),
                                      num_slots);
    std::vector<Value>& row = result.rows.emplace_back();
    row.reserve(plan_->outputs_.size());
    for (const auto& out : plan_->outputs_) {
      const Expr& e = *out.post;
      if (e.kind == Expr::Kind::kAggRef) {
        row.push_back(aggs[static_cast<std::size_t>(e.agg_index)]);
      } else if (e.kind == Expr::Kind::kGroupRef) {
        row.push_back(key_values[static_cast<std::size_t>(e.group_index)]);
      } else {
        row.push_back(EvalPostExpr(e, aggs, key_values));
      }
    }
  }

  // ORDER BY (stable, lexicographic over the listed columns); the rows
  // are already in group-key order, which remains the tiebreaker.
  if (!plan_->order_by_.empty()) {
    std::stable_sort(
        result.rows.begin(), result.rows.end(),
        [this](const std::vector<Value>& a, const std::vector<Value>& b) {
          for (const auto& [col, desc] : plan_->order_by_) {
            const int cmp = Compare(a[col], b[col]);
            if (cmp != 0) return desc ? cmp > 0 : cmp < 0;
          }
          return false;
        });
  }
  if (plan_->limit_.has_value() &&
      result.rows.size() > static_cast<std::size_t>(*plan_->limit_)) {
    result.rows.resize(static_cast<std::size_t>(*plan_->limit_));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Checkpoint / restore
// ---------------------------------------------------------------------------
//
// Snapshot file layout (normative byte-offset tables: DESIGN.md §6.2):
//   8 bytes   magic "FWDSNAP1"
//   u32       format version (1)
//   u32       CRC32C of the payload
//   u64       payload length
//   payload   versioned ByteWriter frame (plan fingerprint, counters,
//             shedding policy + counters, low slots, high groups)
// The file is written through FaultFs::AtomicWriteFile, so a crash at
// any byte leaves either the previous snapshot or this one, never a mix;
// the CRC catches torn or bit-rotted payloads at restore time.

namespace {

constexpr char kSnapshotMagic[8] = {'F', 'W', 'D', 'S', 'N', 'A', 'P', '1'};
constexpr std::uint32_t kSnapshotVersion = 1;

}  // namespace

bool QueryExecution::SerializeGroup(const Group& group, ByteWriter* writer,
                                    std::string* error) const {
  // Each key word as a tagged Value frame (Value::SerializeTo's tags).
  const std::vector<ExprType>& key_types = plan_->key_types_;
  writer->WriteU32(static_cast<std::uint32_t>(key_types.size()));
  for (std::size_t k = 0; k < key_types.size(); ++k) {
    writer->WriteU8(KeyTag(key_types[k]));
    writer->WriteU64(group.key[k]);
  }
  writer->WriteDouble(group.weight);
  writer->WriteU64(group.tuples);
  const AggStateLayout& layout = plan_->agg_layout_;
  for (std::size_t slot = 0; slot < layout.num_slots(); ++slot) {
    // Each aggregate gets its own length-prefixed frame so Restore can
    // hand it a bounded sub-reader and verify full consumption.
    ByteWriter agg_writer;
    if (!layout.State(group.states, slot)->SerializeTo(&agg_writer)) {
      *error = "aggregate '" + plan_->agg_names_[slot] +
               "' does not support checkpointing";
      return false;
    }
    const std::vector<std::uint8_t>& frame = agg_writer.bytes();
    writer->WriteU32(static_cast<std::uint32_t>(frame.size()));
    writer->WriteBytes(frame.data(), frame.size());
  }
  return true;
}

bool QueryExecution::RestoreGroup(ByteReader* reader, Group* group) {
  // A key column's tag must be the plan's type for it: a snapshot key
  // of another type would never equal a live row's key.
  const std::vector<ExprType>& key_types = plan_->key_types_;
  std::uint32_t key_size = 0;
  if (!reader->ReadU32(&key_size) || key_size != key_types.size()) {
    return false;
  }
  for (std::size_t k = 0; k < key_types.size(); ++k) {
    std::uint8_t tag = 0;
    if (!reader->ReadU8(&tag) || tag != KeyTag(key_types[k]) ||
        !reader->ReadU64(&group->key[k])) {
      return false;
    }
  }
  if (!reader->ReadDouble(&group->weight) || !reader->ReadU64(&group->tuples)) {
    return false;
  }
  const AggStateLayout& layout = plan_->agg_layout_;
  layout.Construct(group->states);
  for (std::size_t slot = 0; slot < layout.num_slots(); ++slot) {
    std::uint32_t frame_len = 0;
    ByteReader frame(nullptr, 0);
    if (!reader->ReadU32(&frame_len) ||
        !reader->ReadSubReader(frame_len, &frame) ||
        !layout.State(group->states, slot)->RestoreFrom(&frame) ||
        !frame.Exhausted()) {
      layout.Destroy(group->states);
      return false;
    }
  }
  return true;
}

metrics::LatencyReservoir* CheckpointLatencyReservoir() {
  return EngineMetrics::Get().checkpoint_ns;
}

bool QueryExecution::Checkpoint(const std::string& path,
                                std::string* error) const {
  // Cold path: timed unconditionally (serialize + CRC + atomic write,
  // i.e. the fsyncs dominate — see also fwdecay_faultfs_fsync_ns).
  metrics::ScopedTimerSample checkpoint_timer(
      CheckpointLatencyReservoir(),
      metrics::MetricsRegistry::Instance().NowSeconds());
  std::vector<std::uint8_t> image;
  if (!CheckpointBytes(&image, error)) return false;
  if (!FaultFs::Instance().AtomicWriteFile(path, image, error)) {
    return false;
  }
  EngineMetrics::Get().checkpoints->Increment();
  EngineMetrics::Get().checkpoint_bytes->Increment(image.size());
  return true;
}

bool QueryExecution::CheckpointBytes(std::vector<std::uint8_t>* out,
                                     std::string* error) const {
  ByteWriter payload;
  payload.WriteU64(plan_->Fingerprint());
  payload.WriteU8(plan_->options_.two_level ? 1 : 0);
  payload.WriteU64(plan_->options_.low_level_slots);
  payload.WriteU64(packets_consumed_);
  payload.WriteU64(tuples_aggregated_);
  payload.WriteU64(low_level_evictions_);
  payload.WriteU64(groups_shed_);
  payload.WriteU64(tuples_shed_);
  payload.WriteU64(policy_.max_groups);
  payload.WriteDouble(policy_.decay_alpha);
  payload.WriteDouble(policy_.landmark);

  std::uint32_t occupied = 0;
  for (const LowSlot& slot : low_table_) {
    if (slot.occupied) ++occupied;
  }
  payload.WriteU32(occupied);
  for (std::size_t i = 0; i < low_table_.size(); ++i) {
    const LowSlot& slot = low_table_[i];
    if (!slot.occupied) continue;
    payload.WriteU64(i);
    payload.WriteU64(slot.hash);
    if (!SerializeGroup(slot.group, &payload, error)) return false;
  }

  // High groups in deterministic key order: snapshots of equal states
  // are byte-identical regardless of table history (insertion order,
  // rehashes, and backward-shift deletions never reach the wire).
  KeyOrder order(plan_->key_types_);
  high_->ForEach(
      [&order](std::size_t s, const Group& g) { order.Add(g.key, s); });
  order.Sort();
  payload.WriteU32(static_cast<std::uint32_t>(order.size()));
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (!SerializeGroup(*high_->slots[order.payload(i)], &payload, error)) {
      return false;
    }
  }

  const std::vector<std::uint8_t>& body = payload.bytes();
  ByteWriter file;
  file.WriteBytes(kSnapshotMagic, sizeof(kSnapshotMagic));
  file.WriteU32(kSnapshotVersion);
  file.WriteU32(Crc32c(body.data(), body.size()));
  file.WriteU64(body.size());
  file.WriteBytes(body.data(), body.size());
  *out = file.Take();
  return true;
}

bool QueryExecution::Restore(const std::string& path, std::string* error) {
  // Recovery replay time: the snapshot-load half is timed here; the
  // re-ingest half shows up in the ordinary Consume() counters as the
  // caller re-feeds the trace from packets_consumed().
  metrics::ScopedTimerSample restore_timer(
      EngineMetrics::Get().restore_ns,
      metrics::MetricsRegistry::Instance().NowSeconds());
  std::vector<std::uint8_t> bytes;
  if (!FaultFs::Instance().ReadFile(path, &bytes, error)) return false;
  return RestoreBytes(bytes.data(), bytes.size(), error);
}

bool QueryExecution::RestoreBytes(const std::uint8_t* data, std::size_t size,
                                  std::string* error) {
  ByteReader header(data, size);
  char magic[8] = {};
  std::uint32_t version = 0;
  std::uint32_t crc = 0;
  std::uint64_t payload_len = 0;
  ByteReader payload(nullptr, 0);
  for (char& c : magic) {
    std::uint8_t b = 0;
    if (!header.ReadU8(&b)) {
      *error = "snapshot truncated before header";
      return false;
    }
    c = static_cast<char>(b);
  }
  if (std::memcmp(magic, kSnapshotMagic, sizeof(magic)) != 0) {
    *error = "not a FWDSNAP1 snapshot";
    return false;
  }
  if (!header.ReadU32(&version) || version != kSnapshotVersion) {
    *error = "unsupported snapshot version";
    return false;
  }
  if (!header.ReadU32(&crc) || !header.ReadU64(&payload_len) ||
      payload_len != header.Remaining() ||
      !header.ReadSubReader(payload_len, &payload)) {
    *error = "snapshot payload length mismatch";
    return false;
  }
  if (Crc32c(data + (size - payload_len), payload_len) != crc) {
    *error = "snapshot CRC mismatch (torn or corrupt write)";
    return false;
  }

  std::uint64_t fingerprint = 0;
  std::uint8_t two_level = 0;
  std::uint64_t low_slots = 0;
  if (!payload.ReadU64(&fingerprint) ||
      fingerprint != plan_->Fingerprint()) {
    *error = "snapshot was taken under a different query plan";
    return false;
  }
  if (!payload.ReadU8(&two_level) ||
      (two_level != 0) != plan_->options_.two_level ||
      !payload.ReadU64(&low_slots) ||
      low_slots != plan_->options_.low_level_slots) {
    *error = "snapshot engine options do not match this plan";
    return false;
  }
  std::uint64_t max_groups = 0;
  if (!payload.ReadU64(&packets_consumed_) ||
      !payload.ReadU64(&tuples_aggregated_) ||
      !payload.ReadU64(&low_level_evictions_) ||
      !payload.ReadU64(&groups_shed_) || !payload.ReadU64(&tuples_shed_) ||
      !payload.ReadU64(&max_groups) ||
      !payload.ReadDouble(&policy_.decay_alpha) ||
      !payload.ReadDouble(&policy_.landmark)) {
    *error = "snapshot counters truncated";
    return false;
  }
  policy_.max_groups = static_cast<std::size_t>(max_groups);

  ReleaseAllGroups();

  std::uint32_t occupied = 0;
  if (!payload.ReadU32(&occupied) || occupied > low_table_.size()) {
    *error = "snapshot low-level table corrupt";
    return false;
  }
  for (std::uint32_t i = 0; i < occupied; ++i) {
    std::uint64_t index = 0;
    std::uint64_t hash = 0;
    // A slot sits at its hash's home: a tenant filed anywhere else is
    // one no row's probe would ever hit.
    if (!payload.ReadU64(&index) || index >= low_table_.size() ||
        !payload.ReadU64(&hash) || hash % low_table_.size() != index ||
        low_table_[index].occupied) {
      *error = "snapshot low-level table corrupt";
      return false;
    }
    LowSlot& slot = low_table_[index];
    high_->CarveBlock(&slot.group);
    if (!RestoreGroup(&payload, &slot.group)) {
      *error = "snapshot low-level group corrupt";
      return false;
    }
    slot.occupied = true;
    ++low_occupied_;
    slot.hash = hash;
    if (WordsHash(plan_->key_types_, slot.group.key) != hash) {
      *error = "snapshot low-level slot hash does not match its key";
      return false;
    }
  }

  std::uint32_t n_groups = 0;
  // A group frame is at least 24 bytes (key count + weight + tuples +
  // one length prefix); bound the declared count before the loop.
  if (!payload.ReadU32(&n_groups) || n_groups > payload.Remaining() / 20) {
    *error = "snapshot group count corrupt";
    return false;
  }
  for (std::uint32_t i = 0; i < n_groups; ++i) {
    Group* g = high_->AcquireShell();
    if (!RestoreGroup(&payload, g)) {
      high_->free_shells.push_back(g);  // no live states to destroy
      *error = "snapshot group corrupt";
      return false;
    }
    const std::uint64_t key_hash = WordsHash(plan_->key_types_, g->key);
    std::size_t slot = 0;
    if (!high_->slots.empty()) {
      slot = high_->Probe(key_hash, g->key);
      if (high_->slots[slot] != nullptr) {
        plan_->agg_layout_.Destroy(g->states);
        high_->free_shells.push_back(g);
        *error = "snapshot lists a group twice";
        return false;
      }
    }
    high_->InsertAt(slot, key_hash, g);
    ++high_group_count_;
  }
  if (!payload.Exhausted()) {
    *error = "snapshot has trailing bytes";
    return false;
  }
  // The restored counters replace this execution's history; resync the
  // flush baselines so the next FlushMetrics() publishes only genuinely
  // new work (a baseline above the restored counter would underflow the
  // delta).
  flushed_packets_ = packets_consumed_;
  flushed_tuples_ = tuples_aggregated_;
  flushed_evictions_ = low_level_evictions_;
  flushed_groups_shed_ = groups_shed_;
  flushed_tuples_shed_ = tuples_shed_;
  EngineMetrics::Get().restores->Increment();
  return true;
}

// ---------------------------------------------------------------------------
// Pipelined execution (shared-nothing, DESIGN.md §14)
// ---------------------------------------------------------------------------

struct PipelinedQueryExecution::Shard {
  // Router -> worker: full sub-batches; ownership moves with the batch.
  BoundedQueue<PacketBatch> to_worker;
  // Worker -> router: consumed batches, Clear()'d for reuse.
  BoundedQueue<PacketBatch> recycle;
  std::unique_ptr<QueryExecution> exec;
  // Router-side gather under construction (not yet published).
  PacketBatch pending;
  sched::Thread worker;

  Shard(std::size_t ring_capacity, std::size_t batch_capacity)
      : to_worker(ring_capacity),
        recycle(ring_capacity),
        pending(batch_capacity) {}
};

PipelinedQueryExecution::PipelinedQueryExecution(const CompiledQuery& plan,
                                                 const Options& options)
    : plan_(&plan), options_(options) {
  FWDECAY_CHECK_MSG(options.num_shards > 0,
                    "PipelinedQueryExecution needs at least one shard");
  shards_.reserve(options.num_shards);
  shard_rows_.resize(options.num_shards);
  for (std::size_t s = 0; s < options.num_shards; ++s) {
    auto shard =
        std::make_unique<Shard>(options.ring_capacity, options.batch_capacity);
    shard->exec = plan.NewExecution();
    shard->exec->UseShardMetrics(s);
    shards_.push_back(std::move(shard));
  }
  // Spawn last: a worker only touches its own (fully constructed) shard,
  // and the spawn itself synchronizes-with the worker body.
  for (auto& shard : shards_) {
    shard->worker = sched::Thread([this, s = shard.get()] { WorkerLoop(*s); });
  }
}

PipelinedQueryExecution::~PipelinedQueryExecution() {
  if (quiesced_) return;
  // Abandoned without Finish(): drop the partial sub-batches; each worker
  // consumes what is already queued, then exits.
  for (auto& shard : shards_) shard->pending.Clear();
  Quiesce();
}

void PipelinedQueryExecution::Consume(const PacketBatch& batch) {
  FWDECAY_DCHECK(!quiesced_);
  packets_offered_ += batch.size();
  // Router-level offered-packet count goes to the engine-wide family;
  // the per-shard fwdecay_shard_* counters only see post-filter rows.
  EngineMetrics::Get().packets->Increment(batch.size());
  if (batch.empty()) return;

  // Stage 1 — filter + hash on the router thread, the same algebra as
  // the single-thread engine: the shared filter stage, group-key
  // columns, group hash, remixed shard index.
  const std::size_t n = SelectRows(batch, plan_->protocol_filter_,
                                   plan_->where_.get(), &sel_, &eval_scratch_);
  if (n == 0) return;

  const std::size_t num_groups = plan_->group_exprs_.size();
  if (key_cols_.size() < num_groups) key_cols_.resize(num_groups);
  for (std::size_t g = 0; g < num_groups; ++g) {
    EvalExprBatch(*plan_->group_exprs_[g], batch, sel_.data(), n,
                  &eval_scratch_, &key_cols_[g]);
  }
  hashes_.resize(n);
  HashKeys(plan_->key_types_,
           [this](std::size_t g) { return key_cols_[g].words(); }, n,
           hashes_.data());
  shard_ids_.resize(n);
  simd::ShardIndexU64(hashes_.data(), n, kShardRouteSeed,
                      static_cast<std::uint32_t>(shards_.size()),
                      shard_ids_.data());
  for (std::size_t s = 0; s < shards_.size(); ++s) shard_rows_[s].clear();
  for (std::size_t i = 0; i < n; ++i) {
    shard_rows_[shard_ids_[i]].push_back(sel_[i]);
  }

  // Stage 2 — gather each shard's rows (stream order preserved) into
  // that shard's pending sub-batch; full sub-batches transfer whole
  // through the shard's queue. Partial fills stay pending across Consume()
  // calls and are flushed by Quiesce().
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const auto& rows = shard_rows_[s];
    if (rows.empty()) continue;
    Shard& shard = *shards_[s];
    std::size_t off = 0;
    while (off < rows.size()) {
      const std::size_t room =
          shard.pending.capacity() - shard.pending.size();
      const std::size_t take = std::min(room, rows.size() - off);
      shard.pending.AppendSelected(batch, rows.data() + off, take);
      off += take;
      if (shard.pending.full()) DispatchPending(shard);
    }
  }
}

void PipelinedQueryExecution::DispatchPending(Shard& shard) {
  if (shard.pending.empty()) return;
  while (!shard.to_worker.TryPush(std::move(shard.pending))) {
    // Backpressure: the shard's queue is full; let its worker run. The
    // failed TryPush leaves `pending` untouched.
    if (sched::InScheduledRegion()) {
      sched::Yield();
    } else {
      // fwdecay: hotpath-cold(backpressure wait runs only when the bounded queue is full)
      std::this_thread::yield();
    }
  }
  if (!shard.recycle.TryPop(&shard.pending)) {
    // fwdecay: hotpath-cold(pool warm-up allocation; the steady state reuses recycled batches)
    shard.pending = PacketBatch(options_.batch_capacity);
  }
}

void PipelinedQueryExecution::WorkerLoop(Shard& shard) {
  PacketBatch batch(1);
  // Pop parks the worker until the router hands over a batch, and
  // returns false once the queue is closed and drained.
  while (shard.to_worker.Pop(&batch)) {
    // The router already applied the plan's filter to every row.
    shard.exec->ConsumeFiltered(batch, /*protocol_filter=*/0,
                                /*where=*/nullptr);
    batch.Clear();
    // Offer the cleared batch back to the router; dropping it when the
    // recycle queue is full is fine (the router allocates a fresh one).
    (void)shard.recycle.TryPush(std::move(batch));
  }
}

void PipelinedQueryExecution::SetOverloadPolicy(const OverloadPolicy& policy) {
  FWDECAY_CHECK_MSG(packets_offered_ == 0,
                    "SetOverloadPolicy must precede the first Consume()");
  // No worker has received a batch yet, so no worker touches its exec;
  // the first handoff's lock orders this write before any worker read.
  for (auto& shard : shards_) shard->exec->SetOverloadPolicy(policy);
}

void PipelinedQueryExecution::Quiesce() {
  if (quiesced_) return;
  quiesced_ = true;
  for (auto& shard : shards_) {
    DispatchPending(*shard);
    shard->to_worker.Close();
  }
  for (auto& shard : shards_) shard->worker.Join();
}

ResultSet PipelinedQueryExecution::Finish() {
  FWDECAY_CHECK_MSG(!finished_,
                    "PipelinedQueryExecution::Finish is one-shot");
  Quiesce();
  finished_ = true;
  // Each shard flushes its low level under its own policy (so per-shard
  // shedding bounds apply through the flush, exactly as in the
  // single-thread Finish) and walks its table into cells and key records.
  // Shard key spaces are disjoint, so ordering every shard's records by
  // their order words is the order the single-thread Finish sorts into,
  // and every group is finalized where it lives — no aggregate Merge, no
  // FP reassociation, no re-shedding (Section VI-B). HAVING applies per
  // group in the walk; ORDER BY and LIMIT then apply once.
  std::vector<Value> cells;
  QueryExecution::KeyOrder order(plan_->key_types_);
  for (auto& shard : shards_) {
    shard->exec->FlushLowLevel();
    // Publish the tail deltas now that the shard has quiesced, so a
    // scrape right after Finish() sees counts matching the result set
    // instead of lagging by up to kMetricsFlushPeriod batches.
    shard->exec->FlushMetrics();
    shard->exec->WalkGroups(&cells, &order);
  }
  // Every shard runs the same plan, so any shard builds the rows.
  return shards_.front()->exec->OrderedResult(cells, &order);
}

std::uint64_t PipelinedQueryExecution::SumQuiesced(
    std::uint64_t (QueryExecution::*getter)() const) const {
  FWDECAY_CHECK_MSG(quiesced_,
                    "pipeline stats are valid once Quiesce() has run");
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += (shard->exec.get()->*getter)();
  return total;
}

std::uint64_t PipelinedQueryExecution::tuples_aggregated() const {
  return SumQuiesced(&QueryExecution::tuples_aggregated);
}

std::uint64_t PipelinedQueryExecution::low_level_evictions() const {
  return SumQuiesced(&QueryExecution::low_level_evictions);
}

std::uint64_t PipelinedQueryExecution::groups_shed() const {
  return SumQuiesced(&QueryExecution::groups_shed);
}

std::uint64_t PipelinedQueryExecution::tuples_shed() const {
  return SumQuiesced(&QueryExecution::tuples_shed);
}

std::size_t PipelinedQueryExecution::GroupCount() const {
  FWDECAY_CHECK_MSG(quiesced_,
                    "pipeline stats are valid once Quiesce() has run");
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->exec->GroupCount();
  return total;
}

void PipelinedQueryExecution::CheckInvariants() const {
  FWDECAY_CHECK_MSG(quiesced_,
                    "the pipeline audit is valid once Quiesce() has run");
  for (const auto& shard : shards_) shard->exec->CheckInvariants();
}

std::string ResultSet::ToString() const {
  std::string s;
  for (std::size_t c = 0; c < columns.size(); ++c) {
    if (c > 0) s += "\t";
    s += columns[c];
  }
  s += "\n";
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) s += "\t";
      s += row[c].ToString();
    }
    s += "\n";
  }
  return s;
}

}  // namespace fwdecay::dsms
