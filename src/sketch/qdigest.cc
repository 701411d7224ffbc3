#include "sketch/qdigest.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>
#include <vector>

#include "util/check.h"

namespace fwdecay {

namespace {

int Depth(std::uint64_t id) {
  return 63 - std::countl_zero(id);
}

}  // namespace

QDigest::QDigest(int universe_bits, double eps)
    : universe_bits_(universe_bits), eps_(eps) {
  FWDECAY_CHECK_MSG(universe_bits >= 1 && universe_bits <= 62,
                    "universe_bits must be in [1, 62]");
  FWDECAY_CHECK_MSG(eps > 0.0 && eps < 1.0, "eps must be in (0, 1)");
  k_ = std::ceil(static_cast<double>(universe_bits) / eps);
  nodes_.reserve(static_cast<std::size_t>(8.0 * k_ / universe_bits) + 16);
}

std::uint64_t QDigest::RangeHi(std::uint64_t id) const {
  const int depth = Depth(id);
  const int shift = universe_bits_ - depth;
  const std::uint64_t offset = id - (std::uint64_t{1} << depth);
  return ((offset + 1) << shift) - 1;
}

std::uint64_t QDigest::RangeLo(std::uint64_t id) const {
  const int depth = Depth(id);
  const int shift = universe_bits_ - depth;
  const std::uint64_t offset = id - (std::uint64_t{1} << depth);
  return offset << shift;
}

void QDigest::Update(std::uint64_t value, double weight) {
  FWDECAY_DCHECK(weight > 0.0);
  FWDECAY_CHECK_MSG(value < (std::uint64_t{1} << universe_bits_),
                    "value outside q-digest universe");
  nodes_[LeafId(value)] += weight;
  total_weight_ += weight;
  // Compress lazily: the size bound only needs to hold up to a constant,
  // and compressing every O(k) updates keeps amortized cost O(1) map ops.
  if (++updates_since_compress_ >=
      static_cast<std::size_t>(k_) + 16) {
    Compress();
  }
}

void QDigest::Compress() {
  updates_since_compress_ = 0;
  if (nodes_.empty()) return;
  const double threshold = total_weight_ / k_;

  // Bottom-up, level by level, so that merges cascade: a parent created
  // by merging level-d nodes is itself a candidate at level d-1.
  std::vector<std::vector<std::uint64_t>> by_level(
      static_cast<std::size_t>(universe_bits_) + 1);
  for (const auto& [id, w] : nodes_) {
    by_level[static_cast<std::size_t>(Depth(id))].push_back(id);
  }
  for (int level = universe_bits_; level >= 1; --level) {
    for (std::uint64_t id : by_level[static_cast<std::size_t>(level)]) {
      auto it = nodes_.find(id);
      if (it == nodes_.end()) continue;  // merged as a sibling already
      const std::uint64_t sibling = id ^ 1;
      const std::uint64_t parent = id >> 1;
      double group = it->second;
      auto sib_it = nodes_.find(sibling);
      if (sib_it != nodes_.end()) group += sib_it->second;
      auto par_it = nodes_.find(parent);
      const bool parent_existed = par_it != nodes_.end();
      if (parent_existed) group += par_it->second;
      if (group > threshold) continue;
      // Erase before inserting: operator[] may rehash and invalidate the
      // iterators captured above.
      nodes_.erase(id);
      if (sib_it != nodes_.end()) nodes_.erase(sibling);
      nodes_[parent] = group;
      if (!parent_existed) {
        by_level[static_cast<std::size_t>(level) - 1].push_back(parent);
      }
    }
  }
}

std::uint64_t QDigest::Quantile(double phi) const {
  FWDECAY_CHECK(phi >= 0.0 && phi <= 1.0);
  if (nodes_.empty()) return 0;
  // Order nodes by ascending range-hi, breaking ties deeper-node-first:
  // this is the left-to-right postorder in which a node's weight is
  // counted after everything strictly inside and left of its range.
  std::vector<std::pair<std::uint64_t, double>> ordered(nodes_.begin(),
                                                        nodes_.end());
  std::sort(ordered.begin(), ordered.end(),
            [this](const auto& a, const auto& b) {
              const std::uint64_t ha = RangeHi(a.first);
              const std::uint64_t hb = RangeHi(b.first);
              if (ha != hb) return ha < hb;
              return Depth(a.first) > Depth(b.first);
            });
  const double target = phi * total_weight_;
  double acc = 0.0;
  for (const auto& [id, w] : ordered) {
    acc += w;
    if (acc >= target) return RangeHi(id);
  }
  return RangeHi(ordered.back().first);
}

double QDigest::Rank(std::uint64_t v) const {
  double rank = 0.0;
  for (const auto& [id, w] : nodes_) {
    if (RangeHi(id) <= v) rank += w;
  }
  return rank;
}

void QDigest::Merge(const QDigest& other) {
  FWDECAY_CHECK_MSG(universe_bits_ == other.universe_bits_,
                    "q-digest universes must match to merge");
  for (const auto& [id, w] : other.nodes_) nodes_[id] += w;
  total_weight_ += other.total_weight_;
  Compress();
}

void QDigest::ScaleWeights(double factor) {
  FWDECAY_CHECK(factor > 0.0);
  for (auto& [id, w] : nodes_) w *= factor;
  total_weight_ *= factor;
}

void QDigest::CheckInvariants() const {
  FWDECAY_CHECK_MSG(!std::isnan(total_weight_) && total_weight_ >= 0.0,
                    "q-digest total weight negative or NaN");
  FWDECAY_CHECK_MSG(updates_since_compress_ <
                        static_cast<std::size_t>(k_) + 16,
                    "lazy-compression counter at or past its trigger "
                    "(Update() would have compressed)");
  const std::uint64_t max_id = std::uint64_t{2} << universe_bits_;
  double sum = 0.0;
  for (const auto& [id, w] : nodes_) {
    FWDECAY_CHECK_MSG(id >= 1 && id < max_id,
                      "node id outside the implicit tree");
    FWDECAY_CHECK_MSG(!std::isnan(w) && w >= 0.0,
                      "node weight negative or NaN");
    sum += w;
  }
  // Weight conservation: Update/Merge add to a node and the total in
  // lockstep; Compress/ScaleWeights preserve the sum (the latter up to
  // floating-point rounding).
  const double tol = 1e-6 * std::max(1.0, std::max(sum, total_weight_));
  FWDECAY_CHECK_MSG(std::abs(sum - total_weight_) <= tol,
                    "node weights do not sum to TotalWeight()");
}

std::size_t QDigest::MemoryBytes() const {
  // id (8) + weight (8) + hash-table overhead (~16) per node.
  return nodes_.size() * 32;
}

void QDigest::SerializeTo(ByteWriter* writer) const {
  // Tag 0x52 is the v2 frame: v1 (0x51) plus the lazy-compression
  // counter, which engine checkpointing needs — the *timing* of future
  // Compress() calls, not just the node set, determines the digest's
  // exact future state, and recovery must match the uninterrupted run.
  writer->WriteU8(0x52);
  writer->WriteU8(static_cast<std::uint8_t>(universe_bits_));
  writer->WriteDouble(eps_);
  writer->WriteDouble(total_weight_);
  writer->WriteU64(updates_since_compress_);
  writer->WriteU32(static_cast<std::uint32_t>(nodes_.size()));
  // Ascending ids, not hash-map order: equal digests serialize to equal
  // bytes whatever order their maps were filled in (a restored digest's
  // map is filled from the snapshot, the original's by its updates).
  std::vector<std::pair<std::uint64_t, double>> nodes(nodes_.begin(),
                                                      nodes_.end());
  std::sort(nodes.begin(), nodes.end());
  for (const auto& [id, w] : nodes) {
    writer->WriteU64(id);
    writer->WriteDouble(w);
  }
}

std::optional<QDigest> QDigest::Deserialize(ByteReader* reader) {
  std::uint8_t tag = 0;
  std::uint8_t bits = 0;
  double eps = 0.0;
  double total = 0.0;
  std::uint64_t since_compress = 0;
  std::uint32_t n = 0;
  if (!reader->ReadU8(&tag) || (tag != 0x51 && tag != 0x52)) {
    return std::nullopt;
  }
  if (!reader->ReadU8(&bits) || bits < 1 || bits > 62) return std::nullopt;
  if (!reader->ReadDouble(&eps) || !(eps > 0.0 && eps < 1.0)) {
    return std::nullopt;
  }
  if (!reader->ReadDouble(&total)) return std::nullopt;
  if (tag == 0x52 && !reader->ReadU64(&since_compress)) return std::nullopt;
  if (!reader->ReadU32(&n)) return std::nullopt;
  // Each node is 16 serialized bytes; a count exceeding the remaining
  // input is corrupt. Checking before reserve() keeps a hostile header
  // from demanding a multi-gigabyte allocation.
  if (n > reader->Remaining() / 16) return std::nullopt;
  QDigest out(bits, eps);
  out.total_weight_ = total;
  out.updates_since_compress_ = static_cast<std::size_t>(since_compress);
  const std::uint64_t max_id = std::uint64_t{2} << bits;
  out.nodes_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint64_t id = 0;
    double w = 0.0;
    if (!reader->ReadU64(&id) || !reader->ReadDouble(&w)) {
      return std::nullopt;
    }
    if (id == 0 || id >= max_id || w < 0.0) return std::nullopt;  // corrupt
    out.nodes_[id] += w;
  }
  return out;
}

}  // namespace fwdecay
