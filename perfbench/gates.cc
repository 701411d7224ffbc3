#include "gates.h"

#include <algorithm>
#include <cstring>
#include <thread>

#include "dsms/packet.h"

namespace perfbench {

using fwdecay::dsms::ResultSet;
using fwdecay::dsms::Value;

namespace {

bool SameValue(const Value& a, const Value& b) {
  if (a.is_int() && b.is_int()) return a.AsInt() == b.AsInt();
  if (a.is_double() && b.is_double()) {
    const double x = a.AsDouble(), y = b.AsDouble();
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  }
  if (a.is_string() && b.is_string()) return a.AsString() == b.AsString();
  return false;
}

std::string Where(std::size_t row, std::size_t col) {
  return "row " + std::to_string(row) + " col " + std::to_string(col);
}

std::string ShapeMismatch(const ResultSet& got, const ResultSet& ref) {
  if (got.rows.size() != ref.rows.size()) {
    return "row count " + std::to_string(got.rows.size()) + " != " +
           std::to_string(ref.rows.size());
  }
  if (got.columns != ref.columns) return "column names differ";
  return "";
}

}  // namespace

ExactCountSum BuildExactCountSum(
    const std::vector<fwdecay::dsms::PacketBatch>& batches) {
  ExactCountSum ref;
  for (const auto& b : batches) {
    for (std::size_t i = 0; i < b.size(); ++i) {
      if (b.protocol()[i] != fwdecay::dsms::kProtoTcp) continue;
      const CountSumKey key{static_cast<std::int64_t>(b.time()[i]) / 60,
                            b.dest_ip()[i], b.dest_port()[i]};
      auto& cell = ref[key];
      cell.first += 1;
      cell.second += b.len()[i];
    }
  }
  return ref;
}

std::string CheckCountSum(const ResultSet& rs, const ExactCountSum& ref) {
  if (rs.rows.size() != ref.size()) {
    return "groups " + std::to_string(rs.rows.size()) + " != exact " +
           std::to_string(ref.size());
  }
  for (std::size_t r = 0; r < rs.rows.size(); ++r) {
    const auto& row = rs.rows[r];
    if (row.size() != 5) return "expected 5 columns";
    for (const auto& v : row) {
      if (!v.is_int()) return Where(r, 0) + ": non-integer cell";
    }
    auto it = ref.find({row[0].AsInt(), row[1].AsInt(), row[2].AsInt()});
    if (it == ref.end()) return Where(r, 0) + ": group absent from exact map";
    if (row[3].AsInt() != it->second.first) return Where(r, 3) + ": count";
    if (row[4].AsInt() != it->second.second) return Where(r, 4) + ": sum";
  }
  return "";
}

std::string CheckIntColumns(const ResultSet& got, const ResultSet& ref) {
  std::string shape = ShapeMismatch(got, ref);
  if (!shape.empty()) return shape;
  for (std::size_t r = 0; r < got.rows.size(); ++r) {
    if (got.rows[r].size() != ref.rows[r].size()) return Where(r, 0) + ": width";
    for (std::size_t c = 0; c < got.rows[r].size(); ++c) {
      const Value& a = got.rows[r][c];
      const Value& b = ref.rows[r][c];
      if (a.is_int() != b.is_int()) return Where(r, c) + ": type";
      if (a.is_int() && a.AsInt() != b.AsInt()) return Where(r, c);
    }
  }
  return "";
}

std::string CheckBucketsSum(
    const std::vector<std::pair<std::int64_t, ResultSet>>& buckets,
    const ResultSet& total) {
  ExactCountSum summed;
  for (const auto& [bucket, rs] : buckets) {
    for (const auto& row : rs.rows) {
      if (row.size() != 5) return "bucket " + std::to_string(bucket) + ": width";
      auto& cell = summed[{row[0].AsInt(), row[1].AsInt(), row[2].AsInt()}];
      cell.first += row[3].AsInt();
      cell.second += row[4].AsInt();
    }
  }
  return CheckCountSum(total, summed);
}

std::string CheckSame(const ResultSet& got, const ResultSet& ref) {
  std::string shape = ShapeMismatch(got, ref);
  if (!shape.empty()) return shape;
  for (std::size_t r = 0; r < got.rows.size(); ++r) {
    if (got.rows[r].size() != ref.rows[r].size()) return Where(r, 0) + ": width";
    for (std::size_t c = 0; c < got.rows[r].size(); ++c) {
      if (!SameValue(got.rows[r][c], ref.rows[r][c])) return Where(r, c);
    }
  }
  return "";
}

std::string CheckSameSampleSize(const ResultSet& got, const ResultSet& ref,
                                std::size_t sample_col) {
  std::string shape = ShapeMismatch(got, ref);
  if (!shape.empty()) return shape;
  for (std::size_t r = 0; r < got.rows.size(); ++r) {
    if (got.rows[r].size() != ref.rows[r].size()) return Where(r, 0) + ": width";
    for (std::size_t c = 0; c < got.rows[r].size(); ++c) {
      const Value& a = got.rows[r][c];
      const Value& b = ref.rows[r][c];
      if (c != sample_col) {
        if (!SameValue(a, b)) return Where(r, c);
        continue;
      }
      if (!a.is_string() || !b.is_string()) return Where(r, c) + ": type";
      if (std::count(a.AsString().begin(), a.AsString().end(), ',') !=
          std::count(b.AsString().begin(), b.AsString().end(), ',')) {
        return Where(r, c) + ": sample size";
      }
    }
  }
  return "";
}

std::vector<ResultSet> ReferenceFromAcks(
    const std::vector<PlanSpec>& queries, std::vector<AckedBatch> acks,
    const std::vector<fwdecay::dsms::PacketBatch>& pool) {
  std::sort(acks.begin(), acks.end(),
            [](const AckedBatch& a, const AckedBatch& b) {
              return a.global_seq < b.global_seq;
            });
  std::vector<ResultSet> out(queries.size());
  std::vector<std::thread> threads;
  const std::size_t workers = std::min<std::size_t>(3, queries.size());
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      for (std::size_t q = w; q < queries.size(); q += workers) {
        auto plan = MustCompile(queries[q].gsql, queries[q].two_level);
        auto exec = plan->NewExecution();
        if (queries[q].policy.max_groups > 0) {
          exec->SetOverloadPolicy(queries[q].policy);
        }
        for (const auto& a : acks) exec->Consume(pool[a.pool_index]);
        out[q] = exec->Finish();
      }
    });
  }
  for (auto& t : threads) t.join();
  return out;
}

}  // namespace perfbench
