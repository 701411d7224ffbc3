// The group-key order and the result path that produces it (DESIGN.md
// §13.1, §14.4). Finish, snapshots and the pipeline's shard merge all
// order groups by their key's order words (column.h OrderWord); these
// tests pin that order to the comparator it replaced — signed < on int64
// columns, std::strong_order (IEEE totalOrder) on double columns — and
// pin Finish's rows and FWDSNAP1 images by CRC32C, one-level, two-level
// and through the pipeline.

#include <bit>
#include <compare>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dsms/batch.h"
#include "dsms/column.h"
#include "dsms/engine.h"
#include "dsms/packet.h"
#include "dsms/udafs.h"
#include "dsms/value.h"
#include "util/crc32c.h"
#include "util/random.h"

namespace fwdecay::dsms {
namespace {

using Rep = ValueColumn::Rep;

// The comparator order words replace: signed < on int64 words, IEEE
// totalOrder on double bit patterns.
bool ReferenceLess(Rep rep, std::uint64_t a, std::uint64_t b) {
  if (rep == Rep::kI64) {
    return static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b);
  }
  return std::strong_order(std::bit_cast<double>(a),
                           std::bit_cast<double>(b)) < 0;
}

// Random bit patterns plus every class of special: NaN payloads of both
// signs (quiet and signalling), ±0, ±inf, denormals, the extreme
// finite doubles, and INT64_MIN, -1, 0, INT64_MAX.
std::vector<std::uint64_t> OrderWordProbes() {
  std::vector<std::uint64_t> words = {
      0x0000000000000000ULL,  // +0.0, int 0
      0x8000000000000000ULL,  // -0.0, INT64_MIN
      0x7fffffffffffffffULL,  // largest +NaN payload, INT64_MAX
      0xffffffffffffffffULL,  // largest -NaN payload, int -1
      0x7ff0000000000000ULL,  // +inf
      0xfff0000000000000ULL,  // -inf
      0x7ff8000000000000ULL,  // +quiet NaN
      0xfff8000000000000ULL,  // -quiet NaN
      0x7ff0000000000001ULL,  // +signalling NaN, smallest payload
      0xfff0000000000001ULL,  // -signalling NaN
      0x7ff4000000000000ULL,  // +signalling NaN, another payload
      0xfffc000000000123ULL,  // -quiet NaN with a payload
      0x0000000000000001ULL,  // smallest +denormal, int 1
      0x8000000000000001ULL,  // smallest -denormal
      0x000fffffffffffffULL,  // largest +denormal
      0x800fffffffffffffULL,  // largest -denormal
      0x0010000000000000ULL,  // smallest +normal
      0x7fefffffffffffffULL,  // largest finite
      0xffefffffffffffffULL,  // most negative finite
      std::bit_cast<std::uint64_t>(1.0),
      std::bit_cast<std::uint64_t>(-1.0),
  };
  std::uint64_t state = 0x0de7ec7ab1e5eedULL;
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t r = SplitMix64Next(state);
    words.push_back(r);
    // Neighbours of random words, and random words moved into the NaN,
    // inf and denormal exponent ranges.
    words.push_back(r + 1);
    words.push_back(r | 0x7ff0000000000000ULL);
    words.push_back(r & 0x800fffffffffffffULL);
  }
  return words;
}

TEST(KeyOrderTest, OrderWordsMatchSignedAndTotalOrder) {
  const std::vector<std::uint64_t> words = OrderWordProbes();
  for (const Rep rep : {Rep::kI64, Rep::kF64}) {
    for (const std::uint64_t a : words) {
      for (const std::uint64_t b : words) {
        ASSERT_EQ(OrderWord(rep, a) < OrderWord(rep, b),
                  ReferenceLess(rep, a, b))
            << (rep == Rep::kI64 ? "int64 " : "double ") << std::hex << a
            << " vs " << b;
      }
      // A bijection: only equal words share an order word.
      ASSERT_EQ(OrderWord(rep, a) == OrderWord(rep, a + 1), false);
    }
  }
}

TEST(KeyOrderTest, NamedValuesInOrder) {
  const auto i64 = [](std::int64_t v) {
    return OrderWord(Rep::kI64, static_cast<std::uint64_t>(v));
  };
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_LT(i64(kMin), i64(-1));
  EXPECT_LT(i64(-1), i64(0));
  EXPECT_LT(i64(0), i64(kMax));

  const auto f64 = [](std::uint64_t bits) {
    return OrderWord(Rep::kF64, bits);
  };
  const auto d = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  // -NaN < -inf < -1 < -denormal < -0.0 < +0.0 < +denormal < 1 < +inf < +NaN
  const std::uint64_t ascending[] = {
      0xfff8000000000000ULL, d(-inf), d(-1.0), d(-denorm), d(-0.0), d(0.0),
      d(denorm),             d(1.0),  d(inf),  0x7ff8000000000000ULL};
  for (std::size_t i = 1; i < std::size(ascending); ++i) {
    EXPECT_LT(f64(ascending[i - 1]), f64(ascending[i])) << "position " << i;
  }
}

// --- Finish pinning ---------------------------------------------------------

// A trace with fresh endpoints on most packets, so every query below
// holds well over 10k groups: srcIP over 20k values, srcPort over all
// 65536, destIP over 3000, 1-in-4 packets UDP.
std::vector<PacketBatch> WideBatches(std::size_t n) {
  std::vector<PacketBatch> batches;
  PacketBatch batch(256);
  std::uint64_t state = 29;
  double t = 100.0;
  for (std::size_t i = 0; i < n; ++i) {
    Packet p;
    t += static_cast<double>(SplitMix64Next(state) % 1000) * 1e-4;
    p.time = t;
    p.src_ip = static_cast<std::uint32_t>(SplitMix64Next(state) % 20000);
    p.dest_ip = static_cast<std::uint32_t>(1000 + SplitMix64Next(state) % 3000);
    p.src_port = static_cast<std::uint16_t>(SplitMix64Next(state));
    p.dest_port = static_cast<std::uint16_t>(SplitMix64Next(state) % 16);
    p.len = static_cast<std::uint32_t>(40 + SplitMix64Next(state) % 1461);
    p.protocol = SplitMix64Next(state) % 4 == 0 ? kProtoUdp : kProtoTcp;
    batch.Append(p);
    if (batch.full()) {
      batches.push_back(std::move(batch));
      batch = PacketBatch(256);
    }
  }
  if (!batch.empty()) batches.push_back(std::move(batch));
  return batches;
}

// Key arity 1 to 4, int64 and double columns mixed: negative ints, NaN
// keys (ln of a negative), -0.0 and +0.0 as two keys. Each ORDER BY
// leaves ties, so key order decides the order of most rows, and LIMIT
// cuts inside a tie. Aggregates are integer-exact, so one-level,
// two-level and every shard count produce the same rows. The CRCs were
// recorded from the engine that sorted Group pointers by a column-by-
// column signed / std::strong_order comparator and then built its rows.
struct PinCase {
  const char* gsql;
  std::uint32_t rows_crc;      // CRC32C of RenderRows(Finish())
  std::uint32_t one_level_crc;  // CRC32C of the FWDSNAP1 image
  std::uint32_t two_level_crc;
};

const PinCase kPinCases[] = {
    {"select s, count(*) as c, sum(len) from PKT group by srcIP - 10000 as s "
     "having count(*) < 5 order by c desc limit 9000",
     0x0362e4c6u, 0x123d567cu, 0xefd722b8u},
    {"select d, l, count(*), max(len) from TCP "
     "group by destIP as d, ln(srcPort - 30000) as l "
     "having max(len) > 100 order by 3 desc, 1 limit 12000",
     0x018103e6u, 0x75a4595fu, 0x43fa8d43u},
    {"select tb, h, p, sum(len), count(*) from PKT "
     "group by time / 4 as tb, len * 0.5 as h, srcPort % 7 - 3 as p "
     "having count(*) >= 1 order by 5 desc limit 15000",
     0x87b2832du, 0xf91fe28du, 0x904973f0u},
    {"select a, z, n, q, count(*), sum(len) from PKT group by destPort as a, "
     "(0.0 - (len - len)) * (srcPort - 30000) as z, "
     "ln(destIP % 50 - 25) as n, srcIP % 500 as q "
     "having sum(len) > 200 order by 5 desc, 6 limit 11000",
     0xa72bb7b7u, 0xcec345ffu, 0x208d1dfau},
};

// Rows as text, bit-exact: type tag, int64 value or double bit pattern.
std::string RenderRows(const ResultSet& rs) {
  std::string out;
  for (const std::string& c : rs.columns) out += c + "|";
  out += "\n";
  for (const auto& row : rs.rows) {
    for (const Value& v : row) {
      char buf[40];
      if (v.is_double()) {
        std::snprintf(buf, sizeof(buf), "d:%016llx|",
                      static_cast<unsigned long long>(
                          std::bit_cast<std::uint64_t>(v.AsDouble())));
      } else {
        std::snprintf(buf, sizeof(buf), "i:%lld|",
                      static_cast<long long>(v.AsInt()));
      }
      out += buf;
    }
    out += "\n";
  }
  return out;
}

std::uint32_t Crc(const std::string& s) { return Crc32c(s.data(), s.size()); }

std::unique_ptr<CompiledQuery> MustCompile(const char* gsql, bool two_level) {
  RegisterPaperUdafs();
  CompiledQuery::Options options;
  options.two_level = two_level;
  options.low_level_slots = 64;
  std::string error;
  auto plan = CompiledQuery::Compile(gsql, &error, options);
  EXPECT_NE(plan, nullptr) << error;
  return plan;
}

TEST(FinishPinTest, RowsAndSnapshotsMatchTheRecordedOrder) {
  const std::vector<PacketBatch> batches = WideBatches(40000);
  for (const PinCase& pin : kPinCases) {
    SCOPED_TRACE(pin.gsql);
    for (const bool two_level : {false, true}) {
      SCOPED_TRACE(two_level ? "two-level" : "one-level");
      auto plan = MustCompile(pin.gsql, two_level);
      ASSERT_NE(plan, nullptr);
      auto exec = plan->NewExecution();
      for (const PacketBatch& b : batches) exec->Consume(b);
      EXPECT_GE(exec->GroupCount(), 10000u);
      std::vector<std::uint8_t> image;
      std::string error;
      ASSERT_TRUE(exec->CheckpointBytes(&image, &error)) << error;
      EXPECT_EQ(Crc32c(image.data(), image.size()),
                two_level ? pin.two_level_crc : pin.one_level_crc);
      const ResultSet rs = exec->Finish();
      EXPECT_GT(rs.rows.size(), 1000u);
      EXPECT_EQ(Crc(RenderRows(rs)), pin.rows_crc);
    }
  }
}

TEST(FinishPinTest, PipelineRowsMatchTheRecordedOrder) {
  const std::vector<PacketBatch> batches = WideBatches(40000);
  for (const PinCase& pin : kPinCases) {
    SCOPED_TRACE(pin.gsql);
    for (const bool two_level : {false, true}) {
      auto plan = MustCompile(pin.gsql, two_level);
      ASSERT_NE(plan, nullptr);
      for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                       std::size_t{3}}) {
        SCOPED_TRACE(std::string(two_level ? "two-level" : "one-level") +
                     " at " + std::to_string(shards) + " shards");
        PipelinedQueryExecution::Options options;
        options.num_shards = shards;
        PipelinedQueryExecution pipeline(*plan, options);
        for (const PacketBatch& b : batches) pipeline.Consume(b);
        EXPECT_EQ(Crc(RenderRows(pipeline.Finish())), pin.rows_crc);
      }
    }
  }
}

}  // namespace
}  // namespace fwdecay::dsms
