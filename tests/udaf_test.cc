// Tests for the paper's UDAFs through the AggRegistry interface — the
// extension mechanism of Section VI/VIII — plus registry semantics.

#include <algorithm>
#include <cmath>
#include <span>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dsms/agg.h"
#include "dsms/udafs.h"
#include "util/crc32c.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/zipf.h"

namespace fwdecay::dsms {
namespace {

class UdafTest : public testing::Test {
 protected:
  static void SetUpTestSuite() { RegisterPaperUdafs(); }

  static std::unique_ptr<AggState> Make(const std::string& name) {
    return AggRegistry::Instance().Create(name);
  }

  // gcc 12 at -O3 issues a bogus -Wmaybe-uninitialized on the variant
  // copy inside push_back; silence it for this helper only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
  // Feeds one tuple of double arguments through the aggregate's update
  // body: a one-row UpdateBatch call.
  static void Feed(AggState& state, std::initializer_list<double> values) {
    std::vector<ValueColumn> columns(values.size());
    std::size_t a = 0;
    for (double v : values) columns[a++].push_back(Value(v));
    const std::uint32_t row = 0;
    state.UpdateBatch(columns, std::span(&row, 1));
  }
#pragma GCC diagnostic pop

  static std::set<double> ParseSample(const std::string& rendered) {
    std::set<double> out;
    std::stringstream ss(rendered);
    std::string token;
    while (std::getline(ss, token, ',')) {
      if (!token.empty()) out.insert(std::stod(token));
    }
    return out;
  }
};

TEST_F(UdafTest, RegistryKnowsAllPaperUdafs) {
  const AggRegistry& r = AggRegistry::Instance();
  for (const char* name :
       {"prisamp", "wrsamp", "ressamp", "aggsamp", "fdhh", "unaryhh", "swhh",
        "ehdsum", "fdquantile", "fddistinct", "count", "sum", "avg", "min",
        "max"}) {
    EXPECT_TRUE(r.Contains(name)) << name;
  }
  EXPECT_TRUE(r.Contains("PRISAMP"));  // case-insensitive
  EXPECT_FALSE(r.Contains("nosuch"));
}

TEST_F(UdafTest, RegistryRejectsUnknownCreate) {
  EXPECT_DEATH(AggRegistry::Instance().Create("nosuchagg"),
               "unknown aggregate");
}

TEST_F(UdafTest, RessampKeepsEverythingUnderCapacity) {
  auto state = Make("ressamp");
  for (double v : {1.0, 2.0, 3.0}) {
    Feed(*state, {v, 10.0});  // k = 10
  }
  EXPECT_EQ(ParseSample(state->Finalize().AsString()),
            (std::set<double>{1.0, 2.0, 3.0}));
}

TEST_F(UdafTest, PrisampRespectsSampleSizeAndSkipsZeroWeights) {
  auto state = Make("prisamp");
  for (int i = 0; i < 100; ++i) {
    Feed(*state, {static_cast<double>(i), 1.0, 8.0});  // k = 8
  }
  Feed(*state, {999.0, 0.0, 8.0});  // zero weight: never sampled
  const auto sample = ParseSample(state->Finalize().AsString());
  EXPECT_EQ(sample.size(), 8u);
  EXPECT_FALSE(sample.contains(999.0));
}

TEST_F(UdafTest, WrsampHeavyWeightDominates) {
  // One item carries ~all the weight: it must (almost) always be kept.
  int kept = 0;
  for (int trial = 0; trial < 50; ++trial) {
    auto state = Make("wrsamp");
    for (int i = 0; i < 50; ++i) {
      Feed(*state, {static_cast<double>(i), 1.0, 4.0});
    }
    Feed(*state, {777.0, 1e9, 4.0});
    kept += ParseSample(state->Finalize().AsString()).contains(777.0);
  }
  EXPECT_GE(kept, 49);
}

TEST_F(UdafTest, PrisampMergeCombinesSamples) {
  auto a = Make("prisamp");
  auto b = Make("prisamp");
  for (int i = 0; i < 20; ++i) {
    Feed(*a, {static_cast<double>(i), 1.0, 64.0});
    Feed(*b, {100.0 + i, 1.0, 64.0});
  }
  a->Merge(*b);
  const auto sample = ParseSample(a->Finalize().AsString());
  bool has_a = false;
  bool has_b = false;
  for (double v : sample) {
    has_a |= v < 100.0;
    has_b |= v >= 100.0;
  }
  EXPECT_TRUE(has_a);
  EXPECT_TRUE(has_b);
}

TEST_F(UdafTest, FdhhReportsTheHeavyKey) {
  auto state = Make("fdhh");
  Rng rng(1);
  for (int i = 0; i < 5000; ++i) {
    // Key 42 gets ~50% of the weighted stream.
    const double key = rng.NextBernoulli(0.5)
                           ? 42.0
                           : static_cast<double>(100 + rng.NextBounded(1000));
    Feed(*state, {key, 1.0, 0.2, 0.01});
  }
  const std::string rendered = state->Finalize().AsString();
  EXPECT_NE(rendered.find("42:"), std::string::npos) << rendered;
}

TEST_F(UdafTest, UnaryhhMatchesFdhhOnUnitWeights) {
  auto unary = Make("unaryhh");
  auto weighted = Make("fdhh");
  Rng rng(2);
  ZipfGenerator zipf(100, 1.5);
  for (int i = 0; i < 20000; ++i) {
    const auto key = static_cast<double>(zipf.Next(rng));
    Feed(*unary, {key, 0.1, 0.01});
    Feed(*weighted, {key, 1.0, 0.1, 0.01});
  }
  // Both must report key 1 (the Zipf head) first.
  const std::string u = unary->Finalize().AsString();
  const std::string w = weighted->Finalize().AsString();
  EXPECT_EQ(u.substr(0, 2), "1:");
  EXPECT_EQ(w.substr(0, 2), "1:");
}

TEST_F(UdafTest, EhdsumProducesDecayedSumBelowTotal) {
  auto state = Make("ehdsum");
  double total = 0.0;
  for (int i = 1; i <= 2000; ++i) {
    const double ts = 0.05 * i;
    Feed(*state, {ts, 100.0, 0.1});
    total += 100.0;
  }
  const double decayed = state->Finalize().AsDouble();
  EXPECT_GT(decayed, 0.0);
  EXPECT_LT(decayed, total);
}

TEST_F(UdafTest, FdquantileFindsWeightedMedian) {
  auto state = Make("fdquantile");
  // Values 0..999 uniformly, unit weights: median ~ 500.
  for (int i = 0; i < 1000; ++i) {
    Feed(*state, {static_cast<double>(i), 1.0, 0.5, 10.0});
  }
  const auto median = static_cast<double>(state->Finalize().AsInt());
  EXPECT_NEAR(median, 500.0, 30.0);
}

TEST_F(UdafTest, FddistinctWithUnitWeightsCountsDistinct) {
  auto state = Make("fddistinct");
  Rng rng(3);
  std::set<std::uint64_t> truth;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t key = rng.NextBounded(3000);
    truth.insert(key);
    Feed(*state, {static_cast<double>(key), 1.0});
  }
  const double est = state->Finalize().AsDouble();
  const auto d = static_cast<double>(truth.size());
  // Level discretization (base 1.1) + KMV noise.
  EXPECT_GT(est, d * 0.8);
  EXPECT_LT(est, d * 1.2);
}

TEST_F(UdafTest, FdMinMaxTrackScaledExtremum) {
  // Definition 6 via the example stream: MIN/MAX of g(ti-L)*vi are
  // 0.09*3 = 0.27 and 0.49*8 = 3.92 before the 1/g(t-L) scaling.
  auto mn = Make("fdmin");
  auto mx = Make("fdmax");
  const double stream[][2] = {
      {105, 4}, {107, 8}, {103, 3}, {108, 6}, {104, 4}};
  for (const auto& [ts, v] : stream) {
    const double w = (ts - 100.0) * (ts - 100.0);
    Feed(*mn, {v, w});
    Feed(*mx, {v, w});
  }
  EXPECT_NEAR(mn->Finalize().AsDouble() / 100.0, 0.27, 1e-12);
  EXPECT_NEAR(mx->Finalize().AsDouble() / 100.0, 3.92, 1e-12);
}

TEST_F(UdafTest, FdMinMaxMergeTakesBetter) {
  auto a = Make("fdmax");
  auto b = Make("fdmax");
  Feed(*a, {4.0, 25.0});
  Feed(*b, {8.0, 49.0});
  a->Merge(*b);
  EXPECT_DOUBLE_EQ(a->Finalize().AsDouble(), 392.0);
}

TEST_F(UdafTest, SwhhRefusesTwoLevelMerge) {
  auto a = Make("swhh");
  auto b = Make("swhh");
  Feed(*a, {1.0, 42.0});
  Feed(*b, {2.0, 42.0});
  EXPECT_DEATH(a->Merge(*b), "two-level");
}

TEST_F(UdafTest, RegisterOverridesExisting) {
  AggRegistry& r = AggRegistry::Instance();
  // Re-registering the same name must replace, not duplicate.
  const auto before = r.Names().size();
  RegisterPaperUdafs();
  EXPECT_EQ(r.Names().size(), before);
}

// --- Pinned aggregate bytes ------------------------------------------------
//
// Every registered aggregate is fed one seeded argument stream three
// ways: one row per UpdateBatch call, runs of rows through UpdateBatch,
// and UpdateStates over three interleaved states. All three must leave
// the same SerializeTo bytes, and those bytes are pinned by a CRC32C
// that was recorded when each aggregate still had a separate per-tuple
// Update body, fed through that body: folding the per-tuple path into
// UpdateBatch is shown to change no state. Samplers draw their seeds
// from a process-wide counter, so every way clones its states from one
// prototype per group through SerializeTo / RestoreFrom, and a sampler
// prototype's generator is first set to a fixed state (samplers
// serialize their four generator words ahead of everything else).

constexpr const char* kAllAggregates[] = {
    "count",   "count_distinct", "sum",     "avg",     "min",
    "max",     "prisamp",        "wrsamp",  "ressamp", "aggsamp",
    "fdhh",    "unaryhh",        "swhh",    "ehdsum",  "fdquantile",
    "fddistinct", "fdmin", "fdmax"};
constexpr std::size_t kPinRows = 1000;
constexpr std::size_t kPinGroups = 3;

ValueColumn I64Column(std::size_t n, Rng& rng, std::uint64_t bound) {
  ValueColumn col;
  std::int64_t* dst = col.AppendI64(n);
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<std::int64_t>(rng.NextBounded(bound));
  }
  return col;
}

// Weights in [1, e^3), about one row in ten zero or negative instead
// (rows the weighted aggregates skip without touching state or RNG).
ValueColumn WeightColumn(std::size_t n, Rng& rng) {
  ValueColumn col;
  double* dst = col.AppendF64(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double w = std::exp(3.0 * rng.NextDouble());
    dst[i] = rng.NextBounded(10) == 0 ? 1.0 - w : w;
  }
  return col;
}

// Non-decreasing timestamps (EHDSUM and SWHH require them).
ValueColumn TimeColumn(std::size_t n, Rng& rng) {
  ValueColumn col;
  double* dst = col.AppendF64(n);
  double t = 100.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += rng.NextBounded(4) == 0 ? 0.0 : rng.NextDouble();
    dst[i] = t;
  }
  return col;
}

ValueColumn Broadcast(std::size_t n, const Value& v) {
  ValueColumn col;
  for (std::size_t i = 0; i < n; ++i) col.push_back(v);
  return col;
}

// The argument columns of one call per registered name, shaped like the
// queries that use it (integer keys and items, double weights, literal
// parameters broadcast down the column).
std::vector<ValueColumn> PinnedArgs(const std::string& name, Rng& rng) {
  const std::size_t n = kPinRows;
  std::vector<ValueColumn> args;
  if (name == "count") {
    args.push_back(Broadcast(n, Value(std::int64_t{1})));  // count(*)
  } else if (name == "count_distinct" || name == "avg" || name == "min") {
    args.push_back(I64Column(n, rng, 200));
  } else if (name == "sum" || name == "max") {
    args.push_back(WeightColumn(n, rng));
  } else if (name == "prisamp" || name == "wrsamp") {
    args.push_back(I64Column(n, rng, 1u << 20));
    args.push_back(WeightColumn(n, rng));
    args.push_back(Broadcast(n, Value(std::int64_t{8})));
  } else if (name == "ressamp" || name == "aggsamp") {
    args.push_back(I64Column(n, rng, 1u << 20));
    args.push_back(Broadcast(n, Value(std::int64_t{8})));
  } else if (name == "fdhh") {
    args.push_back(I64Column(n, rng, 64));
    args.push_back(WeightColumn(n, rng));
    args.push_back(Broadcast(n, Value(0.05)));
    args.push_back(Broadcast(n, Value(0.1)));
  } else if (name == "unaryhh") {
    args.push_back(I64Column(n, rng, 64));
    args.push_back(Broadcast(n, Value(0.05)));
    args.push_back(Broadcast(n, Value(0.1)));
  } else if (name == "swhh") {
    args.push_back(TimeColumn(n, rng));
    args.push_back(I64Column(n, rng, 64));
    args.push_back(Broadcast(n, Value(0.05)));
    args.push_back(Broadcast(n, Value(0.1)));
  } else if (name == "ehdsum") {
    args.push_back(TimeColumn(n, rng));
    args.push_back(I64Column(n, rng, 1500));
    args.push_back(Broadcast(n, Value(0.1)));
  } else if (name == "fdquantile") {
    args.push_back(I64Column(n, rng, 2048));
    args.push_back(WeightColumn(n, rng));
    args.push_back(Broadcast(n, Value(0.5)));
    args.push_back(Broadcast(n, Value(std::int64_t{11})));
    args.push_back(Broadcast(n, Value(0.05)));
  } else if (name == "fddistinct") {
    args.push_back(I64Column(n, rng, 500));
    args.push_back(WeightColumn(n, rng));
    args.push_back(Broadcast(n, Value(std::int64_t{16})));
  } else if (name == "fdmin" || name == "fdmax") {
    args.push_back(I64Column(n, rng, 1500));
    args.push_back(WeightColumn(n, rng));
  } else {
    ADD_FAILURE() << "no argument stream for aggregate " << name;
  }
  return args;
}

// CRC32C of the three groups' concatenated SerializeTo bytes, recorded
// through the per-tuple Update body.
std::uint32_t PinnedCrc(const std::string& name) {
  static const std::pair<const char*, std::uint32_t> kPins[] = {
      {"count", 0x3c54e42fu},
      {"count_distinct", 0xf4e2d17bu},
      {"sum", 0x5b22074fu},
      {"avg", 0x0b4377aeu},
      {"min", 0xa3b7fad8u},
      {"max", 0xda387fa8u},
      {"prisamp", 0x3bb8b174u},
      {"wrsamp", 0x5ef4a23du},
      {"ressamp", 0x1fbc535eu},
      {"aggsamp", 0x60dad2dfu},
      {"fdhh", 0x0d9f3848u},
      {"unaryhh", 0x77755acdu},
      {"swhh", 0x1744c617u},
      {"ehdsum", 0xdf00ccd6u},
      {"fdquantile", 0x863c72bcu},  // q-digest ids ascending
      {"fddistinct", 0xe8fa2c11u},
      {"fdmin", 0xe48d9b94u},
      {"fdmax", 0x8abd63feu},
  };
  for (const auto& [pinned, crc] : kPins) {
    if (name == pinned) return crc;
  }
  return 0;
}

class AggBytesTest : public testing::TestWithParam<const char*> {
 protected:
  static void SetUpTestSuite() { RegisterPaperUdafs(); }
};

TEST_P(AggBytesTest, EveryUpdatePathLeavesThePinnedBytes) {
  const std::string name = GetParam();
  const AggRegistry& registry = AggRegistry::Instance();
  Rng rng(HashString(name));
  const std::vector<ValueColumn> args = PinnedArgs(name, rng);
  // Which group each row belongs to: sticky runs, so UpdateStates sees
  // both runs of one state and alternation between states.
  std::vector<std::size_t> group_of(kPinRows);
  std::size_t g = 0;
  for (std::size_t i = 0; i < kPinRows; ++i) {
    if (rng.NextBounded(3) == 0) g = rng.NextBounded(kPinGroups);
    group_of[i] = g;
  }
  const bool sampler = name == "prisamp" || name == "wrsamp" ||
                       name == "ressamp" || name == "aggsamp";
  std::vector<std::uint8_t> prototypes[kPinGroups];
  for (std::size_t grp = 0; grp < kPinGroups; ++grp) {
    ByteWriter w;
    ASSERT_TRUE(registry.Create(name)->SerializeTo(&w));
    prototypes[grp] = w.Take();
    if (sampler) {
      std::uint64_t words[4];
      Rng(HashString(name) + grp).SaveState(words);
      ByteWriter fixed;
      for (std::uint64_t word : words) fixed.WriteU64(word);
      ASSERT_GE(prototypes[grp].size(), fixed.bytes().size());
      std::copy(fixed.bytes().begin(), fixed.bytes().end(),
                prototypes[grp].begin());
    }
  }
  const auto fresh_states = [&] {
    std::vector<std::unique_ptr<AggState>> states;
    for (const auto& bytes : prototypes) {
      states.push_back(registry.Create(name));
      ByteReader r(bytes);
      EXPECT_TRUE(states.back()->RestoreFrom(&r));
    }
    return states;
  };
  const auto state_bytes = [](const auto& states) {
    ByteWriter w;
    for (const auto& s : states) EXPECT_TRUE(s->SerializeTo(&w));
    return w.Take();
  };

  // One row per UpdateBatch.
  auto single = fresh_states();
  for (std::uint32_t row = 0; row < kPinRows; ++row) {
    single[group_of[row]]->UpdateBatch(args, std::span(&row, 1));
  }
  // Each group's rows through UpdateBatch in runs of 1..64 rows.
  auto runs = fresh_states();
  for (std::size_t grp = 0; grp < kPinGroups; ++grp) {
    std::vector<std::uint32_t> rows;
    for (std::uint32_t row = 0; row < kPinRows; ++row) {
      if (group_of[row] == grp) rows.push_back(row);
    }
    std::size_t begin = 0;
    while (begin < rows.size()) {
      const std::size_t len =
          std::min<std::size_t>(1 + rng.NextBounded(64), rows.size() - begin);
      runs[grp]->UpdateBatch(args, std::span(rows).subspan(begin, len));
      begin += len;
    }
  }
  // UpdateStates over segments of 1..200 rows spanning every group.
  auto interleaved = fresh_states();
  std::size_t begin = 0;
  while (begin < kPinRows) {
    const std::size_t len =
        std::min<std::size_t>(1 + rng.NextBounded(200), kPinRows - begin);
    std::vector<std::uint32_t> rows;
    std::vector<AggState*> states;
    for (std::size_t row = begin; row < begin + len; ++row) {
      rows.push_back(static_cast<std::uint32_t>(row));
      states.push_back(interleaved[group_of[row]].get());
    }
    states.front()->UpdateStates(states, args, rows);
    begin += len;
  }

  const std::vector<std::uint8_t> bytes = state_bytes(single);
  EXPECT_EQ(state_bytes(runs), bytes);
  EXPECT_EQ(state_bytes(interleaved), bytes);
  EXPECT_EQ(Crc32c(bytes.data(), bytes.size()), PinnedCrc(name))
      << std::hex << Crc32c(bytes.data(), bytes.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllAggregates, AggBytesTest,
    testing::ValuesIn(kAllAggregates));

TEST(AggBytesRegistryTest, EveryRegisteredAggregateHasAPinnedStream) {
  RegisterPaperUdafs();
  std::vector<std::string> names = AggRegistry::Instance().Names();
  std::vector<std::string> pinned(std::begin(kAllAggregates),
                                  std::end(kAllAggregates));
  std::sort(names.begin(), names.end());
  std::sort(pinned.begin(), pinned.end());
  EXPECT_EQ(names, pinned);
}

}  // namespace
}  // namespace fwdecay::dsms
