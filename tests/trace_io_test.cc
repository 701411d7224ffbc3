// Tests for the binary trace file I/O: round trip, missing and corrupt
// files, and the empty trace.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dsms/netgen.h"
#include "dsms/trace_io.h"

namespace fwdecay::dsms {
namespace {

TEST(TraceIoTest, RoundTripsGeneratedTrace) {
  TraceConfig cfg;
  cfg.rate_pps = 1000.0;
  cfg.seed = 5;
  PacketGenerator gen(cfg);
  const auto packets = gen.Generate(5000);

  const std::string path = testing::TempDir() + "/fwdecay_trace_test.bin";
  std::string error;
  ASSERT_TRUE(WriteTrace(path, packets, &error)) << error;
  auto loaded = ReadTrace(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ASSERT_EQ(loaded->size(), packets.size());
  for (std::size_t i = 0; i < packets.size(); i += 97) {
    EXPECT_DOUBLE_EQ((*loaded)[i].time, packets[i].time);
    EXPECT_EQ((*loaded)[i].dest_ip, packets[i].dest_ip);
    EXPECT_EQ((*loaded)[i].dest_port, packets[i].dest_port);
    EXPECT_EQ((*loaded)[i].len, packets[i].len);
    EXPECT_EQ((*loaded)[i].protocol, packets[i].protocol);
  }
  std::remove(path.c_str());
}

TEST(TraceIoTest, MissingFileDiagnosed) {
  std::string error;
  EXPECT_FALSE(ReadTrace("/nonexistent/trace.bin", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(TraceIoTest, CorruptAndTruncatedFilesRejected) {
  const std::string path = testing::TempDir() + "/fwdecay_trace_bad.bin";
  std::string error;

  // Bad magic.
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite("NOTATRACE_______", 1, 16, f);
    std::fclose(f);
    EXPECT_FALSE(ReadTrace(path, &error).has_value());
    EXPECT_NE(error.find("magic"), std::string::npos);
  }
  // Truncated records: write a valid trace then chop it.
  {
    TraceConfig cfg;
    PacketGenerator gen(cfg);
    ASSERT_TRUE(WriteTrace(path, gen.Generate(100), &error)) << error;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::vector<unsigned char> bytes(1000);
    const std::size_t got = std::fread(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, got / 2, f);
    std::fclose(f);
    EXPECT_FALSE(ReadTrace(path, &error).has_value());
  }
  std::remove(path.c_str());
}

TEST(TraceIoTest, EmptyTraceIsValid) {
  const std::string path = testing::TempDir() + "/fwdecay_trace_empty.bin";
  std::string error;
  ASSERT_TRUE(WriteTrace(path, std::vector<Packet>{}, &error)) << error;
  auto loaded = ReadTrace(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_TRUE(loaded->empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fwdecay::dsms
