// Tests for util::json and util/file, and a seeded damage property over
// the two checkpoint readers built on them: every truncation of a
// report.json or a plan shard checkpoint reads as kCorrupt, every
// single-byte flip of a (CRC-sealed) checkpoint reads as kCorrupt, and
// no flipped report.json makes the reader throw or crash.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <limits>
#include <random>
#include <string>

#include "plan/matrix.hpp"
#include "plan/runner.hpp"
#include "sweep/ledger.hpp"
#include "sweep/report_io.hpp"
#include "util/check.hpp"
#include "util/file.hpp"
#include "util/json.hpp"

namespace cgc {
namespace {

namespace fs = std::filesystem;
using util::ReadStatus;
using util::json::parse;
using util::json::Value;

/// Parses `{"s": "<escape(s)>"}` and returns the decoded member.
std::string round_trip(const std::string& s) {
  const auto doc = parse("{\"s\": \"" + util::json::escape(s) + "\"}");
  EXPECT_TRUE(doc.has_value()) << util::json::escape(s);
  std::string back;
  EXPECT_TRUE(doc && doc->get("s", &back));
  return back;
}

TEST(JsonTest, EscapeRoundTripsEveryAsciiByte) {
  std::string all;
  for (int c = 0; c < 0x80; ++c) {
    const std::string one(1, static_cast<char>(c));
    EXPECT_EQ(round_trip(one), one) << "byte " << c;
    all += one;
  }
  EXPECT_EQ(round_trip(all), all);
  EXPECT_EQ(round_trip("C:\\data\\"), "C:\\data\\");
  EXPECT_EQ(round_trip("\\"), "\\");
  EXPECT_EQ(round_trip("\\\\\""), "\\\\\"");
}

TEST(JsonTest, EscapeIsTheFrozenFormat) {
  EXPECT_EQ(util::json::escape("a\"b\\c\nd\te\x01\x1f"),
            "a\\\"b\\\\c\\nd\\te\\u0001\\u001f");
  EXPECT_EQ(util::json::escape("\xc3\xa9}"), "\xc3\xa9}");
}

TEST(JsonTest, NumbersKeepTheirSourceText) {
  const auto doc = parse(
      R"({"big": 18446744073709551615, "odd": 9007199254740993,
          "d": 0.10000000000000001, "e": -1.5e-07, "i": -42})");
  ASSERT_TRUE(doc.has_value());
  std::uint64_t big = 0;
  std::uint64_t odd = 0;
  ASSERT_TRUE(doc->get("big", &big));
  ASSERT_TRUE(doc->get("odd", &odd));
  EXPECT_EQ(big, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(odd, 9007199254740993ull);  // 2^53 + 1: not a double
  double d = 0.0;
  ASSERT_TRUE(doc->get("d", &d));
  EXPECT_EQ(d, 0.1);
  ASSERT_TRUE(doc->get("e", &d));
  EXPECT_EQ(d, -1.5e-07);
  int i = 0;
  ASSERT_TRUE(doc->get("i", &i));
  EXPECT_EQ(i, -42);

  // A getter that cannot represent the number exactly declines it.
  std::uint64_t u = 7;
  EXPECT_FALSE(doc->get("i", &u));
  EXPECT_FALSE(doc->get("d", &u));
  EXPECT_FALSE(doc->get("big", &i));
  EXPECT_FALSE(doc->get("missing", &u));
  EXPECT_EQ(u, 7u);
}

TEST(JsonTest, DeepNestingIsRejectedWithoutOverflowingTheStack) {
  EXPECT_FALSE(parse(std::string(10000, '[')).has_value());
  EXPECT_FALSE(parse(std::string(10000, '[') + std::string(10000, ']'))
                   .has_value());
  std::string deep_objects;
  for (int i = 0; i < 10000; ++i) {
    deep_objects += "{\"a\": ";
  }
  EXPECT_FALSE(parse(deep_objects).has_value());
  EXPECT_TRUE(parse("[[[[[[[[[[1]]]]]]]]]]").has_value());
}

TEST(JsonTest, RejectsTrailingBytesAndMalformedInput) {
  EXPECT_TRUE(parse(" {\"a\": [1, true, \"x\"]}\n").has_value());
  for (const char* bad :
       {"", "{} x", "{}}", "[1] [2]", "{\"a\": 1,}", "[1,]", "{\"a\" 1}",
        "{a: 1}", "\"open", "\"raw\ncontrol\"", "\"bad \\x escape\"",
        "\"\\u12\"", "\"\\u00e9\"", "null", "tru", "-", "1.", "1e",
        "01x", "{\"a\": }"}) {
    EXPECT_FALSE(parse(bad).has_value()) << bad;
  }
}

class CheckpointDamageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("cgc_json_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static std::string read(const std::string& p) {
    std::string bytes;
    EXPECT_EQ(util::read_file(p, &bytes), ReadStatus::kOk);
    return bytes;
  }

  /// Length of `bytes` without its trailing whitespace.
  static std::size_t trimmed_size(const std::string& bytes) {
    std::size_t n = bytes.size();
    while (n > 0 && (bytes[n - 1] == '\n' || bytes[n - 1] == ' ')) {
      --n;
    }
    return n;
  }

  fs::path dir_;
};

TEST_F(CheckpointDamageTest, FilePrimitives) {
  std::string bytes = "stale";
  EXPECT_EQ(util::read_file(path("absent"), &bytes), ReadStatus::kMissing);
  util::write_file_atomic(path("f"), "payload\n");
  EXPECT_EQ(read(path("f")), "payload\n");
  EXPECT_FALSE(fs::exists(path("f.tmp")));
  try {
    util::write_file_atomic(path("no/such/dir/f"), "x");
    ADD_FAILURE() << "write into a missing directory succeeded";
  } catch (const util::TransientError& e) {
    EXPECT_NE(std::string(e.what()).find(path("no/such/dir/f")),
              std::string::npos)
        << e.what();
  }
}

sweep::SweepReport sample_report() {
  sweep::SweepReport report;
  report.fast_mode = true;
  report.threads = 4;
  report.fault_spec = "store.chunk_crc:p=0.25,seed=9";
  report.complete = true;
  report.total_seconds = 2.25;
  report.shard_index = 1;
  report.shard_total = 2;
  report.chunks_quarantined = 3;
  for (int i = 0; i < 3; ++i) {
    sweep::CaseRecord r;
    r.id = "fig0" + std::to_string(i + 2);
    r.kind = "figure";
    r.title = "case \"" + std::to_string(i) + "\"";
    r.seconds = 0.125 * (i + 1);
    r.ok = i != 1;
    r.attempts = i + 1;
    if (!r.ok) {
      r.error = "transient: C:\\tmp\\";
    }
    r.perf = {0.5, 1.25, 40960};
    r.outputs.push_back({r.id + ".dat", 0xfeedf00du + i, 1000u + i});
    report.cases.push_back(r);
  }
  return report;
}

TEST_F(CheckpointDamageTest, TruncatedReportJsonIsAlwaysCorrupt) {
  const std::string p = path("report.json");
  sweep::write_report(sample_report(), p);
  const std::string doc = read(p);
  sweep::SweepReport out;
  ASSERT_EQ(sweep::read_report_checked(p, &out), ReadStatus::kOk);
  ASSERT_EQ(out.cases.size(), 3u);
  for (std::size_t n = 0; n < trimmed_size(doc); ++n) {
    util::write_file_atomic(p, std::string_view(doc).substr(0, n));
    ASSERT_EQ(sweep::read_report_checked(p, &out), ReadStatus::kCorrupt)
        << "prefix of " << n << " bytes";
  }
}

TEST_F(CheckpointDamageTest, FlippedReportJsonNeverThrows) {
  const std::string p = path("report.json");
  sweep::write_report(sample_report(), p);
  const std::string doc = read(p);
  std::mt19937_64 rng(20121024);
  for (int trial = 0; trial < 1000; ++trial) {
    std::string damaged = doc;
    damaged[rng() % damaged.size()] ^= static_cast<char>(1 + rng() % 255);
    util::write_file_atomic(p, damaged);
    sweep::SweepReport out;
    EXPECT_NO_THROW(sweep::read_report_checked(p, &out)) << "trial " << trial;
  }
}

/// A real shard checkpoint: the 8-scenario matrix run to completion.
std::string write_plan_checkpoint(const std::string& dir) {
  plan::PlanConfig config;
  config.out_dir = dir;
  plan::PlanRunner runner(plan::small_matrix(3600), config);
  runner.run();
  return plan::checkpoint_path(dir, config.shard);
}

TEST_F(CheckpointDamageTest, TruncatedOrFlippedPlanCheckpointIsCorrupt) {
  const plan::ScenarioMatrix matrix = plan::small_matrix(3600);
  const std::string p = write_plan_checkpoint(dir_.string());
  const std::string doc = read(p);
  std::vector<Value> records;
  ASSERT_EQ(sweep::read_checkpoint(p, &records).status, ReadStatus::kOk);
  ASSERT_EQ(records.size(), matrix.scenarios.size());

  for (std::size_t n = 0; n < trimmed_size(doc); ++n) {
    util::write_file_atomic(p, std::string_view(doc).substr(0, n));
    ASSERT_EQ(sweep::read_checkpoint(p, &records).status,
              ReadStatus::kCorrupt)
        << "prefix of " << n << " bytes";
  }
  std::mt19937_64 rng(20121024);
  for (int trial = 0; trial < 1000; ++trial) {
    std::string damaged = doc;
    const std::size_t at = rng() % damaged.size();
    damaged[at] ^= static_cast<char>(1 + rng() % 255);
    util::write_file_atomic(p, damaged);
    ASSERT_EQ(sweep::read_checkpoint(p, &records).status,
              ReadStatus::kCorrupt)
        << "trial " << trial << ", byte " << at;
  }
}

}  // namespace
}  // namespace cgc
