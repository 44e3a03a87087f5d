// Unit tests for the CSV reader/writer and field parsers.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "util/check.hpp"
#include "util/csv.hpp"

namespace cgc::util {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cgc_csv_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST(SplitFields, BasicSplit) {
  std::vector<std::string_view> fields;
  split_fields("a,b,c", ',', &fields);
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "b");
  EXPECT_EQ(fields[2], "c");
}

TEST(SplitFields, EmptyFieldsPreserved) {
  std::vector<std::string_view> fields;
  split_fields(",x,,", ',', &fields);
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "");
  EXPECT_EQ(fields[1], "x");
  EXPECT_EQ(fields[2], "");
  EXPECT_EQ(fields[3], "");
}

TEST(SplitFields, SingleField) {
  std::vector<std::string_view> fields;
  split_fields("lonely", ',', &fields);
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "lonely");
}

TEST(ParseInt, ValidAndInvalid) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_EQ(parse_int("0"), 0);
  EXPECT_THROW(parse_int("4x2"), Error);
  EXPECT_THROW(parse_int(""), Error);
  EXPECT_THROW(parse_int("3.5"), Error);
}

TEST(ParseDouble, ValidAndInvalid) {
  EXPECT_DOUBLE_EQ(parse_double("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(parse_double("-1e3"), -1000.0);
  EXPECT_THROW(parse_double("abc"), Error);
  EXPECT_THROW(parse_double(""), Error);
}

TEST_F(CsvTest, WriterReaderRoundTrip) {
  const std::string p = path("round.csv");
  {
    CsvWriter writer(p);
    writer.write_record({"# header comment"});
    writer.write_record({"1", "2.5", "hello"});
    writer.write_record({"4", "", "world"});
    writer.close();
  }
  CsvReader reader(p);
  ASSERT_TRUE(reader.next_record());
  ASSERT_EQ(reader.fields().size(), 3u);
  EXPECT_EQ(parse_int(reader.fields()[0]), 1);
  EXPECT_DOUBLE_EQ(parse_double(reader.fields()[1]), 2.5);
  EXPECT_EQ(reader.fields()[2], "hello");
  ASSERT_TRUE(reader.next_record());
  EXPECT_EQ(reader.fields()[1], "");
  EXPECT_FALSE(reader.next_record());
}

TEST_F(CsvTest, SkipsCommentsAndBlankLines) {
  const std::string p = path("comments.csv");
  {
    std::ofstream out(p);
    out << "# comment\n\n; swf-style comment\n1,2\n";
  }
  CsvReader reader(p);
  ASSERT_TRUE(reader.next_record());
  EXPECT_EQ(reader.fields().size(), 2u);
  EXPECT_FALSE(reader.next_record());
}

TEST_F(CsvTest, HandlesCrLf) {
  const std::string p = path("crlf.csv");
  {
    std::ofstream out(p, std::ios::binary);
    out << "a,b\r\nc,d\r\n";
  }
  CsvReader reader(p);
  ASSERT_TRUE(reader.next_record());
  EXPECT_EQ(reader.fields()[1], "b");
  ASSERT_TRUE(reader.next_record());
  EXPECT_EQ(reader.fields()[1], "d");
}

TEST_F(CsvTest, MissingFileThrows) {
  EXPECT_THROW(CsvReader(path("does_not_exist.csv")), Error);
}

TEST_F(CsvTest, LineNumbersTrackRecords) {
  const std::string p = path("lines.csv");
  {
    std::ofstream out(p);
    out << "# one\nx\ny\n";
  }
  CsvReader reader(p);
  ASSERT_TRUE(reader.next_record());
  EXPECT_EQ(reader.line_number(), 2u);
  ASSERT_TRUE(reader.next_record());
  EXPECT_EQ(reader.line_number(), 3u);
}

TEST(ThrowParseError, IncludesPathAndLine) {
  try {
    throw_parse_error("trace.csv", 42, "bad integer field: 'x'");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "trace.csv:42: bad integer field: 'x'");
  }
}

TEST_F(CsvTest, NoTrailingNewlineStillParsesLastRecord) {
  const std::string p = path("notrail.csv");
  {
    std::ofstream out(p, std::ios::binary);
    out << "1,2\n3,4";  // final record lacks '\n'
  }
  CsvReader reader(p);
  ASSERT_TRUE(reader.next_record());
  ASSERT_TRUE(reader.next_record());
  EXPECT_EQ(reader.fields()[1], "4");
  EXPECT_FALSE(reader.next_record());
}

TEST(FormatDouble, RoundTripsPrecision) {
  EXPECT_EQ(format_double(0.25), "0.25");
  EXPECT_EQ(format_double(1234567.0), "1234567");
  const double v = 0.1234567891;
  EXPECT_NEAR(parse_double(format_double(v)), v, 1e-12);
}

}  // namespace
}  // namespace cgc::util
