#include "util/csv.hpp"

#include <charconv>
#include <cstdio>

#include "util/check.hpp"
#include "util/file.hpp"

namespace cgc::util {

void split_fields(std::string_view line, char sep,
                  std::vector<std::string_view>* out) {
  out->clear();
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = line.find(sep, start);
    if (pos == std::string_view::npos) {
      out->push_back(line.substr(start));
      return;
    }
    out->push_back(line.substr(start, pos - start));
    start = pos + 1;
  }
}

std::int64_t parse_int(std::string_view field) {
  std::int64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  CGC_CHECK_MSG(ec == std::errc() && ptr == field.data() + field.size(),
                "bad integer field: '" + std::string(field) + "'");
  return value;
}

double parse_double(std::string_view field) {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  CGC_CHECK_MSG(ec == std::errc() && ptr == field.data() + field.size(),
                "bad double field: '" + std::string(field) + "'");
  return value;
}

void throw_parse_error(const std::string& path, std::size_t line_number,
                       const std::string& what) {
  throw Error(path + ":" + std::to_string(line_number) + ": " + what);
}

CsvReader::CsvReader(const std::string& path, char sep)
    : path_(path), in_(path), sep_(sep) {
  CGC_CHECK_MSG(in_.good(), "cannot open file for reading: " + path);
}

bool CsvReader::next_record() {
  while (std::getline(in_, line_)) {
    ++line_number_;
    if (!line_.empty() && line_.back() == '\r') {
      line_.pop_back();
    }
    if (line_.empty() || line_.front() == '#' || line_.front() == ';') {
      continue;
    }
    split_fields(line_, sep_, &fields_);
    return true;
  }
  // getline() failing can mean clean EOF or a stream error; only the
  // former may end the file silently.
  CGC_CHECK_MSG(!in_.bad(), "I/O error while reading " + path_);
  return false;
}

CsvWriter::CsvWriter(const std::string& path, char sep)
    : path_(path), out_(path), sep_(sep) {
  CGC_CHECK_MSG(out_.good(), "cannot open file for writing: " + path);
}

void CsvWriter::write_record(const std::vector<std::string>& values) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      out_.put(sep_);
    }
    out_ << values[i];
  }
  out_.put('\n');
}

void CsvWriter::close() {
  close_or_throw(out_, path_);
}

std::string format_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

}  // namespace cgc::util
