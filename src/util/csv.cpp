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

void split_whitespace(std::string_view line,
                      std::vector<std::string_view>* out) {
  out->clear();
  std::size_t start = line.find_first_not_of(" \t");
  while (start != std::string_view::npos) {
    const std::size_t end = line.find_first_of(" \t", start);
    out->push_back(line.substr(start, end - start));
    start = line.find_first_not_of(" \t", end);
  }
}

namespace {

/// The whole of `field` as a number of type T; DataError otherwise.
template <typename T>
T parse_number(std::string_view field, const char* kind) {
  T value{};
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  if (ec != std::errc() || ptr != field.data() + field.size()) {
    throw DataError(std::string("bad ") + kind + " field: '" +
                    std::string(field) + "'");
  }
  return value;
}

}  // namespace

std::int64_t parse_int(std::string_view field) {
  return parse_number<std::int64_t>(field, "integer");
}

double parse_double(std::string_view field) {
  return parse_number<double>(field, "double");
}

void throw_parse_error(const std::string& path, std::size_t line_number,
                       const std::string& what) {
  throw DataError(path + ":" + std::to_string(line_number) + ": " + what);
}

CsvReader::CsvReader(const std::string& path, Split split)
    : path_(path), file_(path), in_(file_), split_(split) {
  CGC_CHECK_MSG(file_.good(), "cannot open file for reading: " + path);
}

CsvReader::CsvReader(std::istream& in, std::string name, Split split)
    : path_(std::move(name)), in_(in), split_(split) {}

bool CsvReader::next_record() {
  while (std::getline(in_, line_)) {
    ++line_number_;
    if (!line_.empty() && line_.back() == '\r') {
      line_.pop_back();
    }
    if (line_.empty() || line_.front() == '#' || line_.front() == ';') {
      continue;
    }
    if (split_ == Split::kComma) {
      split_fields(line_, ',', &fields_);
    } else {
      split_whitespace(line_, &fields_);
    }
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
