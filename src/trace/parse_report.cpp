#include "trace/parse_report.hpp"

#include <utility>

namespace cgc::trace {

std::string ParseReport::summary() const {
  return std::to_string(lines_bad) + " bad lines skipped (" +
         std::to_string(records_ok) + " records parsed)";
}

RecordLoop::RecordLoop(const std::string& path, util::Split split,
                       const ParseOptions& options, ParseReport* report)
    : in_(path, split), options_(options), report_(report) {}

RecordLoop::RecordLoop(std::istream& in, std::string name, util::Split split,
                       const ParseOptions& options, ParseReport* report)
    : in_(in, std::move(name), split), options_(options), report_(report) {}

bool RecordLoop::advance() {
  const bool more = in_.next_record();
  if (fault::armed()) {
    // I/O failures are not a property of the record, so they bypass
    // tolerant accounting and propagate even in tolerant mode. Keys are
    // physical line numbers, so skipped lines fire too.
    for (std::size_t line = lines_read_ + 1; line <= in_.line_number();
         ++line) {
      fault::maybe_throw("io.read", line, fault::ErrorKind::kTransient);
    }
  }
  lines_read_ = in_.line_number();
  return more;
}

void RecordLoop::bad_line(const std::string& what) {
  const std::string& path = in_.path();
  const std::size_t line_number = in_.line_number();
  if (!options_.tolerant) {
    util::throw_parse_error(path, line_number, what);
  }
  // cgc-lint: allow(input-check) caller contract: tolerant options come with a report
  CGC_CHECK_MSG(report_ != nullptr,
                "tolerant parsing needs a ParseReport to account into");
  ++report_->lines_bad;
  if (report_->samples.size() < options_.max_recorded) {
    report_->samples.push_back(path + ":" + std::to_string(line_number) +
                               ": " + what);
  }
  if (report_->lines_bad > options_.max_bad_lines) {
    throw util::DataError(path + ": too many bad lines (" +
                          std::to_string(report_->lines_bad) + " > cap " +
                          std::to_string(options_.max_bad_lines) +
                          "); first: " +
                          (report_->samples.empty() ? what
                                                    : report_->samples[0]));
  }
}

}  // namespace cgc::trace
