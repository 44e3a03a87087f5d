#include "trace/parse_report.hpp"

#include "util/check.hpp"
#include "util/csv.hpp"

namespace cgc::trace {

std::string ParseReport::summary() const {
  return std::to_string(lines_bad) + " bad lines skipped (" +
         std::to_string(records_ok) + " records parsed)";
}

namespace detail {

void handle_bad_line(const ParseOptions& options, ParseReport* report,
                     const std::string& path, std::size_t line_number,
                     const std::string& what) {
  if (!options.tolerant) {
    util::throw_parse_error(path, line_number, what);
  }
  CGC_CHECK_MSG(report != nullptr,
                "tolerant parsing needs a ParseReport to account into");
  ++report->lines_bad;
  if (report->samples.size() < options.max_recorded) {
    report->samples.push_back(path + ":" + std::to_string(line_number) +
                              ": " + what);
  }
  if (report->lines_bad > options.max_bad_lines) {
    throw util::DataError(path + ": too many bad lines (" +
                          std::to_string(report->lines_bad) + " > cap " +
                          std::to_string(options.max_bad_lines) +
                          "); first: " +
                          (report->samples.empty() ? what
                                                   : report->samples[0]));
  }
}

}  // namespace detail
}  // namespace cgc::trace
