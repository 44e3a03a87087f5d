#include "trace/loader.hpp"

#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#include "obs/span.hpp"
#include "store/cgcs_format.hpp"
#include "trace/google_format.hpp"
#include "trace/gwa_format.hpp"
#include "trace/swf_format.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"

namespace cgc::trace {

const char* format_name(TraceFormat format) {
  switch (format) {
    case TraceFormat::kAuto:
      return "auto";
    case TraceFormat::kGoogleCsv:
      return "google-csv";
    case TraceFormat::kSwf:
      return "swf";
    case TraceFormat::kGwa:
      return "gwa";
    case TraceFormat::kCgcs:
      return "cgcs";
  }
  return "unknown";
}

std::string LoadReport::summary() const {
  std::ostringstream out;
  out << format_name(format) << " " << path << ": ";
  if (clean()) {
    out << "clean";
  } else if (!parse.clean()) {
    out << parse.summary();
  } else {
    out << damage.summary();
  }
  return out.str();
}

namespace {

bool has_cgcs_magic(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[4] = {};
  in.read(magic, sizeof magic);
  return in.gcount() == sizeof magic &&
         std::string_view(magic, sizeof magic) == store::kMagic;
}

/// Counts whitespace-separated fields on the first record, read by the
/// readers' own line rules. SWF and GWA are both headerless whitespace
/// tables, so the field count is the only cheap discriminator: SWF is
/// exactly 18 fields, GWA is 11+ (the standard defines 29; our writer
/// emits 11).
std::size_t sniff_field_count(const std::string& path) {
  util::CsvReader in(path, util::Split::kWhitespace);
  return in.next_record() ? in.fields().size() : 0;
}

std::string lower_extension(const std::string& path) {
  std::string ext = std::filesystem::path(path).extension().string();
  for (char& c : ext) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return ext;
}

}  // namespace

TraceFormat detect_format(const std::string& path) {
  namespace fs = std::filesystem;
  if (!fs::exists(path)) {
    throw util::DataError("no such trace: " + path);
  }
  if (fs::is_directory(path)) {
    return TraceFormat::kGoogleCsv;
  }
  const std::string ext = lower_extension(path);
  if (ext == ".cgcs") {
    return TraceFormat::kCgcs;
  }
  if (ext == ".swf") {
    return TraceFormat::kSwf;
  }
  if (ext == ".gwf" || ext == ".gwa") {
    return TraceFormat::kGwa;
  }
  if (has_cgcs_magic(path)) {
    return TraceFormat::kCgcs;
  }
  const std::size_t fields = sniff_field_count(path);
  if (fields == 18) {
    return TraceFormat::kSwf;
  }
  if (fields >= 11) {
    return TraceFormat::kGwa;
  }
  throw util::DataError("cannot detect trace format of " + path +
                        " (not a directory, no known extension or magic, "
                        "first data line has " +
                        std::to_string(fields) + " fields)");
}

TraceSet load_trace(const std::string& path, const LoadOptions& options,
                    LoadReport* report) {
  obs::ScopedTimer timer("trace.load");
  const TraceFormat format = options.format == TraceFormat::kAuto
                                 ? detect_format(path)
                                 : options.format;
  LoadReport local;
  LoadReport& out = report != nullptr ? *report : local;
  out = LoadReport{};
  out.format = format;
  out.path = path;

  ParseOptions parse_options;
  parse_options.tolerant = options.strictness == Strictness::kTolerant;
  parse_options.max_bad_lines = options.max_bad_lines;
  parse_options.max_recorded = options.max_recorded;
  const auto name_or = [&options](const char* fallback) {
    return options.system_name.empty() ? std::string(fallback)
                                       : options.system_name;
  };

  switch (format) {
    case TraceFormat::kGoogleCsv:
      return detail::read_google_trace_impl(path, name_or("google-trace"),
                                            parse_options, &out.parse);
    case TraceFormat::kSwf:
      return detail::read_job_table(path, name_or("swf-trace"),
                                    detail::kSwfTable, parse_options,
                                    &out.parse);
    case TraceFormat::kGwa:
      return detail::read_job_table(path, name_or("gwa-trace"),
                                    detail::kGwaTable, parse_options,
                                    &out.parse);
    case TraceFormat::kCgcs: {
      if (options.on_damage == OnDamage::kQuarantine) {
        return store::read_cgcs_degraded(path, &out.damage);
      }
      return store::read_cgcs(path);
    }
    case TraceFormat::kAuto:
      break;
  }
  throw util::DataError("unresolved trace format for " + path);
}

}  // namespace cgc::trace
