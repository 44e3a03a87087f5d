#include "sweep/report_io.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "store/encoding.hpp"
#include "util/check.hpp"

namespace cgc::sweep {

namespace {

/// Minimal JSON string escape (quotes, backslashes, control chars).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string json_unescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out += s[i];
      continue;
    }
    ++i;
    switch (s[i]) {
      case 'n':
        out += '\n';
        break;
      case 't':
        out += '\t';
        break;
      case 'u':
        // Only \u00xx (what json_escape emits) needs decoding.
        if (i + 4 < s.size()) {
          out += static_cast<char>(
              std::stoi(std::string(s.substr(i + 1, 4)), nullptr, 16));
          i += 4;
        }
        break;
      default:
        out += s[i];
    }
  }
  return out;
}

/// Finds `"key": ` inside `obj` and returns the offset just past it,
/// or npos. Keys we emit are unique within their object.
std::size_t value_offset(std::string_view obj, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\": ";
  const std::size_t at = obj.find(needle);
  return at == std::string_view::npos ? at : at + needle.size();
}

bool get_string(std::string_view obj, std::string_view key,
                std::string* out) {
  std::size_t i = value_offset(obj, key);
  if (i == std::string_view::npos || i >= obj.size() || obj[i] != '"') {
    return false;
  }
  ++i;
  const std::size_t start = i;
  while (i < obj.size() && !(obj[i] == '"' && obj[i - 1] != '\\')) {
    ++i;
  }
  if (i >= obj.size()) {
    return false;
  }
  *out = json_unescape(obj.substr(start, i - start));
  return true;
}

bool get_double(std::string_view obj, std::string_view key, double* out) {
  const std::size_t i = value_offset(obj, key);
  if (i == std::string_view::npos) {
    return false;
  }
  try {
    *out = std::stod(std::string(obj.substr(i, 32)));
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

bool get_u64(std::string_view obj, std::string_view key,
             std::uint64_t* out) {
  double v = 0.0;
  if (!get_double(obj, key, &v)) {
    return false;
  }
  *out = static_cast<std::uint64_t>(v);
  return true;
}

bool get_bool(std::string_view obj, std::string_view key, bool* out) {
  const std::size_t i = value_offset(obj, key);
  if (i == std::string_view::npos) {
    return false;
  }
  *out = obj.substr(i, 4) == "true";
  return true;
}

void write_case(std::ostream& out, const CaseRecord& r) {
  out << "    {\"id\": \"" << json_escape(r.id) << "\", "
      << "\"kind\": \"" << json_escape(r.kind) << "\", "
      << "\"title\": \"" << json_escape(r.title) << "\", "
      << "\"seconds\": " << r.seconds << ", "
      << "\"ok\": " << (r.ok ? "true" : "false") << ", "
      << "\"resumed\": " << (r.resumed ? "true" : "false") << ", "
      << "\"attempts\": " << r.attempts;
  if (!r.error.empty()) {
    out << ", \"error\": \"" << json_escape(r.error) << "\"";
  }
  out << ", \"perf\": {\"wall_s\": " << r.perf.wall_s
      << ", \"cpu_s\": " << r.perf.cpu_s
      << ", \"max_rss_kb\": " << r.perf.max_rss_kb << "}";
  out << ", \"outputs\": [";
  for (std::size_t i = 0; i < r.outputs.size(); ++i) {
    const CaseOutput& o = r.outputs[i];
    out << (i == 0 ? "" : ", ") << "{\"file\": \"" << json_escape(o.file)
        << "\", \"crc\": " << o.crc << ", \"size\": " << o.size << "}";
  }
  out << "]}";
}

bool parse_case(std::string_view line, CaseRecord* r) {
  if (!get_string(line, "id", &r->id)) {
    return false;
  }
  get_string(line, "kind", &r->kind);
  get_string(line, "title", &r->title);
  get_double(line, "seconds", &r->seconds);
  get_bool(line, "ok", &r->ok);
  get_bool(line, "resumed", &r->resumed);
  double attempts = 1.0;
  get_double(line, "attempts", &attempts);
  r->attempts = static_cast<int>(attempts);
  get_string(line, "error", &r->error);
  // The perf object's keys are unique within the line, so flat lookup
  // works without isolating the nested object first.
  get_double(line, "wall_s", &r->perf.wall_s);
  get_double(line, "cpu_s", &r->perf.cpu_s);
  get_u64(line, "max_rss_kb", &r->perf.max_rss_kb);
  // Outputs live in a trailing `"outputs": [{...}, {...}]` array; each
  // object is self-contained, so scan object by object.
  std::size_t i = value_offset(line, "outputs");
  if (i == std::string_view::npos) {
    return true;
  }
  while (true) {
    const std::size_t open = line.find('{', i);
    const std::size_t close = line.find('}', open);
    if (open == std::string_view::npos || close == std::string_view::npos) {
      break;
    }
    const std::string_view obj = line.substr(open, close - open + 1);
    CaseOutput o;
    std::uint64_t crc = 0;
    if (get_string(obj, "file", &o.file) && get_u64(obj, "crc", &crc) &&
        get_u64(obj, "size", &o.size)) {
      o.crc = static_cast<std::uint32_t>(crc);
      r->outputs.push_back(std::move(o));
    }
    i = close + 1;
  }
  return true;
}

}  // namespace

void write_report(const SweepReport& report, const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    CGC_CHECK_MSG(out.good(), "cannot write report to " + tmp);
    out << "{\n";
    out << "  \"fast_mode\": " << (report.fast_mode ? "true" : "false")
        << ",\n";
    out << "  \"threads\": " << report.threads << ",\n";
    out << "  \"fault_spec\": \"" << json_escape(report.fault_spec)
        << "\",\n";
    out << "  \"complete\": " << (report.complete ? "true" : "false")
        << ",\n";
    out << "  \"total_seconds\": " << report.total_seconds << ",\n";
    // Shard stamp and merge marker only appear when they carry
    // information; reports from pre-sharding sweeps parse identically.
    if (report.shard_total > 1) {
      out << "  \"shard_index\": " << report.shard_index << ",\n";
      out << "  \"shard_total\": " << report.shard_total << ",\n";
    }
    if (report.merged) {
      out << "  \"merged\": true,\n";
    }
    out << "  \"chunks_quarantined\": " << report.chunks_quarantined
        << ",\n";
    out << "  \"rows_lost\": " << report.rows_lost << ",\n";
    out << "  \"values_defaulted\": " << report.values_defaulted << ",\n";
    out << "  \"parse_lines_bad\": " << report.parse_lines_bad << ",\n";
    out << "  \"cases\": [\n";
    for (std::size_t i = 0; i < report.cases.size(); ++i) {
      write_case(out, report.cases[i]);
      out << (i + 1 < report.cases.size() ? "," : "") << "\n";
    }
    out << "  ]\n";
    out << "}\n";
    out.flush();
    CGC_CHECK_MSG(out.good(), "I/O error writing " + tmp);
  }
  std::filesystem::rename(tmp, path);
}

ReportReadStatus read_report_checked(const std::string& path,
                                     SweepReport* out) {
  std::ifstream in(path);
  if (!in.good()) {
    // Distinguish "no file" (fresh sweep) from "file we cannot open"
    // (something is there but unreadable — treat as corrupt).
    return std::filesystem::exists(path) ? ReportReadStatus::kCorrupt
                                         : ReportReadStatus::kMissing;
  }
  SweepReport report;
  std::string line;
  std::string last_nonempty;
  bool saw_header = false;
  bool in_cases = false;
  bool bad_case_line = false;
  std::string header;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      last_nonempty = line;
    }
    if (!in_cases) {
      header += line;
      header += '\n';
      if (line.find("\"cases\": [") != std::string::npos) {
        in_cases = true;
        saw_header = true;
      }
      continue;
    }
    // One case object per line; "]" closes the array.
    if (line.find('{') == std::string::npos) {
      continue;
    }
    CaseRecord r;
    if (parse_case(line, &r)) {
      report.cases.push_back(std::move(r));
    } else {
      bad_case_line = true;
    }
  }
  if (!saw_header || bad_case_line || last_nonempty != "}") {
    // write_report() always ends the file with the closing "}" of the
    // top-level object; anything else is a torn write.
    return ReportReadStatus::kCorrupt;
  }
  get_bool(header, "fast_mode", &report.fast_mode);
  double threads = 0.0;
  get_double(header, "threads", &threads);
  report.threads = static_cast<std::size_t>(threads);
  get_string(header, "fault_spec", &report.fault_spec);
  get_bool(header, "complete", &report.complete);
  get_double(header, "total_seconds", &report.total_seconds);
  double shard_index = 0.0;
  double shard_total = 1.0;
  if (get_double(header, "shard_index", &shard_index)) {
    report.shard_index = static_cast<int>(shard_index);
  }
  if (get_double(header, "shard_total", &shard_total)) {
    report.shard_total = static_cast<int>(shard_total);
  }
  get_bool(header, "merged", &report.merged);
  get_u64(header, "chunks_quarantined", &report.chunks_quarantined);
  get_u64(header, "rows_lost", &report.rows_lost);
  get_u64(header, "values_defaulted", &report.values_defaulted);
  get_u64(header, "parse_lines_bad", &report.parse_lines_bad);
  *out = std::move(report);
  return ReportReadStatus::kOk;
}

bool file_crc32(const std::string& path, std::uint32_t* crc,
                std::uint64_t* size) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    return false;
  }
  const std::string content = buf.str();
  *crc = store::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(content.data()),
      content.size()));
  *size = content.size();
  return true;
}

}  // namespace cgc::sweep
