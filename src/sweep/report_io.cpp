#include "sweep/report_io.hpp"

#include <cstdint>
#include <optional>
#include <sstream>

#include "store/encoding.hpp"
#include "util/json.hpp"

namespace cgc::sweep {

namespace json = util::json;

namespace {

void write_case(std::ostream& out, const CaseRecord& r) {
  out << "    {\"id\": \"" << json::escape(r.id) << "\", "
      << "\"kind\": \"" << json::escape(r.kind) << "\", "
      << "\"title\": \"" << json::escape(r.title) << "\", "
      << "\"seconds\": " << r.seconds << ", "
      << "\"ok\": " << (r.ok ? "true" : "false") << ", "
      << "\"resumed\": " << (r.resumed ? "true" : "false") << ", "
      << "\"attempts\": " << r.attempts;
  if (!r.error.empty()) {
    out << ", \"error\": \"" << json::escape(r.error) << "\"";
  }
  out << ", \"perf\": {\"wall_s\": " << r.perf.wall_s
      << ", \"cpu_s\": " << r.perf.cpu_s
      << ", \"max_rss_kb\": " << r.perf.max_rss_kb << "}";
  out << ", \"outputs\": [";
  for (std::size_t i = 0; i < r.outputs.size(); ++i) {
    const CaseOutput& o = r.outputs[i];
    out << (i == 0 ? "" : ", ") << "{\"file\": \"" << json::escape(o.file)
        << "\", \"crc\": " << o.crc << ", \"size\": " << o.size << "}";
  }
  out << "]}";
}

}  // namespace

void write_report(const SweepReport& report, const std::string& path) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"fast_mode\": " << (report.fast_mode ? "true" : "false")
      << ",\n";
  out << "  \"threads\": " << report.threads << ",\n";
  out << "  \"fault_spec\": \"" << json::escape(report.fault_spec)
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
  util::write_file_atomic(path, out.str());
}

util::ReadStatus read_report_checked(const std::string& path,
                                     SweepReport* out) {
  std::string text;
  if (const util::ReadStatus status = util::read_file(path, &text);
      status != util::ReadStatus::kOk) {
    return status;
  }
  const std::optional<json::Value> doc = json::parse(text);
  const json::Value* cases = doc ? doc->find("cases") : nullptr;
  if (cases == nullptr || cases->kind != json::Value::Kind::kArray) {
    return util::ReadStatus::kCorrupt;
  }
  // Header fields are optional (older reports lack the shard stamp);
  // each case needs its id, and each output all three of its fields.
  SweepReport report;
  std::uint64_t threads = 0;
  doc->get("fast_mode", &report.fast_mode);
  doc->get("threads", &threads);
  report.threads = static_cast<std::size_t>(threads);
  doc->get("fault_spec", &report.fault_spec);
  doc->get("complete", &report.complete);
  doc->get("total_seconds", &report.total_seconds);
  doc->get("shard_index", &report.shard_index);
  doc->get("shard_total", &report.shard_total);
  doc->get("merged", &report.merged);
  doc->get("chunks_quarantined", &report.chunks_quarantined);
  doc->get("rows_lost", &report.rows_lost);
  doc->get("values_defaulted", &report.values_defaulted);
  doc->get("parse_lines_bad", &report.parse_lines_bad);
  for (const json::Value& c : cases->items) {
    CaseRecord r;
    if (!c.get("id", &r.id)) {
      return util::ReadStatus::kCorrupt;
    }
    c.get("kind", &r.kind);
    c.get("title", &r.title);
    c.get("seconds", &r.seconds);
    c.get("ok", &r.ok);
    c.get("resumed", &r.resumed);
    c.get("attempts", &r.attempts);
    c.get("error", &r.error);
    if (const json::Value* perf = c.find("perf")) {
      perf->get("wall_s", &r.perf.wall_s);
      perf->get("cpu_s", &r.perf.cpu_s);
      perf->get("max_rss_kb", &r.perf.max_rss_kb);
    }
    if (const json::Value* outputs = c.find("outputs")) {
      for (const json::Value& o : outputs->items) {
        CaseOutput output;
        if (!o.get("file", &output.file) || !o.get("crc", &output.crc) ||
            !o.get("size", &output.size)) {
          return util::ReadStatus::kCorrupt;
        }
        r.outputs.push_back(std::move(output));
      }
    }
    report.cases.push_back(std::move(r));
  }
  *out = std::move(report);
  return util::ReadStatus::kOk;
}

Stamp stamp_of(const SweepReport& report) {
  Stamp stamp;
  stamp.experiment = report.fast_mode ? "fast scale" : "full scale";
  stamp.shard = {report.shard_index, report.shard_total};
  stamp.complete = report.complete;
  stamp.merged = report.merged;
  return stamp;
}

bool file_crc32(const std::string& path, std::uint32_t* crc,
                std::uint64_t* size) {
  std::string content;
  if (util::read_file(path, &content) != util::ReadStatus::kOk) {
    return false;
  }
  *crc = store::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(content.data()),
      content.size()));
  *size = content.size();
  return true;
}

}  // namespace cgc::sweep
