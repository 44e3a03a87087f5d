#include "sweep/merge.hpp"

#include <algorithm>
#include <filesystem>
#include <map>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "sweep/ledger.hpp"
#include "util/check.hpp"

namespace cgc::sweep {

namespace fs = std::filesystem;

namespace {

/// Strips the volatile per-run fields from a record. What survives is
/// exactly the information two equivalent sweeps must agree on: case
/// identity, verdict, error text, and output digests.
CaseRecord canonical_record(const CaseRecord& r) {
  CaseRecord out;
  out.id = r.id;
  out.kind = r.kind;
  out.title = r.title;
  out.ok = r.ok;
  out.error = r.error;
  out.outputs = r.outputs;
  std::sort(out.outputs.begin(), out.outputs.end(),
            [](const CaseOutput& a, const CaseOutput& b) {
              return a.file < b.file;
            });
  // seconds/perf/attempts/resumed stay at their zero defaults.
  return out;
}

/// The failed record of a case no usable shard holds.
CaseRecord synthesized_failure(const CaseMeta& meta) {
  CaseRecord r;
  r.id = meta.id;
  r.kind = meta.kind;
  r.title = meta.title;
  r.ok = false;
  r.error = "no shard completed this case";
  return r;
}

}  // namespace

MergeResult merge_shards(const std::vector<std::string>& shard_dirs,
                         const MergeOptions& options) {
  CGC_CHECK_MSG(!shard_dirs.empty(), "merge needs at least one shard dir");
  CGC_CHECK_MSG(!options.out_dir.empty(), "merge needs an output dir");
  MergeResult result;

  // ---- Read every shard report; the ledger classifies and claims. -----
  std::vector<SweepReport> reports(shard_dirs.size());
  std::vector<LedgerInput> inputs(shard_dirs.size());
  for (std::size_t d = 0; d < shard_dirs.size(); ++d) {
    LedgerInput& input = inputs[d];
    input.path = shard_dirs[d] + "/report.json";
    // Deterministic stand-in for reading a shard dir mid-write (e.g.
    // merging while a worker is still flushing): the report looks torn.
    input.status = fault::inject("sweep.torn_merge_input", d)
                       ? util::ReadStatus::kCorrupt
                       : read_report_checked(input.path, &reports[d]);
    input.stamp = stamp_of(reports[d]);
    for (const CaseRecord& r : reports[d].cases) {
      input.ids.push_back(r.id);
    }
  }
  MergePolicy policy;
  policy.noun = "case";
  policy.allow_partial = options.allow_partial;
  policy.known = options.known;
  for (const CaseMeta& meta : options.expected) {
    policy.universe.push_back(meta.id);
  }
  const Claims claims = claim(inputs, policy);
  result.notes = claims.notes;

  // The canonical report: summed damage totals, then one canonical
  // record per expected case, in expected order.
  SweepReport& merged = result.report;
  merged.complete = true;
  merged.merged = true;
  for (std::size_t d = 0; d < reports.size(); ++d) {
    if (claims.usable[d]) {
      merged.fast_mode = reports[d].fast_mode;  // one scale, ledger-checked
      merged.chunks_quarantined += reports[d].chunks_quarantined;
      merged.rows_lost += reports[d].rows_lost;
      merged.values_defaulted += reports[d].values_defaulted;
      merged.parse_lines_bad += reports[d].parse_lines_bad;
    }
  }

  // ---- Verify digests and materialize outputs. ------------------------
  fs::create_directories(options.out_dir);
  struct Placed {
    std::uint32_t crc = 0;
    std::uint64_t size = 0;
    std::string from_case;
  };
  std::map<std::string, Placed> placed;
  for (std::size_t u = 0; u < claims.items.size(); ++u) {
    const Claim& c = claims.items[u];
    if (c.input == Claim::kNone) {
      merged.cases.push_back(synthesized_failure(options.expected[u]));
      ++result.cases_missing;
      continue;
    }
    const CaseRecord& record = reports[c.input].cases[c.index];
    merged.cases.push_back(canonical_record(record));
    if (!record.ok) {
      ++result.cases_failed;
      continue;  // failed cases carry no trusted outputs
    }
    ++result.cases_ok;
    const std::string& id = record.id;
    for (const CaseOutput& o : record.outputs) {
      const std::string src = shard_dirs[c.input] + "/" + o.file;
      std::uint32_t crc = 0;
      std::uint64_t size = 0;
      if (!file_crc32(src, &crc, &size)) {
        throw util::DataError("case " + id + ": recorded output " + src +
                              " is unreadable — shard dir damaged");
      }
      if (crc != o.crc || size != o.size) {
        throw util::DataError(
            "digest disagreement on " + src + " (case " + id +
            "): recorded crc32 " + std::to_string(o.crc) + "/size " +
            std::to_string(o.size) + ", actual " + std::to_string(crc) +
            "/" + std::to_string(size));
      }
      const auto it = placed.find(o.file);
      if (it != placed.end()) {
        if (it->second.crc != crc || it->second.size != size) {
          throw util::DataError(
              "output file " + o.file + " produced with different "
              "content by case " + it->second.from_case + " and case " +
              id + " — digest disagreement between shards");
        }
        continue;  // identical duplicate (shared output) — keep first
      }
      const fs::path dest = fs::path(options.out_dir) / o.file;
      fs::create_directories(dest.parent_path());
      fs::copy_file(src, dest, fs::copy_options::overwrite_existing);
      placed.emplace(o.file, Placed{crc, size, id});
      ++result.files_copied;
    }
  }

  // The report goes last: it is the merge's commit marker.
  write_report(merged, options.out_dir + "/report.json");
  if (obs::metrics_enabled()) {
    static obs::Counter& cases = obs::counter("sweep.cases_merged");
    static obs::Counter& files = obs::counter("sweep.files_merged");
    cases.add(result.report.cases.size());
    files.add(result.files_copied);
  }
  return result;
}

}  // namespace cgc::sweep
