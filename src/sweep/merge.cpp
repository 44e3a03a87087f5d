#include "sweep/merge.hpp"

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "sweep/partition.hpp"
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

CaseRecord synthesized_failure(const CaseMeta& meta,
                               const std::string& error) {
  CaseRecord r;
  r.id = meta.id;
  r.kind = meta.kind;
  r.title = meta.title;
  r.ok = false;
  r.error = error;
  return r;
}

}  // namespace

SweepReport canonicalize(const SweepReport& report,
                         const std::vector<CaseMeta>& expected) {
  std::map<std::string, const CaseRecord*> by_id;
  for (const CaseRecord& r : report.cases) {
    by_id[r.id] = &r;
  }
  SweepReport out;
  out.fast_mode = report.fast_mode;
  out.complete = true;
  out.merged = true;
  out.chunks_quarantined = report.chunks_quarantined;
  out.rows_lost = report.rows_lost;
  out.values_defaulted = report.values_defaulted;
  out.parse_lines_bad = report.parse_lines_bad;
  for (const CaseMeta& meta : expected) {
    const auto it = by_id.find(meta.id);
    if (it != by_id.end()) {
      out.cases.push_back(canonical_record(*it->second));
    } else {
      out.cases.push_back(
          synthesized_failure(meta, "no shard completed this case"));
    }
  }
  return out;
}

MergeResult merge_shards(const std::vector<std::string>& shard_dirs,
                         const MergeOptions& options) {
  CGC_CHECK_MSG(!shard_dirs.empty(), "merge needs at least one shard dir");
  CGC_CHECK_MSG(!options.out_dir.empty(), "merge needs an output dir");
  MergeResult result;

  // ---- Pass 1: read + classify every shard report. --------------------
  struct ShardInput {
    std::string dir;
    SweepReport report;
    bool usable = false;
  };
  std::vector<ShardInput> inputs;
  bool fast_mode = false;
  bool saw_usable = false;
  for (std::size_t d = 0; d < shard_dirs.size(); ++d) {
    ShardInput input;
    input.dir = shard_dirs[d];
    const std::string path = input.dir + "/report.json";
    // Deterministic stand-in for reading a shard dir mid-write (e.g.
    // merging while a worker is still flushing): the report looks torn.
    const util::ReadStatus status =
        fault::inject("sweep.torn_merge_input", d)
            ? util::ReadStatus::kCorrupt
            : read_report_checked(path, &input.report);
    if (status != util::ReadStatus::kOk || !input.report.complete) {
      const std::string what =
          status == util::ReadStatus::kMissing ? "no report.json"
          : status == util::ReadStatus::kCorrupt
              ? "torn/corrupt report.json"
              : "incomplete sweep (complete: false)";
      if (!options.allow_partial) {
        throw util::TransientError(
            "shard dir " + input.dir + ": " + what +
            " — resumable: rerun that shard with --resume, then merge "
            "again");
      }
      result.notes.push_back("shard dir " + input.dir + ": " + what +
                             "; its cases degrade to failed");
      inputs.push_back(std::move(input));
      continue;
    }
    if (input.report.merged) {
      throw util::DataError("shard dir " + input.dir +
                            " holds an already-merged report — merging "
                            "merges is not meaningful");
    }
    // Partition-consistency check: every case a stamped shard claims
    // must actually hash to that shard. A violation means the dirs come
    // from different partitions (or a different hash), and fusing them
    // could silently drop or double cases.
    if (input.report.shard_total > 1) {
      for (const CaseRecord& r : input.report.cases) {
        const int want = shard_of(r.id, input.report.shard_total);
        if (want != input.report.shard_index) {
          throw util::DataError(
              "partition mismatch: shard dir " + input.dir + " (stamp " +
              std::to_string(input.report.shard_index) + "/" +
              std::to_string(input.report.shard_total) + ") claims case " +
              r.id + ", which hashes to shard " + std::to_string(want));
        }
      }
    }
    input.usable = true;
    if (!saw_usable) {
      fast_mode = input.report.fast_mode;
      saw_usable = true;
    } else if (input.report.fast_mode != fast_mode) {
      throw util::DataError("shard dir " + input.dir +
                            " was swept at a different scale (fast_mode "
                            "mismatch) — outputs are not mergeable");
    }
    inputs.push_back(std::move(input));
  }

  // ---- Pass 2: claim cases, detecting overlap and impostors. ----------
  std::set<std::string> expected_ids;
  for (const CaseMeta& meta : options.expected) {
    expected_ids.insert(meta.id);
  }
  struct Claim {
    const ShardInput* shard = nullptr;
    const CaseRecord* record = nullptr;
  };
  std::map<std::string, Claim> claims;
  SweepReport fused;  // header totals accumulate; cases fill below
  for (const ShardInput& input : inputs) {
    if (!input.usable) {
      continue;
    }
    fused.chunks_quarantined += input.report.chunks_quarantined;
    fused.rows_lost += input.report.rows_lost;
    fused.values_defaulted += input.report.values_defaulted;
    fused.parse_lines_bad += input.report.parse_lines_bad;
    for (const CaseRecord& r : input.report.cases) {
      if (expected_ids.find(r.id) == expected_ids.end()) {
        throw util::DataError("shard dir " + input.dir +
                              " reports unknown case " + r.id +
                              " — shard set does not match this sweep");
      }
      const auto [it, inserted] = claims.emplace(r.id, Claim{&input, &r});
      if (!inserted) {
        throw util::DataError(
            "case " + r.id + " claimed by both " + it->second.shard->dir +
            " and " + input.dir + " — overlapping shards");
      }
    }
  }

  // ---- Pass 3: verify digests and materialize outputs. ----------------
  fs::create_directories(options.out_dir);
  struct Placed {
    std::uint32_t crc = 0;
    std::uint64_t size = 0;
    std::string from_case;
  };
  std::map<std::string, Placed> placed;
  for (const auto& [id, claim] : claims) {
    if (!claim.record->ok) {
      continue;  // failed cases carry no trusted outputs
    }
    for (const CaseOutput& o : claim.record->outputs) {
      const std::string src = claim.shard->dir + "/" + o.file;
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

  // ---- Pass 4: canonical report, written last (the commit marker). ----
  fused.fast_mode = fast_mode;
  for (const auto& [id, claim] : claims) {
    fused.cases.push_back(*claim.record);
    (void)id;
  }
  SweepReport merged = canonicalize(fused, options.expected);
  for (const CaseRecord& r : merged.cases) {
    if (r.ok) {
      ++result.cases_ok;
    } else if (claims.find(r.id) != claims.end()) {
      ++result.cases_failed;
    } else {
      ++result.cases_missing;
      if (!options.allow_partial) {
        throw util::TransientError(
            "case " + r.id + " (shard " +
            std::to_string(shard_of(
                r.id, std::max(1, static_cast<int>(shard_dirs.size())))) +
            " of a " + std::to_string(shard_dirs.size()) +
            "-way split) appears in no shard dir — resumable: run the "
            "missing shard, then merge again");
      }
    }
  }
  write_report(merged, options.out_dir + "/report.json");
  result.report = std::move(merged);
  if (obs::metrics_enabled()) {
    static obs::Counter& cases = obs::counter("sweep.cases_merged");
    static obs::Counter& files = obs::counter("sweep.files_merged");
    cases.add(result.report.cases.size());
    files.add(result.files_copied);
  }
  return result;
}

}  // namespace cgc::sweep
