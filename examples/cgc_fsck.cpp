// cgc_fsck: validate and repair CGCS columnar store files.
//
// Verify walks the whole chunk directory (bounds + CRC-32 per chunk,
// and the column schema and row-group shape the load refuses to read
// past) and prints a damage report without materializing the trace,
// naming every quarantined or refused chunk. Repair
// performs a degraded read — dropping damaged tasks/events row groups,
// zero-filling damaged small-section columns — and rewrites a clean
// file from the surviving rows, so a partially corrupted archive
// becomes scannable again at the cost of the quarantined data.
//
// Two directory-level audits ride along:
//
//   --spill DIR  verifies a cgcd spill directory — every windows.jsonl
//                manifest row parses, its window CGCS file verifies
//                chunk-by-chunk, and the stored event count matches
//                the manifest stamp;
//   --cache DIR  audits a sweep's shared trace-memo cache — every
//                .cgcs entry verifies, and staging litter or builder
//                locks whose holder died (a crashed shard worker) are
//                flagged.
//
// Usage:
//   cgc_fsck <file.cgcs>                   verify only
//   cgc_fsck --repair <in.cgcs> <out.cgcs> rewrite clean copy
//   cgc_fsck --spill <dir>                 verify cgcd window spills
//   cgc_fsck --cache <dir>                 audit shared trace cache
//
// Exit codes: 0 file clean (or repaired losslessly), 1 damage found
// (verify) or data lost (repair), 2 usage error, 3 fatal environment
// error (including structural damage no repair can survive).
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "store/reader.hpp"
#include "store/writer.hpp"
#include "stream/daemon.hpp"
#include "sweep/cache.hpp"
#include "trace/loader.hpp"
#include "util/args.hpp"
#include "util/check.hpp"
#include "util/error.hpp"

namespace {

using namespace cgc;

void print_damage(const store::DamageReport& damage) {
  std::printf("damage: %s\n", damage.summary().c_str());
  const auto print = [](const char* what,
                        const std::vector<store::QuarantinedChunk>& list) {
    for (const store::QuarantinedChunk& q : list) {
      std::printf("  %s %s/%u rows [%llu, %llu) bytes [%llu, %llu): %s\n",
                  what, std::string(store::section_name(q.section)).c_str(),
                  static_cast<unsigned>(q.column),
                  static_cast<unsigned long long>(q.row_begin),
                  static_cast<unsigned long long>(q.row_begin + q.row_count),
                  static_cast<unsigned long long>(q.offset),
                  static_cast<unsigned long long>(q.offset + q.payload_size),
                  q.reason.c_str());
    }
  };
  print("quarantined", damage.chunks);
  print("refused", damage.refused);
}

void print_issues(const std::vector<store::AuditIssue>& issues) {
  for (const store::AuditIssue& issue : issues) {
    std::printf("  %s %s: %s\n", issue.fatal ? "BAD " : "warn",
                issue.path.c_str(), issue.what.c_str());
  }
}

int verify(const std::string& path) {
  const store::StoreReader reader(path, store::ReadMode::kDegraded);
  const store::StoreInfo& info = reader.info();
  std::printf("%s: %llu jobs, %llu tasks, %llu events, %zu chunks\n",
              path.c_str(), static_cast<unsigned long long>(info.num_jobs),
              static_cast<unsigned long long>(info.num_tasks),
              static_cast<unsigned long long>(info.num_events),
              info.num_chunks);
  const store::DamageReport damage = reader.verify_all();
  if (damage.clean()) {
    std::printf("clean: all %zu chunks verify\n", info.num_chunks);
    return cgc::util::kExitOk;
  }
  print_damage(damage);
  return cgc::util::kExitFailure;
}

int repair(const std::string& in, const std::string& out) {
  trace::LoadOptions options;
  options.format = trace::TraceFormat::kCgcs;
  options.on_damage = trace::OnDamage::kQuarantine;
  trace::LoadReport report;
  const trace::TraceSet trace = trace::load_trace(in, options, &report);
  const store::DamageReport& damage = report.damage;
  store::write_cgcs(trace, out);
  // The rewrite is clean by construction; prove it anyway with a
  // strict (on_damage = kFail) load.
  trace::LoadOptions strict;
  strict.format = trace::TraceFormat::kCgcs;
  trace::load_trace(out, strict);
  std::printf("repaired %s -> %s\n", in.c_str(), out.c_str());
  if (damage.clean()) {
    std::printf("input was clean; output is a lossless rewrite\n");
    return cgc::util::kExitOk;
  }
  print_damage(damage);
  return cgc::util::kExitFailure;
}

int verify_spill_dir(const std::string& dir) {
  const stream::SpillAudit audit = stream::verify_spill(dir);
  std::printf("%s: %llu windows, %llu clean\n", dir.c_str(),
              static_cast<unsigned long long>(audit.windows),
              static_cast<unsigned long long>(audit.windows_clean));
  print_issues(audit.issues);
  if (audit.clean()) {
    std::printf("clean: every window verifies against its manifest row\n");
    return cgc::util::kExitOk;
  }
  return cgc::util::kExitFailure;
}

int verify_cache_dir(const std::string& dir) {
  const sweep::CacheAudit audit = sweep::verify_cache(dir);
  std::printf("%s: %zu entries (%zu clean), %zu stale locks, "
              "%zu staging files orphaned\n",
              dir.c_str(), audit.entries, audit.entries_clean,
              audit.stale_locks, audit.tmp_litter);
  print_issues(audit.issues);
  if (audit.clean()) {
    std::printf("clean: every entry verifies, no litter\n");
    return cgc::util::kExitOk;
  }
  return cgc::util::kExitFailure;
}

}  // namespace

int main(int argc, char** argv) {
  cgc::util::Args args("cgc_fsck", "validate and repair CGCS store files");
  args.add_string("repair", "",
                  "rewrite a clean copy of this damaged .cgcs file; the "
                  "output path is the positional argument");
  args.add_string("spill", "", "verify a cgcd spill directory");
  args.add_string("cache", "", "audit a sweep's shared trace-memo cache");
  args.set_positional_help(
      "<file.cgcs> | <out.cgcs>",
      "the store file to verify, or (with --repair) the repaired output");
  args.add_usage_note(
      "Exit codes: 0 clean (or lossless rewrite); 1 damage found or\n"
      "data lost; 2 usage; 3 fatal (structural damage).");
  switch (args.parse(argc, argv)) {
    case cgc::util::ParseStatus::kHelp:
      return cgc::util::kExitOk;
    case cgc::util::ParseStatus::kError:
      return cgc::util::kExitUsage;
    case cgc::util::ParseStatus::kOk:
      break;
  }
  const std::vector<std::string>& pos = args.positionals();
  const int modes = (args.provided("repair") ? 1 : 0) +
                    (args.provided("spill") ? 1 : 0) +
                    (args.provided("cache") ? 1 : 0);
  const auto fail_usage = [&](const char* message) {
    std::fprintf(stderr, "%s\n%s", message, args.usage().c_str());
    return cgc::util::kExitUsage;
  };
  if (modes > 1) {
    return fail_usage("--repair, --spill and --cache are exclusive");
  }
  try {
    if (args.provided("repair")) {
      if (pos.size() != 1) {
        return fail_usage("--repair <in.cgcs> needs one output path");
      }
      return repair(args.get_string("repair"), pos[0]);
    }
    if (args.provided("spill")) {
      if (!pos.empty()) {
        return fail_usage("--spill takes no positional arguments");
      }
      return verify_spill_dir(args.get_string("spill"));
    }
    if (args.provided("cache")) {
      if (!pos.empty()) {
        return fail_usage("--cache takes no positional arguments");
      }
      return verify_cache_dir(args.get_string("cache"));
    }
    if (pos.size() != 1) {
      return fail_usage("expected exactly one <file.cgcs> to verify");
    }
    return verify(pos[0]);
  } catch (const cgc::util::Error& e) {
    // Structural damage (header/trailer/footer) leaves nothing to
    // salvage — that is an environment-level failure for this tool.
    std::fprintf(stderr, "error: %s\n", e.what());
    return cgc::util::kExitFatal;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return cgc::error::exit_code(e);
  }
}
