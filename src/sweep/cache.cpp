#include "sweep/cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "store/writer.hpp"
#include "sweep/lease.hpp"
#include "sweep/partition.hpp"
#include "trace/loader.hpp"
#include "util/args.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace cgc::sweep {

namespace fs = std::filesystem;

std::uint64_t config_hash(std::string_view canonical_config) {
  // Same construction as the case partitioner: both are "stable name ->
  // stable 64-bit id" and must never depend on process state.
  return stable_case_hash(canonical_config);
}

std::string config_hash_hex(std::string_view canonical_config) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(
                    config_hash(canonical_config)));
  return buf;
}

namespace {

long cache_wait_seconds() {
  const long seconds = util::env_long("CGC_CACHE_WAIT", 600);
  if (seconds < 0) {
    throw util::FatalError("CGC_CACHE_WAIT: must be >= 0 seconds, got " +
                           std::to_string(seconds));
  }
  return seconds;
}

/// Loads a published entry in degraded mode. Returns false (after
/// removing the file) when it is structurally unreadable.
bool try_load(const std::string& cgcs, trace::TraceSet* trace,
              store::DamageReport* damage) {
  if (!fs::exists(cgcs)) {
    return false;
  }
  try {
    trace::LoadOptions options;
    options.format = trace::TraceFormat::kCgcs;
    options.on_damage = trace::OnDamage::kQuarantine;
    trace::LoadReport report;
    *trace = trace::load_trace(cgcs, options, &report);
    *damage = report.damage;
    return true;
  } catch (const util::Error& e) {
    CGC_LOG(kWarn) << "discarding unreadable cache entry " << cgcs << ": "
                   << e.what();
    std::error_code ec;
    fs::remove(cgcs, ec);
    return false;
  }
}

/// Removes `<base>.cgcs.tmp.*` staging litter a dead builder left.
/// Caller holds the builder lock.
void sweep_staging_litter(const std::string& cgcs)
    CGC_REQUIRES_LEASE("<cgcs>.lock") {
  const fs::path entry(cgcs);
  const std::string prefix = entry.filename().string() + ".tmp.";
  std::error_code ec;
  for (const fs::directory_entry& e :
       fs::directory_iterator(entry.parent_path(), ec)) {
    const std::string name = e.path().filename().string();
    if (name.compare(0, prefix.size(), prefix) == 0) {
      fs::remove(e.path(), ec);
    }
  }
}

}  // namespace

CacheResult load_or_build_cgcs(
    const std::string& base,
    const std::function<trace::TraceSet()>& build) {
  const std::string cgcs = base + ".cgcs";
  const std::string lock_path = cgcs + ".lock";
  CacheResult result;
  const long wait_s = cache_wait_seconds();
  // Saturate rather than wrap: a huge wait means "wait as long as it takes".
  constexpr std::uint64_t kNsPerS = 1'000'000'000;
  const std::uint64_t now_ns = monotonic_now_ns();
  const std::uint64_t deadline_ns =
      now_ns + std::min(static_cast<std::uint64_t>(wait_s),
                        (UINT64_MAX - now_ns) / kNsPerS) * kNsPerS;
  fs::create_directories(fs::path(cgcs).parent_path());
  for (;;) {
    if (try_load(cgcs, &result.trace, &result.damage)) {
      if (obs::metrics_enabled()) {
        static obs::Counter& hits = obs::counter("sweep.cache_hits");
        hits.add(1);
      }
      return result;
    }
    std::optional<Lease> lock = Lease::try_acquire(lock_path);
    if (lock.has_value()) {
      // Double-check under the lock: a builder may have published while
      // we were acquiring (our pre-lock load saw nothing).
      if (try_load(cgcs, &result.trace, &result.damage)) {
        return result;
      }
      sweep_staging_litter(cgcs);
      CGC_LOG(kInfo) << "building shared cache entry " << cgcs;
      const trace::TraceSet built = build();
      const std::string staging =
          cgcs + ".tmp." + std::to_string(::getpid());
      store::write_cgcs(built, staging);
      fs::rename(staging, cgcs);
      result.built = true;
      if (obs::metrics_enabled()) {
        static obs::Counter& builds = obs::counter("sweep.cache_builds");
        builds.add(1);
      }
      // Reload from the published file so the builder observes exactly
      // the bytes every other process will — the determinism contract.
      CGC_CHECK_MSG(try_load(cgcs, &result.trace, &result.damage),
                    "cache entry unreadable immediately after publish: " +
                        cgcs);
      return result;
    }
    // Another process is building this entry right now. Wait for it to
    // publish (or die — its flock releases and we take over).
    result.waited = true;
    if (monotonic_now_ns() > deadline_ns) {
      throw util::TransientError(
          "timed out waiting for cache builder lock " + lock_path +
          " (CGC_CACHE_WAIT=" + std::to_string(wait_s) +
          "s); retry the shard");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

CacheAudit verify_cache(const std::string& dir, bool flag_live_locks) {
  CacheAudit audit;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    audit.issues.push_back({dir, "not a directory", true});
    return audit;
  }
  auto ends_with = [](const std::string& s, std::string_view suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file(ec)) {
      continue;
    }
    const std::string path = it->path().string();
    const std::string name = it->path().filename().string();
    if (name.find(".tmp.") != std::string::npos) {
      // Staging files are only legitimate while their builder lives;
      // the builder lock tells us whether one does.
      const std::string entry = path.substr(0, path.find(".tmp."));
      const LeaseInfo lock = read_lease(entry + ".lock");
      if (!lock.held) {
        ++audit.tmp_litter;
        audit.issues.push_back(
            {path, "orphaned staging file (builder dead)", false});
      }
      continue;
    }
    if (ends_with(name, ".lock")) {
      const LeaseInfo info = read_lease(path);
      if (!info.held) {
        ++audit.stale_locks;
        audit.issues.push_back({path, "stale builder lock (holder pid " +
                                          std::to_string(info.pid) +
                                          " dead)",
                                false});
      } else if (flag_live_locks) {
        audit.issues.push_back({path, "builder live (pid " +
                                          std::to_string(info.pid) + ")",
                                false});
      }
      continue;
    }
    if (!ends_with(name, ".cgcs")) {
      continue;
    }
    ++audit.entries;
    try {
      const store::DamageReport damage =
          store::StoreReader(path, store::ReadMode::kDegraded).verify_all();
      if (damage.clean()) {
        ++audit.entries_clean;
      } else {
        audit.issues.push_back({path, "damaged: " + damage.summary(), false});
      }
    } catch (const util::Error& e) {
      audit.issues.push_back(
          {path, std::string("unreadable: ") + e.what(), true});
    }
  }
  return audit;
}

}  // namespace cgc::sweep
