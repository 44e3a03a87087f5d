#include "common.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>

#include "analysis/report.hpp"
#include "core/characterization.hpp"
#include "sweep/cache.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace cgc::bench {

namespace {

std::string env_or(const char* name, const std::string& fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : value;
}

std::string cache_dir() { return env_or("CGC_BENCH_CACHE", "bench_cache"); }

/// Loads a trace through the shared, lease-guarded CGCS cache
/// (src/sweep/cache.hpp), building it at most once across *processes*:
/// concurrent shard workers either load the published entry or wait on
/// the single builder's lock — never a torn write, never a duplicate
/// generation. Entries are keyed by `key` plus a hash of the
/// generator's canonical config string, so a config change is a new
/// entry rather than a silently stale hit.
///
/// Loads run in degraded mode: chunk-level store damage is
/// quarantined, accounted via note_damage(), and the surviving rows
/// are used — the sweep completes and the loss surfaces in report.json
/// instead of an abort. Structurally unreadable entries are discarded
/// and rebuilt.
trace::TraceSet cached_trace(const std::string& key,
                             const std::string& canonical_config,
                             const std::function<trace::TraceSet()>& build) {
  const std::string base = cache_dir() + "/" + key + "_" +
                           sweep::config_hash_hex(canonical_config);
  sweep::CacheResult result = sweep::load_or_build_cgcs(base, build);
  if (!result.damage.clean()) {
    CGC_LOG(kWarn) << "store cache " << base
                   << ".cgcs is damaged; continuing degraded ("
                   << result.damage.summary() << ")";
    note_damage(result.damage);
  }
  return std::move(result.trace);
}

std::string scale_key() {
  return fast_mode() ? "fast" : "full";
}

/// Process-wide trace memo: each standard trace is built once and
/// shared by reference across every case in the process (the win that
/// makes cgc_report beat one-binary-per-figure wall clock). unique_ptr
/// slots keep references stable across map rehashes.
const trace::TraceSet& memoized(
    const std::string& key,
    const std::function<trace::TraceSet()>& build) {
  static std::mutex mutex;
  static std::map<std::string, std::unique_ptr<trace::TraceSet>> cache;
  std::unique_lock lock(mutex);
  auto& slot = cache[key];
  if (!slot) {
    // Build outside the lock would allow duplicate work on races; the
    // sweep is sequential, so holding it keeps the logic simple.
    slot = std::make_unique<trace::TraceSet>(build());
  }
  return *slot;
}

}  // namespace

bool fast_mode() {
  const char* value = std::getenv("CGC_BENCH_FAST");
  return value != nullptr && value[0] != '\0' && value[0] != '0';
}

util::TimeSec workload_horizon() {
  return (fast_mode() ? 4 : 30) * util::kSecondsPerDay;
}

util::TimeSec hostload_horizon() {
  return (fast_mode() ? 6 : 30) * util::kSecondsPerDay;
}

std::size_t google_machines() { return fast_mode() ? 24 : 64; }

std::size_t grid_machines() { return fast_mode() ? 12 : 32; }

std::string out_dir() {
  const std::string dir = env_or("CGC_BENCH_OUT", "bench_out");
  std::filesystem::create_directories(dir);
  return dir;
}

const trace::TraceSet& google_workload(double task_sampling_rate) {
  char key[64];
  std::snprintf(key, sizeof(key), "workload_google_%g_%s",
                task_sampling_rate, scale_key().c_str());
  char canonical[128];
  std::snprintf(canonical, sizeof(canonical),
                "google_workload v1 rate=%.17g horizon=%lld",
                task_sampling_rate,
                static_cast<long long>(workload_horizon()));
  const std::string config = canonical;
  return memoized(key, [task_sampling_rate, key, config] {
    return cached_trace(key, config, [task_sampling_rate] {
      gen::GoogleModelConfig model;
      model.task_sampling_rate = task_sampling_rate;
      return gen::GoogleWorkloadModel(model).generate_workload(
          workload_horizon());
    });
  });
}

const trace::TraceSet& grid_workload(const std::string& name) {
  const std::string key =
      "workload_" + analysis::sanitize_name(name) + "_" + scale_key();
  const std::string config =
      "grid_workload v1 system=" + name + " horizon=" +
      std::to_string(workload_horizon());
  return memoized(key, [key, config, &name] {
    return cached_trace(key, config, [&name] {
      return gen::GridWorkloadModel(preset_by_name(name))
          .generate_workload(workload_horizon());
    });
  });
}

gen::GridSystemPreset preset_by_name(const std::string& name) {
  for (gen::GridSystemPreset& preset : gen::presets::all()) {
    if (preset.name == name) {
      return preset;
    }
  }
  CGC_CHECK_MSG(false, "unknown grid system: " + name);
  return {};
}

const trace::TraceSet& google_hostload() {
  const std::string key = "hostload_google_" + scale_key();
  const std::string config =
      "google_hostload v1 machines=" + std::to_string(google_machines()) +
      " horizon=" + std::to_string(hostload_horizon());
  return memoized(key, [&key, &config] {
    return cached_trace(key, config, [] {
      return Characterization::simulate_google_hostload(
          gen::GoogleModelConfig{}, sim::SimConfig{}, google_machines(),
          hostload_horizon());
    });
  });
}

const trace::TraceSet& grid_hostload(const std::string& name) {
  const std::string key =
      "hostload_" + analysis::sanitize_name(name) + "_" + scale_key();
  const std::string config =
      "grid_hostload v1 system=" + name +
      " machines=" + std::to_string(grid_machines()) +
      " horizon=" + std::to_string(hostload_horizon());
  return memoized(key, [&key, &config, &name] {
    return cached_trace(key, config, [&name] {
      return Characterization::simulate_grid_hostload(
          preset_by_name(name), grid_machines(), hostload_horizon());
    });
  });
}

void print_header(const std::string& id, const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  if (fast_mode()) {
    std::printf("scale: fast (unset CGC_BENCH_FAST for a full run)\n");
  } else {
    std::printf("scale: full (set CGC_BENCH_FAST=1 for a quick run)\n");
  }
  std::printf("================================================================\n");
}

void print_comparison(const std::string& metric, const std::string& paper,
                      const std::string& measured) {
  std::printf("  %-46s paper: %-14s measured: %s\n", metric.c_str(),
              paper.c_str(), measured.c_str());
}

void print_comparison(const std::string& metric, double paper,
                      double measured, int digits) {
  print_comparison(metric, util::cell(paper, digits),
                   util::cell(measured, digits));
}

void print_series_note(const std::string& dat_hint) {
  std::printf("\n  plot series written under %s/ (%s)\n", out_dir().c_str(),
              dat_hint.c_str());
}

namespace {

std::mutex g_health_mutex;
IoHealth g_health;

}  // namespace

void note_damage(const store::DamageReport& damage) {
  if (damage.clean()) {
    return;
  }
  std::lock_guard lock(g_health_mutex);
  g_health.chunks_quarantined += damage.chunks_quarantined();
  g_health.rows_lost += damage.rows_lost;
  g_health.values_defaulted += damage.values_defaulted;
}

IoHealth io_health() {
  std::lock_guard lock(g_health_mutex);
  return g_health;
}

}  // namespace cgc::bench
