#include "stream/daemon.hpp"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <ostream>
#include <thread>

#include "gen/google_model.hpp"
#include "obs/obs.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "stream/replay.hpp"
#include "stream/shutdown.hpp"
#include "trace/loader.hpp"
#include "util/check.hpp"
#include "util/file.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/time_util.hpp"

namespace cgc::stream {

namespace {

constexpr const char* kKnownQueries[] = {
    "priority_mix", "job_cdf",  "task_cdf", "submission",
    "host_load",    "queue",    "noise",    "all",
};

void write_health_json(std::ostream& out, const StreamHealth& health) {
  out << "{\"late_dropped\": " << health.late_dropped
      << ", \"late_absorbed\": " << health.late_absorbed
      << ", \"faults_dropped\": " << health.faults_dropped
      << ", \"faults_duplicated\": " << health.faults_duplicated
      << ", \"parse_bad_lines\": " << health.parse_bad_lines
      << ", \"rows_lost\": " << health.rows_lost
      << ", \"lossy\": " << (health.lossy() ? "true" : "false") << "}";
}

}  // namespace

bool is_known_query(const std::string& metric) {
  for (const char* known : kKnownQueries) {
    if (metric == known) {
      return true;
    }
  }
  return false;
}

int run_daemon(const DaemonConfig& config, std::istream& in,
               std::ostream& out, DaemonStats* stats_out) {
  for (const std::string& query : config.queries) {
    CGC_CHECK_MSG(is_known_query(query), "unknown query: " + query);
  }
  WindowConfig window_config = config.window;
  if (!config.spill_dir.empty()) {
    window_config.keep_events = true;
  }
  SlidingWindow engine(window_config);

  std::ofstream spill_jsonl;
  const std::string jsonl_path = config.spill_dir + "/windows.jsonl";
  std::uint64_t windows_spilled = 0;
  if (!config.spill_dir.empty()) {
    std::filesystem::create_directories(config.spill_dir);
    // A failed open or write surfaces at close_or_throw() below.
    spill_jsonl.open(jsonl_path, std::ios::trunc);
    engine.set_spill([&](const WindowStats& ws,
                         std::span<const trace::TaskEvent> events) {
      char name[40];
      std::snprintf(name, sizeof(name), "window-%06lld.cgcs",
                    static_cast<long long>(ws.index));
      trace::TraceSet window_trace("cgcd-window");
      window_trace.reserve_events(events.size());
      for (const trace::TaskEvent& event : events) {
        window_trace.add_event(event);
      }
      window_trace.set_duration(ws.end - ws.start);
      window_trace.finalize();
      store::write_cgcs(window_trace, config.spill_dir + "/" + name);
      std::string state;
      ws.append_state(&state);
      char digest[24];
      std::snprintf(digest, sizeof(digest), "%016llx",
                    static_cast<unsigned long long>(util::fnv1a(state)));
      spill_jsonl << "{\"index\": " << ws.index << ", \"start\": " << ws.start
                  << ", \"end\": " << ws.end
                  << ", \"events\": " << ws.events.total()
                  << ", \"raw_events\": " << events.size()
                  << ", \"state_fnv\": \"" << digest << "\", \"cgcs\": \""
                  << name << "\"}\n";
      ++windows_spilled;
    });
  }

  // Ingest. Wall time is measured around ingest only — the load/
  // generate cost is not part of the streaming rate.
  StreamHealth io_health;
  const auto wall0 = std::chrono::steady_clock::now();
  // Trace replay. With rate > 0, each batch waits until trace time has
  // advanced `rate` seconds per wall second since the first event.
  const auto replay = [&](const trace::TraceSet& trace) {
    std::optional<util::TimeSec> t0;
    std::chrono::steady_clock::time_point pace0;
    replay_trace(
        trace, config.batch_size,
        [&](std::span<const trace::TaskEvent> batch) {
          if (!t0) {
            t0 = batch.front().time;
            pace0 = std::chrono::steady_clock::now();
          }
          if (config.rate > 0.0) {
            const double target_s =
                static_cast<double>(batch.front().time - *t0) / config.rate;
            std::this_thread::sleep_until(
                pace0 + std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(target_s)));
          }
          engine.ingest(batch);
        });
  };
  if (config.generate) {
    gen::GoogleModelConfig model_config;
    model_config.task_sampling_rate = config.task_sampling_rate;
    const auto horizon = static_cast<util::TimeSec>(config.generate_days *
                                                    util::kSecondsPerDay);
    replay(gen::GoogleWorkloadModel(model_config).generate_workload(horizon));
  } else if (config.input == "-") {
    read_event_stream(
        in, config.batch_size,
        [&engine](std::span<const trace::TaskEvent> batch) {
          engine.ingest(batch);
        },
        &io_health);
  } else if (!config.input.empty()) {
    trace::LoadOptions load_options;
    load_options.strictness = config.strict_load
                                  ? trace::Strictness::kStrict
                                  : trace::Strictness::kTolerant;
    load_options.on_damage = config.strict_load
                                 ? trace::OnDamage::kFail
                                 : trace::OnDamage::kQuarantine;
    trace::LoadReport report;
    const trace::TraceSet loaded =
        trace::load_trace(config.input, load_options, &report);
    io_health.parse_bad_lines += report.parse.lines_bad;
    io_health.rows_lost += report.damage.rows_lost;
    replay(loaded);
  } else {
    CGC_CHECK_MSG(false, "no input: give a trace path, \"-\", or generate");
  }
  engine.flush();
  if (!config.spill_dir.empty()) {
    util::close_or_throw(spill_jsonl, jsonl_path);
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();

  DaemonStats stats;
  stats.events = engine.events_ingested();
  stats.windows_closed = engine.windows_closed();
  stats.windows_spilled = windows_spilled;
  stats.wall_seconds = wall_s;
  stats.events_per_second =
      wall_s > 0.0 ? static_cast<double>(stats.events) / wall_s : 0.0;
  stats.interrupted = shutdown_requested();
  stats.health = engine.health();
  stats.health.merge(io_health);

  const auto previous_precision = out.precision(12);
  out << "{\"summary\": {\"events\": " << stats.events
      << ", \"windows_closed\": " << stats.windows_closed
      << ", \"windows_spilled\": " << stats.windows_spilled
      << ", \"wall_s\": " << stats.wall_seconds
      << ", \"events_per_s\": " << stats.events_per_second
      << ", \"interrupted\": " << (stats.interrupted ? "true" : "false")
      << ", \"health\": ";
  write_health_json(out, stats.health);
  out << "}";
  if (!config.queries.empty()) {
    const WindowStats* target = config.query_window >= 0
                                    ? engine.find(config.query_window)
                                    : engine.latest();
    out << ",\n\"window_found\": " << (target != nullptr ? "true" : "false")
        << ",\n\"queries\": {";
    const char* sep = "";
    for (const std::string& query : config.queries) {
      out << sep << "\n\"" << query << "\": ";
      if (target == nullptr) {
        out << "null";
      } else {
        target->write_json(out, query);
      }
      sep = ",";
    }
    out << "}";
  }
  out << "}\n";
  out.precision(previous_precision);

  if (obs::enabled()) {
    obs::export_now();
  }
  if (stats_out != nullptr) {
    *stats_out = stats;
  }
  return stats.health.lossy() ? util::kExitFailure : util::kExitOk;
}

SpillAudit verify_spill(const std::string& dir) {
  const std::string manifest = dir + "/windows.jsonl";
  std::ifstream in(manifest);
  CGC_CHECK_MSG(in.is_open(), "no spill manifest at " + manifest);

  SpillAudit audit;
  std::string line;
  std::uint64_t row = 0;
  while (std::getline(in, line)) {
    ++row;
    if (line.empty()) {
      continue;
    }
    ++audit.windows;
    const std::size_t issues_before = audit.issues.size();

    std::string name;
    std::uint64_t expected_events = 0;
    const std::optional<util::json::Value> entry = util::json::parse(line);
    // raw_events is the authoritative per-window store row count;
    // manifests from before it existed stamped the same value as
    // "events" (the window's deduplicated total), so fall back.
    const bool have_count =
        entry && (entry->get("raw_events", &expected_events) ||
                  entry->get("events", &expected_events));
    if (!have_count || !entry->get("cgcs", &name)) {
      audit.issues.push_back({manifest,
                              "malformed manifest row " + std::to_string(row),
                              true});
      continue;
    }

    const std::string path = dir + "/" + name;
    try {
      const store::StoreReader reader(path, store::ReadMode::kDegraded);
      const store::DamageReport damage = reader.verify_all();
      if (!damage.clean()) {
        audit.issues.push_back({path, damage.summary(), false});
      }
      if (reader.info().num_events != expected_events) {
        audit.issues.push_back(
            {path,
             "event count mismatch: store has " +
                 std::to_string(reader.info().num_events) +
                 ", manifest records " + std::to_string(expected_events),
             true});
      }
    } catch (const util::Error& e) {
      audit.issues.push_back({path, std::string("unreadable: ") + e.what(),
                              true});
    }

    if (audit.issues.size() == issues_before) {
      ++audit.windows_clean;
    }
  }
  return audit;
}

}  // namespace cgc::stream
