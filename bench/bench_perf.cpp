// bench_perf — the repo's perf harness: one leg per run, one record per leg.
//
//   bench_perf <sim|plan|stream|store> [--out PATH]
//
// Each leg measures one layer at its standard scale (CGC_BENCH_FAST=1
// shrinks every leg to smoke-test scale) and writes its record to --out
// (default $CGC_BENCH_OUT/BENCH_<leg>.json) and to stdout.
// The legs and their bars are listed in kLegs below; a missed bar exits
// 1, a bad command line exits 2 before any work starts.
//
// Every record has the same frame: bench, fast_mode, the host
// (hardware_concurrency, ram_gb), pass, the leg's own fields, then
// runs[]. Each run carries wall_s, peak_rss_mb (VmHWM, reset before the
// run; rss_isolated is false where the reset is unsupported and the peak
// is cumulative) and its own fields.
// The sim and plan legs repeat one workload at several CGC_THREADS
// counts; those runs carry threads and a content digest, and the record
// says whether the digests match. They are determinism checks, not
// speedup measurements.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common.hpp"
#include "exec/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "plan/matrix.hpp"
#include "plan/plan_io.hpp"
#include "plan/runner.hpp"
#include "sim/cluster_sim.hpp"
#include "store/encoding.hpp"
#include "store/writer.hpp"
#include "stream/replay.hpp"
#include "stream/window.hpp"
#include "trace/google_format.hpp"
#include "trace/loader.hpp"
#include "util/args.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/file.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace cgc;

// ---------------------------------------------------------------------------
// Host and timing

/// The value of a "Key: <n> kB" row of a /proc file, in MB; 0 when the
/// file or row is unavailable.
double proc_mb(const char* path, std::string_view row) {
  std::ifstream in(path);
  std::string key;
  while (in >> key) {
    if (key == row) {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(4096, '\n');
  }
  return 0.0;
}

std::size_t hardware_concurrency() {
  return std::max(1u, std::thread::hardware_concurrency());
}

double ram_gb() { return proc_mb("/proc/meminfo", "MemTotal:") / 1024.0; }

/// "key": value pairs in insertion order, values already JSON text.
class Fields {
 public:
  Fields& num(std::string_view key, double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return raw(key, buf);
  }
  Fields& count(std::string_view key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Fields& flag(std::string_view key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Fields& text(std::string_view key, std::string_view v) {
    std::string quoted = "\"";
    quoted.append(util::json::escape(v)).append("\"");
    return raw(key, quoted);
  }
  Fields& append(const Fields& other) {
    pairs_.insert(pairs_.end(), other.pairs_.begin(), other.pairs_.end());
    return *this;
  }
  /// The pairs joined by `sep`.
  std::string join(std::string_view sep) const {
    std::string out;
    for (const std::string& pair : pairs_) {
      if (!out.empty()) {
        out += sep;
      }
      out += pair;
    }
    return out;
  }

 private:
  Fields& raw(std::string_view key, const std::string& json) {
    std::string pair = "\"";
    pair.append(key).append("\": ").append(json);
    pairs_.push_back(std::move(pair));
    return *this;
  }
  std::vector<std::string> pairs_;
};

/// One measured run of a leg.
struct Run {
  double wall_s = 0;
  double peak_rss_mb = 0;
  bool rss_isolated = false;
  Fields fields;  ///< the run's own measurements
};

/// What a leg hands the record writer.
struct Record {
  bool pass = false;
  Fields fields;
  std::vector<Run> runs;
};

/// Resets the VmHWM watermark, times `body`, and reads the peak RSS.
template <typename Body>
Run timed(Body&& body) {
  Run run;
  {
    std::ofstream clear("/proc/self/clear_refs");
    run.rss_isolated = clear.is_open() && (clear << "5").good();
  }
  const auto start = std::chrono::steady_clock::now();
  body();
  run.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  run.peak_rss_mb = proc_mb("/proc/self/status", "VmHWM:");
  return run;
}

/// Runs `body` once per thread count under a pool of that size. `body`
/// returns the run and its output's digest; each run records both with
/// its thread count. Adds `deterministic` to the record and returns it:
/// true when every digest matches.
template <typename Body>
bool determinism_runs(std::span<const std::size_t> thread_counts, Body&& body,
                      Record* record) {
  std::vector<std::string> digests;
  for (const std::size_t threads : thread_counts) {
    util::ThreadPool pool(threads);
    exec::ScopedPool scoped(&pool);
    auto [run, digest] = body();
    std::printf("  %zu thread(s): %.2f s wall, peak RSS %.0f MB%s, digest "
                "%s\n",
                threads, run.wall_s, run.peak_rss_mb,
                run.rss_isolated ? "" : " (cumulative)", digest.c_str());
    run.fields.count("threads", threads).text("digest", digest);
    record->runs.push_back(std::move(run));
    digests.push_back(std::move(digest));
  }
  const bool same = std::all_of(digests.begin(), digests.end(),
                                [&](const std::string& d) {
                                  return d == digests.front();
                                });
  record->fields.flag("deterministic", same)
      .text("thread_runs", "determinism check, not a speedup");
  return same;
}

void write_record(const std::string& path, const std::string& leg,
                  const Record& record) {
  Fields top;
  top.text("bench", "perf_" + leg)
      .flag("fast_mode", bench::fast_mode())
      .count("hardware_concurrency", hardware_concurrency())
      .num("ram_gb", ram_gb())
      .flag("pass", record.pass)
      .append(record.fields);
  std::string out = "{\n  " + top.join(",\n  ") + ",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < record.runs.size(); ++i) {
    const Run& r = record.runs[i];
    Fields run;
    run.num("wall_s", r.wall_s)
        .num("peak_rss_mb", r.peak_rss_mb)
        .flag("rss_isolated", r.rss_isolated)
        .append(r.fields);
    out += "    {";
    out += run.join(", ");
    out += i + 1 < record.runs.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  util::write_file_atomic(path, out);
  std::printf("\nrecord written to %s:\n%s", path.c_str(), out.c_str());
}

// ---------------------------------------------------------------------------
// Legs

/// ClusterSim over the paper's cluster, a month on 12.5k hosts (fast:
/// 2 days on 400), at 1/2/4 threads; the TraceSet content digest must
/// match at every thread count.
Record run_sim() {
  bench::print_header("PERF-SIM", "ClusterSim throughput and determinism");
  const bool fast = bench::fast_mode();
  gen::GoogleWorkloadModel model;
  const std::size_t machines = fast ? 400 : 12500;
  const util::TimeSec horizon =
      fast ? 2 * util::kSecondsPerDay : util::kSecondsPerMonth;
  const std::vector<trace::Machine> park = model.make_machines(machines);
  const sim::Workload workload =
      model.generate_sim_workload(horizon, machines);
  sim::SimConfig config;
  config.horizon = horizon;
  // Keep the dynamics and the host-load output (the analyzers' input);
  // skip the per-event and per-task records — at this scale they are
  // memory, not information (the digest still covers every sample).
  config.record_events = false;
  config.record_tasks = false;
  const double days = static_cast<double>(horizon) / util::kSecondsPerDay;
  std::printf("  %zu machines, %.1f days, %zu task specs\n", machines, days,
              workload.size());

  Record record;
  const std::size_t threads[] = {1, 2, 4};
  record.pass = determinism_runs(threads, [&] {
    sim::ClusterSim sim(park, config);
    trace::TraceSet out;
    Run run = timed([&] { out = sim.run(workload); });
    const std::int64_t events = sim.stats().events_processed;
    run.fields.count("events_processed", events)
        .num("events_per_sec", static_cast<double>(events) / run.wall_s);
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(out.content_digest()));
    return std::pair{std::move(run), std::string(hex)};
  }, &record);
  record.fields.count("machines", machines)
      .num("horizon_days", days)
      .count("task_specs", workload.size());
  return record;
}

/// A 16-scenario what-if matrix (2 fleets x 2 workload profiles x 2
/// placements x preemption on/off, 4 h horizon) through PlanRunner at
/// 1, 4 and hardware-concurrency threads; the rendered plan.json must
/// be byte-identical at every thread count, with no failed scenario.
Record run_plan() {
  bench::print_header("PERF-PLAN",
                      "cgc::plan scenario throughput and determinism");
  plan::ScenarioSpec base;
  base.horizon = 4 * util::kSecondsPerHour;
  const plan::ScenarioMatrix matrix =
      plan::MatrixBuilder("bench", base)
          .fleets({16, 32})
          .workloads({
              plan::WorkloadProfile{"google", {{"google", 1.0}}, 1.0},
              plan::WorkloadProfile{
                  "blend-70-30", {{"google", 0.7}, {"auvergrid", 0.3}}, 0.7},
          })
          .placements({sim::PlacementPolicy::kBalanced,
                       sim::PlacementPolicy::kBestFit})
          .preemptions({true, false})
          .build();
  std::printf("  matrix: %zu scenarios, horizon %s\n", matrix.scenarios.size(),
              util::format_duration(matrix.scenarios[0].horizon).c_str());

  std::vector<std::size_t> threads = {1, 4};
  if (hardware_concurrency() != 1 && hardware_concurrency() != 4) {
    threads.push_back(hardware_concurrency());
  }
  Record record;
  bool clean = true;
  const bool deterministic = determinism_runs(threads, [&] {
    plan::PlanRunner runner(matrix, plan::PlanConfig{});
    std::vector<plan::ScenarioResult> results;
    Run run = timed([&] { results = runner.run(); });
    const auto failed = static_cast<std::uint64_t>(std::count_if(
        results.begin(), results.end(),
        [](const plan::ScenarioResult& r) { return !r.ok; }));
    clean = clean && failed == 0;
    run.fields
        .num("scenarios_per_sec",
             static_cast<double>(results.size()) / run.wall_s)
        .count("failed", failed);
    const std::string json = plan::render_plan_json(matrix, results);
    char hex[9];
    std::snprintf(hex, sizeof(hex), "%08x",
                  store::crc32({reinterpret_cast<const std::uint8_t*>(
                                    json.data()),
                                json.size()}));
    return std::pair{std::move(run), std::string(hex)};
  }, &record);
  record.pass = deterministic && clean;
  record.fields.count("scenarios", matrix.scenarios.size())
      .count("horizon_s", matrix.scenarios[0].horizon);
  return record;
}

/// The month-long Google workload's event stream through a
/// SlidingWindow at the daemon-default batch size, 1 h tumbling and
/// 1 h sliding by 5 min (12 panes per window). Ingest is serial, so
/// each shape runs once; the bar is >= 1M events/s on both.
Record run_stream() {
  bench::print_header("PERF-STREAM",
                      "cgc::stream ingest throughput and close latency");
  constexpr std::size_t kBatchSize = 8192;
  constexpr double kTargetEventsPerSec = 1e6;
  const trace::TraceSet& workload = bench::google_workload();
  const std::vector<trace::TaskEvent> events =
      stream::synthesize_events(workload);
  const std::span<const trace::TaskEvent> all(events);
  const double days = static_cast<double>(workload.duration()) /
                      static_cast<double>(util::kSecondsPerDay);
  std::printf("  trace: %zu tasks, %zu events over %.1f days\n",
              workload.tasks().size(), events.size(), days);

  // Arm the metrics registry so the close-latency histogram records;
  // the per-site cost is one relaxed load + atomic adds, well under
  // the measurement noise floor at these batch sizes.
  obs::configure(true, false);
  Record record;
  record.pass = true;
  // slide 0 is tumbling (slide = width).
  for (const util::TimeSec slide :
       {util::TimeSec{0}, 5 * util::kSecondsPerMinute}) {
    obs::reset_metrics();
    stream::WindowConfig config;
    config.width = util::kSecondsPerHour;
    config.slide = slide;
    stream::SlidingWindow engine(config);
    Run run = timed([&] {
      for (std::size_t i = 0; i < all.size(); i += kBatchSize) {
        engine.ingest(all.subspan(i, std::min(kBatchSize, all.size() - i)));
      }
      engine.flush();
    });
    const double rate = static_cast<double>(events.size()) / run.wall_s;
    const obs::Histogram& close = obs::histogram("stream.window_close_ns");
    run.fields.count("slide_s", engine.config().slide)
        .num("events_per_sec", rate)
        .count("windows_closed", engine.windows_closed())
        .num("close_ns_mean", close.mean())
        .count("close_ns_p99", close.approx_percentile(0.99));
    bench::print_comparison(
        slide == 0 ? "tumbling ingest Mevents/s (target >= 1)"
                   : "sliding ingest Mevents/s (target >= 1)",
        kTargetEventsPerSec / 1e6, rate / 1e6, 2);
    record.pass = record.pass && rate >= kTargetEventsPerSec;
    record.runs.push_back(std::move(run));
  }
  record.fields.num("trace_days", days)
      .count("events", events.size())
      .count("batch_size", kBatchSize)
      .count("window_width_s", util::kSecondsPerHour)
      .num("target_events_per_sec", kTargetEventsPerSec);
  return record;
}

double disk_mb(const std::filesystem::path& path) {
  std::uintmax_t bytes = 0;
  if (std::filesystem::is_directory(path)) {
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(path)) {
      if (entry.is_regular_file()) {
        bytes += entry.file_size();
      }
    }
  } else {
    bytes = std::filesystem::file_size(path);
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// The standard simulated Google host-load trace written and cold-loaded
/// as a clusterdata CSV directory and as a CGCS file, then scanned in
/// full and over one day (zone maps skip the other row groups). The bar
/// is a >= 5x cold-load speedup of CGCS over CSV. The work directory is
/// removed afterwards.
Record run_store() {
  bench::print_header("PERF-STORE",
                      "CGCS columnar store vs. clusterdata CSV path");
  constexpr double kTargetSpeedup = 5.0;
  const trace::TraceSet& trace = bench::google_hostload();
  std::printf("  trace: %zu tasks, %zu events, %zu samples\n",
              trace.tasks().size(), trace.events().size(),
              trace.summary().num_samples);
  const std::string work_dir = bench::out_dir() + "/perf_store";
  const std::string csv_dir = work_dir + "/csv";
  const std::string cgcs_path = work_dir + "/trace.cgcs";
  std::filesystem::remove_all(work_dir);
  std::filesystem::create_directories(work_dir);

  Record record;
  const auto step = [&](const char* name, std::size_t rows,
                        Run run) -> Fields& {
    run.fields.text("step", name).count("rows", rows);
    record.runs.push_back(std::move(run));
    return record.runs.back().fields;
  };
  step("csv_write", trace.events().size(),
       timed([&] { trace::write_google_trace(trace, csv_dir); }));
  step("cgcs_write", trace.events().size(),
       timed([&] { store::write_cgcs(trace, cgcs_path); }));
  trace::TraceSet loaded;
  trace::LoadOptions csv_options;
  csv_options.format = trace::TraceFormat::kGoogleCsv;
  Run csv_load =
      timed([&] { loaded = trace::load_trace(csv_dir, csv_options); });
  const double csv_load_s = csv_load.wall_s;
  step("csv_load", loaded.events().size(), std::move(csv_load));
  loaded = trace::TraceSet();
  Run cgcs_load = timed([&] { loaded = store::read_cgcs(cgcs_path); });
  const double speedup = csv_load_s / cgcs_load.wall_s;
  step("cgcs_load", loaded.events().size(), std::move(cgcs_load));
  loaded = trace::TraceSet();
  {
    store::StoreReader reader(cgcs_path);
    store::EventPredicate one_day;
    one_day.time_min = trace.duration() / 2;
    one_day.time_max = trace.duration() / 2 + util::kSecondsPerDay;
    for (const auto& [name, predicate] :
         {std::pair{"full_scan", store::EventPredicate{}},
          std::pair{"day_scan", one_day}}) {
      std::size_t rows = 0;
      store::ScanStats stats;
      Run scan = timed([&] {
        stats = reader.scan(predicate,
                            [&](std::span<const trace::TaskEvent> batch) {
                              rows += batch.size();
                            });
      });
      step(name, rows, std::move(scan))
          .count("row_groups_scanned", stats.row_groups_scanned)
          .count("row_groups_total", stats.row_groups_total);
    }
  }
  const double csv_mb = disk_mb(csv_dir);
  const double cgcs_mb = disk_mb(cgcs_path);
  std::filesystem::remove_all(work_dir);

  bench::print_comparison("cold-load speedup (x, target >= 5)",
                          kTargetSpeedup, speedup, 2);
  bench::print_comparison("on-disk size ratio (CSV/CGCS)", "-",
                          std::to_string(csv_mb / cgcs_mb));
  record.pass = speedup >= kTargetSpeedup;
  record.fields.count("events", trace.events().size())
      .num("csv_mb", csv_mb)
      .num("cgcs_mb", cgcs_mb)
      .num("load_speedup", speedup)
      .num("target_speedup", kTargetSpeedup);
  return record;
}

/// One entry per leg; `bench_perf <name>` runs it.
struct Leg {
  const char* name;
  Record (*run)();
  const char* what;
};

constexpr Leg kLegs[] = {
    {"sim", run_sim,
     "paper-scale ClusterSim month at 1/2/4 threads; digests must match"},
    {"plan", run_plan,
     "16-scenario plan matrix at 1/4/N threads; plan.json must match, 0 "
     "failed"},
    {"stream", run_stream,
     "stream ingest, 1 h tumbling and 1 h/5 min sliding; >= 1M events/s"},
    {"store", run_store,
     "CGCS vs clusterdata CSV write/load/scan; cold load >= 5x faster"},
};

int run(int argc, char** argv) {
  util::Args args("bench_perf", "Runs one perf leg and writes its record.");
  args.add_string("out", "",
                  "record path (default $CGC_BENCH_OUT/BENCH_<leg>.json)");
  args.set_positional_help("<leg>", "exactly one of the legs below");
  std::string legs = "legs:";
  for (const Leg& leg : kLegs) {
    char line[160];
    std::snprintf(line, sizeof(line), "\n  %-8s %s", leg.name, leg.what);
    legs += line;
  }
  args.add_usage_note(legs);
  args.add_usage_note(
      "CGC_BENCH_FAST=1 runs every leg at smoke-test scale.\n"
      "exit: 0 bar met, 1 bar missed, 2 usage error");
  switch (args.parse(argc, argv)) {
    case util::ParseStatus::kHelp:
      return util::kExitOk;
    case util::ParseStatus::kError:
      return util::kExitUsage;
    case util::ParseStatus::kOk:
      break;
  }
  const std::vector<std::string>& pos = args.positionals();
  const Leg* leg = nullptr;
  for (const Leg& candidate : kLegs) {
    if (pos.size() == 1 && pos[0] == candidate.name) {
      leg = &candidate;
    }
  }
  if (leg == nullptr) {
    std::string got;
    for (const std::string& p : pos) {
      got += " " + p;
    }
    std::fprintf(stderr, "bench_perf: want exactly one known leg, got:%s\n%s",
                 got.empty() ? " none" : got.c_str(), args.usage().c_str());
    return util::kExitUsage;
  }
  std::string path = args.get_string("out");
  if (path.empty()) {
    path = bench::out_dir() + "/BENCH_" + std::string(leg->name) + ".json";
  }
  const Record record = leg->run();
  write_record(path, leg->name, record);
  return record.pass ? util::kExitOk : util::kExitFailure;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return cgc::error::exit_code(e);
  }
}
