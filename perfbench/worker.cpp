// perfbench_worker — runs one phase of one benchmark workload in this
// process and prints its measurements as one JSON object on stdout.
//
// perfbench/run.py drives it: one worker process per workload phase, so
// the peak RSS a process reports belongs to that workload alone. The
// worker writes the artifacts run.py checks (plan.json, daemon query
// output, the cell's CGCS file) under --out.
//
//   perfbench_worker cell   --seed N --hosts H --hours D --out DIR
//   perfbench_worker plan   --seed N --hours H --out DIR [--serial]
//   perfbench_worker stream --seed N --days D --out DIR
//   perfbench_worker report-setup --out DIR   (CGC_BENCH_* from the env)
//   perfbench_worker host
//
// Timed repetitions run until --seconds have passed and at least
// --min-reps are done; set-up runs --setup-reps times. With --trace the
// worker wraps each call into a program layer in an in-memory span
// (name, start, end, parent) and writes the spans to <out>/spans.json
// when the phase ends. The program's own CGC_METRICS / CGC_TRACE dumps
// are armed from the environment by run.py, not here.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/characterization.hpp"
#include "gen/google_model.hpp"
#include "gen/grid_model.hpp"
#include "obs/metrics.hpp"
#include "plan/matrix.hpp"
#include "plan/plan_io.hpp"
#include "plan/runner.hpp"
#include "sim/cluster_sim.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "stream/daemon.hpp"
#include "stream/replay.hpp"
#include "stream/window.hpp"
#include "trace/google_format.hpp"
#include "trace/loader.hpp"
#include "util/args.hpp"
#include "util/error.hpp"

namespace {

using namespace cgc;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- in-memory spans -------------------------------------------------------

struct SpanRecord {
  std::string name;
  double start_s = 0;
  double end_s = 0;
  int parent = -1;
};

/// Spans of this process, recorded only under --trace. Layer calls all
/// happen on the main thread, so a stack gives each span its parent.
class Tracer {
 public:
  void arm() { armed_ = true; }
  bool armed() const { return armed_; }

  int open(std::string name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), seconds_since(origin_), 0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_s = seconds_since(origin_);
    stack_.pop_back();
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out.precision(17);
    out << "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      out << (i == 0 ? "" : ",") << "\n  {\"name\": \"" << s.name
          << "\", \"start_s\": " << s.start_s << ", \"end_s\": " << s.end_s
          << ", \"parent\": " << s.parent << "}";
    }
    out << "\n]}\n";
  }

 private:
  bool armed_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

Tracer g_tracer;

/// RAII span around one layer call; free when tracing is off.
class Scope {
 public:
  explicit Scope(const char* name)
      : index_(g_tracer.armed() ? g_tracer.open(name) : -1) {}
  ~Scope() {
    if (index_ >= 0) {
      g_tracer.close(index_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int index_;
};

// ---- output ----------------------------------------------------------------

/// Flat JSON object writer for the worker's one-line result.
class JsonLine {
 public:
  void num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    add(key, buf);
  }
  void integer(const std::string& key, std::int64_t value) {
    add(key, std::to_string(value));
  }
  void str(const std::string& key, const std::string& value) {
    add(key, "\"" + value + "\"");
  }
  void list(const std::string& key, const std::vector<double>& values) {
    std::string text = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s%.17g", i == 0 ? "" : ", ",
                    values[i]);
      text += buf;
    }
    add(key, text + "]");
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  void add(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "\"" : ", \"") + key + "\": " + value;
  }
  std::string body_;
};

/// A field of /proc/self/status in MB (VmRSS, VmHWM); 0 without /proc.
double proc_status_mb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == field + ":") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(4096, '\n');
  }
  return 0.0;
}

/// Resets the kernel's VmHWM watermark to the current RSS, so a later
/// VmHWM read covers only what ran since; a no-op without /proc.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double file_mb(const std::string& path) {
  return static_cast<double>(std::filesystem::file_size(path)) / (1 << 20);
}

std::string hex64(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// Options shared by every workload phase.
struct Phase {
  std::uint64_t seed = 0;
  std::string out;
  double seconds = 0;
  int min_reps = 1;
  int setup_reps = 1;
};

/// Calls `rep` until `seconds` have passed and `min_reps` are done;
/// returns the wall time of each repetition.
std::vector<double> repeat(const Phase& phase,
                           const std::function<void(int)>& rep) {
  std::vector<double> walls;
  const auto begin = Clock::now();
  for (int i = 0;
       i < phase.min_reps || seconds_since(begin) < phase.seconds; ++i) {
    const auto start = Clock::now();
    {
      Scope scope("phase.rep");
      rep(i);
    }
    walls.push_back(seconds_since(start));
  }
  if (obs::metrics_enabled()) {
    // The program's counters as of the timed repetitions, before any
    // traced-only extra work adds to them.
    std::ofstream out(phase.out + "/metrics.json");
    obs::write_metrics_json(out);
  }
  return walls;
}

// ---- cell: the paper-cell simulation ---------------------------------------

int run_cell(const Phase& phase, std::size_t hosts, double hours,
             bool traced) {
  const auto horizon = static_cast<util::TimeSec>(hours * 3600);
  gen::GoogleModelConfig model_config;
  model_config.seed = phase.seed;
  const gen::GoogleWorkloadModel model(model_config);

  std::vector<trace::Machine> machines;
  sim::Workload workload;
  std::vector<double> setup_s;
  const double rss_before = proc_status_mb("VmRSS");
  double gen_rss_mb = 0;
  for (int i = 0; i < phase.setup_reps; ++i) {
    machines = {};
    workload = {};
    const auto start = Clock::now();
    {
      Scope setup("phase.setup");
      {
        Scope s("gen.google.make_machines");
        machines = model.make_machines(hosts);
      }
      Scope s("gen.google.generate_sim_workload");
      workload = model.generate_sim_workload(horizon, hosts);
    }
    setup_s.push_back(seconds_since(start));
    if (i == 0) {
      gen_rss_mb = proc_status_mb("VmRSS") - rss_before;
    }
  }

  // The bench_perf_sim paper leg: host-load sampling on, per-event and
  // per-task records off.
  sim::SimConfig config;
  config.horizon = horizon;
  config.record_events = false;
  config.record_tasks = false;
  config.seed = phase.seed;
  const std::string cgcs = phase.out + "/cell.cgcs";
  sim::SimStats stats;
  std::string digests;
  double write_mb = 0;
  if (traced) {
    // Untraced runs leave the watermark alone: their process peak,
    // set-up included, is the workload's peak_rss_mb.
    reset_peak_rss();
  }
  const double rss_before_sim = proc_status_mb("VmRSS");
  double sim_rss_mb = 0;
  const std::vector<double> rep_s = repeat(phase, [&](int rep) {
    sim::ClusterSim sim(machines, config);
    trace::TraceSet result;
    {
      Scope s("sim.ClusterSim.run");
      result = sim.run(workload);
    }
    if (rep == 0) {
      sim_rss_mb = proc_status_mb("VmHWM") - rss_before_sim;
    }
    std::uint64_t digest = 0;
    {
      Scope s("sim.content_digest");
      digest = result.content_digest();
    }
    {
      Scope s("store.write_cgcs");
      store::write_cgcs(result, cgcs);
    }
    stats = sim.stats();
    digests += (digests.empty() ? "" : " ") + hex64(digest) + ":" +
               std::to_string(stats.events_processed);
    write_mb = file_mb(cgcs);
  });

  if (traced) {
    // Same run without host-load recording: the difference to
    // sim.ClusterSim.run is the sampling cost.
    sim::SimConfig off = config;
    off.record_host_load = false;
    sim::ClusterSim sim(machines, off);
    Scope s("sim.ClusterSim.run_hostload_off");
    sim.run(workload);
  }
  JsonLine out;
  out.list("setup_s", setup_s);
  out.list("rep_s", rep_s);
  out.str("artifacts", digests);
  out.integer("specs", static_cast<std::int64_t>(workload.size()));
  out.integer("spec_bytes", static_cast<std::int64_t>(
                                workload.size() * sizeof(sim::TaskSpec)));
  out.num("gen_rss_mb", gen_rss_mb);
  out.num("sim_rss_mb", sim_rss_mb);
  out.integer("events", stats.events_processed);
  out.integer("scheduled", stats.scheduled);
  out.integer("schedule_passes", stats.schedule_passes);
  out.integer("evicted", stats.evicted);
  out.integer("max_pending_depth", stats.max_pending_depth);
  out.num("write_mb", write_mb);
  std::cout << out.text() << std::endl;
  return util::kExitOk;
}

// ---- plan: the 576-scenario what-if matrix ---------------------------------

int run_plan(const Phase& phase, double hours, const std::string& matrix_name,
             bool serial) {
  const auto horizon = static_cast<util::TimeSec>(hours * 3600);
  // Matrix expansion is microseconds, so it is timed over many
  // repetitions and run.py reports the median.
  plan::ScenarioMatrix matrix;
  std::vector<double> setup_s;
  const auto setup_begin = Clock::now();
  for (int i = 0; i < phase.setup_reps; ++i) {
    const auto start = Clock::now();
    plan::ScenarioMatrix expanded = matrix_name == "small"
                                        ? plan::small_matrix(horizon)
                                        : plan::default_matrix(horizon);
    for (plan::ScenarioSpec& spec : expanded.scenarios) {
      spec.seed = phase.seed;
    }
    setup_s.push_back(seconds_since(start));
    matrix = std::move(expanded);
    if (seconds_since(setup_begin) > 1.0) {
      break;
    }
  }

  std::size_t failed = 0;
  std::vector<double> scenario_ms;
  const auto write_plan =
      [&](const std::string& dir,
          const std::vector<plan::ScenarioResult>& results) {
    Scope s("plan.render_plan_json");
    std::ofstream(dir + "/plan.json")
        << plan::render_plan_json(matrix, results);
    for (const plan::ScenarioResult& r : results) {
      failed += r.ok ? 0 : 1;
    }
  };
  const std::vector<double> rep_s = repeat(phase, [&](int rep) {
    const std::string dir = phase.out + "/rep-" + std::to_string(rep);
    std::filesystem::create_directories(dir);
    if (serial) {
      // One scenario at a time, each call timed: the per-scenario
      // latency distribution and the serial work behind exec's speedup.
      std::vector<plan::ScenarioResult> results;
      for (const plan::ScenarioSpec& spec : matrix.scenarios) {
        const auto start = Clock::now();
        Scope s("plan.run_scenario");
        results.push_back(plan::run_scenario(spec));
        scenario_ms.push_back(seconds_since(start) * 1e3);
      }
      write_plan(dir, results);
      return;
    }
    plan::PlanConfig config;
    config.out_dir = dir;
    plan::PlanRunner runner(matrix, config);
    std::vector<plan::ScenarioResult> results;
    {
      Scope s("plan.PlanRunner.run");
      results = runner.run();
    }
    write_plan(dir, results);
  });

  JsonLine out;
  out.list("setup_s", setup_s);
  out.list("rep_s", rep_s);
  out.list("scenario_ms", scenario_ms);
  out.integer("scenarios", static_cast<std::int64_t>(matrix.scenarios.size()));
  out.integer("failed", static_cast<std::int64_t>(failed));
  std::cout << out.text() << std::endl;
  return util::kExitOk;
}

// ---- stream: cgcd replay of generated Google events ------------------------

int run_stream(const Phase& phase, double days, bool traced) {
  const std::string input = phase.out + "/input.cgcs";
  std::vector<double> setup_s;
  double input_mb = 0;
  for (int i = 0; i < phase.setup_reps; ++i) {
    const auto start = Clock::now();
    Scope setup("phase.setup");
    gen::GoogleModelConfig model_config;
    model_config.seed = phase.seed;
    model_config.task_sampling_rate = 0.25;  // cgcd's generate default
    trace::TraceSet workload;
    {
      Scope s("gen.google.generate_workload");
      workload = gen::GoogleWorkloadModel(model_config)
                     .generate_workload(static_cast<util::TimeSec>(
                         days * util::kSecondsPerDay));
    }
    {
      Scope s("store.write_cgcs");
      store::write_cgcs(workload, input);
    }
    setup_s.push_back(seconds_since(start));
    input_mb = file_mb(input);
  }

  stream::DaemonConfig config;
  config.input = input;
  config.rate = 0.0;
  config.batch_size = 8192;
  config.window.width = util::kSecondsPerHour;
  config.window.slide = 5 * util::kSecondsPerMinute;
  config.queries = {"all"};
  // The latest closed window is the nearly empty tail of the stream;
  // answer for the busy hour ending 12 h before it instead. It is well
  // inside the engine's 1024 retained closed windows.
  config.query_window =
      (static_cast<util::TimeSec>(days * util::kSecondsPerDay) -
       13 * util::kSecondsPerHour) /
      config.window.slide;

  std::vector<double> batch_us;
  double load_s = 0;
  double ingest_s = 0;
  double query_s = 0;
  std::uint64_t events = 0;
  const std::vector<double> rep_s = repeat(phase, [&](int rep) {
    const std::string path =
        phase.out + "/daemon-" + std::to_string(rep) + ".json";
    std::ofstream out(path);
    if (!traced) {
      std::istringstream no_pipe;
      stream::DaemonStats stats;
      stream::run_daemon(config, no_pipe, out, &stats);
      events = stats.events;
      return;
    }
    // The daemon's steps, one span per layer call: load, synthesize,
    // each ingest batch, flush, and the query answer.
    auto start = Clock::now();
    trace::LoadOptions options;
    options.strictness = trace::Strictness::kTolerant;
    options.on_damage = trace::OnDamage::kQuarantine;
    trace::TraceSet loaded;
    {
      Scope s("trace.load_trace");
      loaded = trace::load_trace(config.input, options);
    }
    std::vector<trace::TaskEvent> stream_events;
    {
      Scope s("stream.synthesize_events");
      stream_events = stream::synthesize_events(loaded);
    }
    load_s = seconds_since(start);
    start = Clock::now();
    stream::SlidingWindow engine(config.window);
    const std::span<const trace::TaskEvent> all(stream_events);
    for (std::size_t i = 0; i < all.size(); i += config.batch_size) {
      const auto batch_start = Clock::now();
      Scope s("stream.SlidingWindow.ingest");
      engine.ingest(
          all.subspan(i, std::min(config.batch_size, all.size() - i)));
      batch_us.push_back(seconds_since(batch_start) * 1e6);
    }
    {
      Scope s("stream.SlidingWindow.flush");
      engine.flush();
    }
    ingest_s = seconds_since(start);
    start = Clock::now();
    {
      Scope s("stream.query");
      out.precision(12);
      out << "{\"summary\": {\"events\": " << engine.events_ingested()
          << ", \"windows_closed\": " << engine.windows_closed()
          << ", \"health\": {\"lossy\": "
          << (engine.health().lossy() ? "true" : "false")
          << "}},\n\"queries\": {\n\"all\": ";
      const stream::WindowStats* window = engine.find(config.query_window);
      if (window == nullptr) {
        out << "null";
      } else {
        window->write_json(out, "all");
      }
      out << "}}\n";
    }
    query_s = seconds_since(start);
    events = engine.events_ingested();
  });

  JsonLine out;
  out.list("setup_s", setup_s);
  out.list("rep_s", rep_s);
  out.list("batch_us", batch_us);
  out.integer("events", static_cast<std::int64_t>(events));
  out.num("input_mb", input_mb);
  out.num("load_s", load_s);
  out.num("ingest_s", ingest_s);
  out.num("query_s", query_s);
  std::cout << out.text() << std::endl;
  return util::kExitOk;
}

// ---- report: the sweep's trace cache ---------------------------------------

/// Builds the 12 trace-cache entries cgc_report reads, through the same
/// accessors the sweep uses (CGC_BENCH_CACHE names the cache).
std::uint64_t build_report_cache() {
  std::uint64_t records = 0;
  const auto count = [&records](const trace::TraceSet& t) {
    const trace::TraceSummary s = t.summary();
    records += s.num_jobs + s.num_tasks + s.num_events + s.num_samples;
  };
  {
    Scope s("sweep.cache.google_workload");
    count(bench::google_workload());
  }
  for (const gen::GridSystemPreset& preset : gen::presets::all()) {
    Scope s("sweep.cache.grid_workload");
    count(bench::grid_workload(preset.name));
  }
  {
    Scope s("sweep.cache.google_hostload");
    count(bench::google_hostload());
  }
  for (const char* name : {"AuverGrid", "SHARCNET"}) {
    Scope s("sweep.cache.grid_hostload");
    count(bench::grid_hostload(name));
  }
  return records;
}

/// The cache build's work as direct layer calls at the sweep's scale:
/// generate, simulate, mirror to CSV, write and read back CGCS. Traced
/// runs only; it gives the set-up its per-layer split.
void probe_report_layers(const std::string& dir) {
  Scope phase("phase.probe");
  std::filesystem::create_directories(dir);
  const auto round_trip = [&dir](const trace::TraceSet& t,
                                 const std::string& name) {
    const std::string path = dir + "/" + name + ".cgcs";
    {
      Scope s("store.write_cgcs");
      store::write_cgcs(t, path);
    }
    Scope s("store.read_cgcs");
    store::read_cgcs(path);
  };
  gen::GoogleModelConfig google;
  google.task_sampling_rate = 0.25;
  {
    trace::TraceSet t;
    {
      Scope s("gen.google.generate_workload");
      t = gen::GoogleWorkloadModel(google).generate_workload(
          bench::workload_horizon());
    }
    round_trip(t, "workload_google");
  }
  for (const gen::GridSystemPreset& preset : gen::presets::all()) {
    trace::TraceSet t;
    {
      Scope s("gen.grid.generate_workload");
      t = gen::GridWorkloadModel(preset).generate_workload(
          bench::workload_horizon());
    }
    round_trip(t, "workload_" + preset.name);
  }
  const auto hostload = [&](const std::string& name,
                            const std::function<trace::TraceSet()>& simulate) {
    const trace::TraceSet t = simulate();
    {
      Scope s("trace.write_google_trace");
      trace::write_google_trace(t, dir + "/" + name + "_csv");
    }
    round_trip(t, "hostload_" + name);
  };
  hostload("google", [] {
    Scope s("sim.simulate_google_hostload");
    return Characterization::simulate_google_hostload(
        gen::GoogleModelConfig{}, sim::SimConfig{}, bench::google_machines(),
        bench::hostload_horizon());
  });
  for (const char* name : {"AuverGrid", "SHARCNET"}) {
    hostload(name, [name] {
      Scope s("sim.simulate_grid_hostload");
      return Characterization::simulate_grid_hostload(
          bench::preset_by_name(name), bench::grid_machines(),
          bench::hostload_horizon());
    });
  }
}

int run_report_setup(const Phase& phase, bool traced) {
  const auto start = Clock::now();
  std::uint64_t records = 0;
  {
    Scope setup("phase.setup");
    records = build_report_cache();
  }
  const double setup_s = seconds_since(start);
  if (traced) {
    probe_report_layers(phase.out + "/probe");
  }
  JsonLine out;
  out.list("setup_s", {setup_s});
  out.integer("records", static_cast<std::int64_t>(records));
  std::cout << out.text() << std::endl;
  return util::kExitOk;
}

int print_host() {
  JsonLine out;
  out.integer("cores",
              static_cast<std::int64_t>(std::thread::hardware_concurrency()));
#if defined(__clang__)
  out.str("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  out.str("compiler", std::string("gcc ") + __VERSION__);
#else
  out.str("compiler", "unknown");
#endif
  out.str("build_type", PERFBENCH_BUILD_TYPE);
  std::cout << out.text() << std::endl;
  return util::kExitOk;
}

int run(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  util::Args args("perfbench_worker " + command,
                  "one phase of one benchmark workload");
  args.add_int("seed", 1, "workload seed");
  args.add_string("out", "", "directory for artifacts and spans");
  args.add_double("seconds", 0.0, "minimum timed seconds");
  args.add_int("min-reps", 1, "minimum timed repetitions");
  args.add_int("setup-reps", 1, "set-up repetitions");
  args.add_bool("trace", "record layer spans into <out>/spans.json");
  args.add_int("hosts", 1000, "cell: machines");
  args.add_double("hours", 24.0, "cell/plan: simulated hours");
  args.add_double("days", 10.0, "stream: generated days");
  args.add_string("matrix", "default", "plan: default (576) | small (8)");
  args.add_bool("serial", "plan: run scenarios one at a time, timing each");
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_worker cell|plan|stream|report-setup|host "
                 "[flags]\n");
    return util::kExitUsage;
  }
  switch (args.parse(argc - 1, argv + 1)) {
    case util::ParseStatus::kHelp:
      return util::kExitOk;
    case util::ParseStatus::kError:
      return util::kExitUsage;
    case util::ParseStatus::kOk:
      break;
  }
  Phase phase;
  phase.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  phase.out = args.get_string("out");
  phase.seconds = args.get_double("seconds");
  phase.min_reps =
      static_cast<int>(std::max<std::int64_t>(1, args.get_int("min-reps")));
  phase.setup_reps =
      static_cast<int>(std::max<std::int64_t>(1, args.get_int("setup-reps")));
  const bool traced = args.get_bool("trace");
  if (traced) {
    g_tracer.arm();
  }
  if (command != "host" && phase.out.empty()) {
    std::fprintf(stderr, "--out is required\n");
    return util::kExitUsage;
  }
  if (!phase.out.empty()) {
    std::filesystem::create_directories(phase.out);
  }

  int code = util::kExitUsage;
  if (command == "cell") {
    code = run_cell(phase, static_cast<std::size_t>(args.get_int("hosts")),
                    args.get_double("hours"), traced);
  } else if (command == "plan") {
    code = run_plan(phase, args.get_double("hours"),
                    args.get_string("matrix"), args.get_bool("serial"));
  } else if (command == "stream") {
    code = run_stream(phase, args.get_double("days"), traced);
  } else if (command == "report-setup") {
    code = run_report_setup(phase, traced);
  } else if (command == "host") {
    return print_host();
  } else {
    std::fprintf(stderr, "unknown command: %s\n", command.c_str());
    return util::kExitUsage;
  }
  if (traced) {
    g_tracer.write(phase.out + "/spans.json");
  }
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_worker: %s\n", e.what());
    return cgc::error::exit_code(e);
  }
}
