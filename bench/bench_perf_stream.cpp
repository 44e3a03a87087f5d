// PERF-STREAM — online ingest throughput of the cgc::stream engine.
//
// Replays the standard month-long Google workload trace's event stream
// through a SlidingWindow at the daemon-default batch size, in two
// window shapes — 1 h tumbling, and 1 h sliding by the trace's 5-minute
// sample period (12 panes per window) — measuring:
//   * ingest throughput (events/sec)
//   * per-window close latency (the stream.window_close_ns histogram)
//   * peak RSS per run (VmHWM, reset via /proc/self/clear_refs)
//
// Ingest is serial (the engine never touches the thread pool), so each
// shape runs once. The acceptance bar for the streaming subsystem is
// >= 1M events/sec in both shapes. Results are written as BENCH_stream.json
// (argv[1], default $CGC_BENCH_OUT/BENCH_stream.json) with the host's
// core count and RAM, so the perf trajectory is tracked in-repo.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "stream/replay.hpp"
#include "stream/window.hpp"

namespace {

using namespace cgc;

constexpr std::size_t kBatchSize = 8192;
constexpr double kTargetEventsPerSec = 1e6;
constexpr util::TimeSec kSlidingSlide = 5 * util::kSecondsPerMinute;

/// Resets the kernel's peak-RSS watermark for this process; returns
/// false (and leaves the watermark cumulative) where unsupported.
bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  if (!clear.is_open()) {
    return false;
  }
  clear << "5";
  return clear.good();
}

/// The value of a "Key: <n> kB" row of a /proc file, in MB; 0 when the
/// file or row is unavailable.
double proc_mb(const char* path, const std::string& row) {
  std::ifstream status(path);
  std::string key;
  while (status >> key) {
    if (key == row) {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(4096, '\n');
  }
  return 0.0;
}

/// VmHWM in MB, or 0 when /proc is unavailable.
double peak_rss_mb() { return proc_mb("/proc/self/status", "VmHWM:"); }

struct RunResult {
  util::TimeSec slide_s = 0;
  double wall_s = 0;
  double events_per_sec = 0;
  std::uint64_t windows_closed = 0;
  double close_ns_mean = 0;
  std::uint64_t close_ns_p99 = 0;
  double peak_rss_mb = 0;
  bool rss_isolated = false;
};

RunResult run_ingest(std::span<const trace::TaskEvent> events,
                     util::TimeSec slide) {
  RunResult result;
  result.rss_isolated = reset_peak_rss();
  obs::reset_metrics();

  stream::WindowConfig config;
  config.width = util::kSecondsPerHour;
  config.slide = slide;
  stream::SlidingWindow engine(config);
  result.slide_s = engine.config().slide;

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < events.size(); i += kBatchSize) {
    const std::size_t n = std::min(kBatchSize, events.size() - i);
    engine.ingest(events.subspan(i, n));
  }
  engine.flush();
  result.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();

  result.events_per_sec =
      static_cast<double>(events.size()) / result.wall_s;
  result.windows_closed = engine.windows_closed();
  const obs::Histogram& close = obs::histogram("stream.window_close_ns");
  result.close_ns_mean = close.mean();
  result.close_ns_p99 = close.approx_percentile(0.99);
  result.peak_rss_mb = peak_rss_mb();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header("PERF-STREAM",
                      "cgc::stream ingest throughput and close latency");

  const trace::TraceSet& workload = bench::google_workload();
  const std::vector<trace::TaskEvent> events =
      stream::synthesize_events(workload);
  const double trace_days = static_cast<double>(workload.duration()) /
                            static_cast<double>(util::kSecondsPerDay);
  std::printf("  trace: %zu tasks, %zu events over %.1f days\n",
              workload.tasks().size(), events.size(), trace_days);

  // Arm the metrics registry so the close-latency histogram records;
  // the per-site cost is one relaxed load + atomic adds, well under
  // the measurement noise floor at these batch sizes.
  obs::configure(true, false);

  // slide 0 is tumbling (slide = width).
  std::vector<RunResult> runs;
  for (const util::TimeSec slide : {util::TimeSec{0}, kSlidingSlide}) {
    RunResult r = run_ingest(events, slide);
    std::printf("  slide %4lld s: %.0f events/s, %llu windows, close mean "
                "%.0f ns (p99 <= %llu ns), peak RSS %.0f MB%s\n",
                static_cast<long long>(r.slide_s), r.events_per_sec,
                static_cast<unsigned long long>(r.windows_closed),
                r.close_ns_mean,
                static_cast<unsigned long long>(r.close_ns_p99),
                r.peak_rss_mb, r.rss_isolated ? "" : " (cumulative)");
    runs.push_back(r);
  }

  bool pass = true;
  for (const RunResult& r : runs) {
    pass = pass && r.events_per_sec >= kTargetEventsPerSec;
    const std::string label =
        r.slide_s == util::kSecondsPerHour
            ? "tumbling ingest Mevents/s (target >= 1)"
            : "sliding ingest Mevents/s (target >= 1)";
    bench::print_comparison(label, kTargetEventsPerSec / 1e6,
                            r.events_per_sec / 1e6, 2);
  }

  const std::string json_path =
      argc > 1 ? argv[1] : bench::out_dir() + "/BENCH_stream.json";
  std::ofstream out(json_path);
  out << "{\n  \"bench\": \"perf_stream\",\n";
  out << "  \"hardware_concurrency\": "
      << std::max(1u, std::thread::hardware_concurrency()) << ",\n";
  out << "  \"ram_gb\": " << proc_mb("/proc/meminfo", "MemTotal:") / 1024.0
      << ",\n";
  out << "  \"trace_days\": " << trace_days << ",\n";
  out << "  \"events\": " << events.size() << ",\n";
  out << "  \"batch_size\": " << kBatchSize << ",\n";
  out << "  \"window_width_s\": " << util::kSecondsPerHour << ",\n";
  out << "  \"target_events_per_sec\": " << kTargetEventsPerSec << ",\n";
  out << "  \"pass\": " << (pass ? "true" : "false") << ",\n";
  out << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    out << "    {\"slide_s\": " << r.slide_s
        << ", \"wall_s\": " << r.wall_s
        << ", \"events_per_sec\": " << r.events_per_sec
        << ", \"windows_closed\": " << r.windows_closed
        << ", \"close_ns_mean\": " << r.close_ns_mean
        << ", \"close_ns_p99\": " << r.close_ns_p99
        << ", \"peak_rss_mb\": " << r.peak_rss_mb
        << ", \"rss_isolated\": " << (r.rss_isolated ? "true" : "false")
        << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  out.close();
  std::printf("\n  results written to %s\n", json_path.c_str());

  return pass ? 0 : 1;
}
