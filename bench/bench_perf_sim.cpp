// PERF-SIM — throughput and determinism of the paper-scale simulator.
//
// Runs ClusterSim on a GoogleWorkloadModel workload over the paper's
// cluster — a month over 12.5k hosts (>= 25M task events) — at
// CGC_THREADS 1/2/4 via exec::ScopedPool. The TraceSet content digest
// must be identical across thread counts (the determinism contract);
// events/s, wall and peak RSS are recorded per thread count.
//
// Results go to BENCH_sim.json (argv[1], default
// $CGC_BENCH_OUT/BENCH_sim.json) and are tabulated in EXPERIMENTS.md's
// "Perf trajectory" section. CGC_BENCH_FAST=1 shrinks the run to
// smoke-test scale (the CI determinism leg). The committed
// BENCH_sim.json also keeps a "calibration" block, the historical
// seed-engine speedup, which this harness no longer measures.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "exec/parallel.hpp"
#include "gen/google_model.hpp"
#include "sim/cluster_sim.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace cgc;

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

/// VmHWM in MB, or 0 when /proc is unavailable.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(4096, '\n');
  }
  return 0.0;
}

double now_wall(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct ScaleResult {
  std::size_t threads = 0;
  double wall_s = 0;
  double events_per_sec = 0;
  std::int64_t events_processed = 0;
  double peak_rss_mb = 0;
  bool rss_isolated = false;
  std::uint64_t digest = 0;
};

ScaleResult run_paper_scale(const std::vector<trace::Machine>& machines,
                            const sim::Workload& workload,
                            const sim::SimConfig& config,
                            std::size_t threads) {
  ScaleResult r;
  r.threads = threads;
  r.rss_isolated = reset_peak_rss();
  util::ThreadPool pool(threads);
  exec::ScopedPool scoped(&pool);
  sim::ClusterSim sim(machines, config);
  const auto start = std::chrono::steady_clock::now();
  const trace::TraceSet out = sim.run(workload);
  r.wall_s = now_wall(start);
  r.events_processed = sim.stats().events_processed;
  r.events_per_sec = static_cast<double>(r.events_processed) / r.wall_s;
  r.peak_rss_mb = peak_rss_mb();
  r.digest = out.content_digest();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header("PERF-SIM",
                      "ClusterSim throughput: paper-scale month at 1/2/4 "
                      "threads");
  const bool fast = bench::fast_mode();
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::printf("  hardware_concurrency: %zu%s\n", hw, fast ? " (fast mode)" : "");

  gen::GoogleWorkloadModel model;
  const std::size_t paper_machines = fast ? 400 : 12500;
  const util::TimeSec paper_horizon =
      fast ? 2 * util::kSecondsPerDay : util::kSecondsPerMonth;
  const std::vector<trace::Machine> paper_park =
      model.make_machines(paper_machines);
  const sim::Workload paper_workload =
      model.generate_sim_workload(paper_horizon, paper_machines);
  sim::SimConfig paper_config;
  paper_config.horizon = paper_horizon;
  // Keep the dynamics and the host-load output (the analyzers' input);
  // skip the per-event and per-task records — at this scale they are
  // memory, not information (the digest still covers every sample).
  paper_config.record_events = false;
  paper_config.record_tasks = false;
  std::printf("  paper scale: %zu machines, %.1f days, %zu task specs\n",
              paper_machines,
              static_cast<double>(paper_horizon) / util::kSecondsPerDay,
              paper_workload.size());

  std::vector<ScaleResult> runs;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    ScaleResult r =
        run_paper_scale(paper_park, paper_workload, paper_config, threads);
    std::printf("  %zu thread(s): %8.2f s, %.2fM events/s, peak RSS %.0f "
                "MB%s, digest %016llx\n",
                r.threads, r.wall_s, r.events_per_sec / 1e6, r.peak_rss_mb,
                r.rss_isolated ? "" : " (cumulative)",
                static_cast<unsigned long long>(r.digest));
    runs.push_back(r);
  }
  bool digests_match = true;
  for (const ScaleResult& r : runs) {
    digests_match = digests_match && r.digest == runs[0].digest;
  }
  std::printf("  digests %s across thread counts\n",
              digests_match ? "IDENTICAL" : "DIFFER");

  const std::string json_path =
      argc > 1 ? argv[1] : bench::out_dir() + "/BENCH_sim.json";
  std::ofstream out(json_path);
  out << "{\n  \"bench\": \"perf_sim\",\n";
  out << "  \"fast_mode\": " << (fast ? "true" : "false") << ",\n";
  out << "  \"hardware_concurrency\": " << hw << ",\n";
  out << "  \"paper_scale\": {\n";
  out << "    \"machines\": " << paper_machines << ",\n";
  out << "    \"horizon_days\": "
      << static_cast<double>(paper_horizon) / util::kSecondsPerDay << ",\n";
  out << "    \"task_specs\": " << paper_workload.size() << ",\n";
  out << "    \"digests_match\": " << (digests_match ? "true" : "false")
      << ",\n";
  out << "    \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ScaleResult& r = runs[i];
    char digest_hex[32];
    std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                  static_cast<unsigned long long>(r.digest));
    out << "      {\"threads\": " << r.threads
        << ", \"wall_s\": " << r.wall_s
        << ", \"events_processed\": " << r.events_processed
        << ", \"events_per_sec\": " << r.events_per_sec
        << ", \"peak_rss_mb\": " << r.peak_rss_mb
        << ", \"rss_isolated\": " << (r.rss_isolated ? "true" : "false")
        << ", \"digest\": \"" << digest_hex << "\"}"
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "    ]\n  },\n";
  out << "  \"pass\": " << (digests_match ? "true" : "false") << "\n}\n";
  out.close();
  std::printf("\n  results written to %s\n", json_path.c_str());

  return digests_match ? 0 : 1;
}
