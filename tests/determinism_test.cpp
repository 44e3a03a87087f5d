// End-to-end determinism: the paper pipelines must produce identical
// results at CGC_THREADS=1 and CGC_THREADS=N. Exercises the exec
// contract through the real kernels — ECDF construction, the
// autocorrelation function, mass-count disparity, and CGCS row-group
// decode — by swapping pools in-process via exec::ScopedPool.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "exec/parallel.hpp"
#include "gen/google_model.hpp"
#include "stats/ecdf.hpp"
#include "stats/mass_count.hpp"
#include "stats/periodicity.hpp"
#include "stats/timeseries.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "trace/trace_set.hpp"
#include "util/thread_pool.hpp"

namespace cgc {
namespace {

using trace::HostLoadSeries;
using trace::kNumBands;
using trace::Machine;
using trace::Task;
using trace::TaskEventType;
using trace::TraceSet;

/// Runs `fn` once on a 1-worker pool and once on an 8-worker pool and
/// returns both results for comparison.
template <typename Fn>
auto serial_vs_parallel(Fn&& fn) {
  util::ThreadPool one(1);
  util::ThreadPool many(8);
  auto serial = [&] {
    exec::ScopedPool scoped(&one);
    return fn();
  }();
  auto parallel = [&] {
    exec::ScopedPool scoped(&many);
    return fn();
  }();
  return std::make_pair(std::move(serial), std::move(parallel));
}

std::vector<double> make_sample(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::lognormal_distribution<double> dist(2.0, 1.5);
  std::vector<double> values(n);
  for (double& v : values) {
    v = dist(rng);
  }
  return values;
}

TEST(Determinism, EcdfIsThreadCountInvariant) {
  const std::vector<double> sample = make_sample(120000, 42);
  const auto [serial, parallel] = serial_vs_parallel([&sample] {
    const stats::Ecdf ecdf{std::vector<double>(sample)};
    return std::make_pair(
        std::vector<double>(ecdf.sorted().begin(), ecdf.sorted().end()),
        ecdf.mean());
  });
  EXPECT_EQ(serial.first, parallel.first);    // bit-identical sort
  EXPECT_EQ(serial.second, parallel.second);  // bit-identical mean
}

TEST(Determinism, AutocorrelationIsThreadCountInvariant) {
  const std::vector<double> series = make_sample(60000, 7);
  const auto [serial, parallel] = serial_vs_parallel([&series] {
    std::vector<double> out;
    for (const std::size_t lag : {1ul, 5ul, 288ul}) {
      out.push_back(stats::autocorrelation(series, lag));
    }
    const auto acf = stats::autocorrelation_function(series, 64);
    out.insert(out.end(), acf.begin(), acf.end());
    return out;
  });
  EXPECT_EQ(serial, parallel);
}

TEST(Determinism, MassCountIsThreadCountInvariant) {
  const std::vector<double> sample = make_sample(90000, 99);
  const auto [serial, parallel] = serial_vs_parallel([&sample] {
    const auto result = stats::mass_count_disparity(sample);
    auto plot = stats::mass_count_plot(sample);
    plot.push_back({result.joint_ratio_mass, result.joint_ratio_count,
                    result.mm_distance});
    return plot;
  });
  EXPECT_EQ(serial, parallel);
}

/// A populated model trace (jobs, tasks, events, machines, host load),
/// mirroring the store round-trip test's construction.
TraceSet make_model_trace() {
  gen::GoogleModelConfig config;
  config.seed = 7;
  const gen::GoogleWorkloadModel model(config);
  TraceSet trace = model.generate_workload(/*horizon=*/2 * 3600);
  for (const Machine& m : model.make_machines(16)) {
    trace.add_machine(m);
  }
  for (const Task& t : trace.tasks()) {
    trace.add_event({.time = t.submit_time, .job_id = t.job_id,
                     .machine_id = -1, .task_index = t.task_index,
                     .type = TaskEventType::kSubmit, .priority = t.priority});
    if (t.end_time >= 0) {
      trace.add_event({.time = t.end_time, .job_id = t.job_id,
                       .machine_id = t.machine_id, .task_index = t.task_index,
                       .type = t.end_event, .priority = t.priority});
    }
  }
  std::uint64_t lcg = 0x243F6A8885A308D3ull;
  const auto next_float = [&lcg]() {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<float>(lcg >> 40) / static_cast<float>(1u << 24);
  };
  for (std::int64_t machine_id = 0; machine_id < 16; ++machine_id) {
    HostLoadSeries h(machine_id, /*start=*/300, /*period=*/300);
    for (int i = 0; i < 40; ++i) {
      const float cpu[kNumBands] = {next_float(), next_float(), next_float()};
      const float mem[kNumBands] = {next_float(), next_float(), next_float()};
      h.append(cpu, mem, next_float(), next_float(),
               static_cast<std::int32_t>(lcg % 50),
               static_cast<std::int32_t>(lcg % 7));
    }
    trace.add_host_load(std::move(h));
  }
  trace.finalize();
  return trace;
}

TEST(Determinism, CgcsDecodeIsThreadCountInvariant) {
  const TraceSet original = make_model_trace();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("cgc_determinism_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "trace.cgcs").string();
  store::write_cgcs(original, path);

  const auto [serial, parallel] =
      serial_vs_parallel([&path] { return store::read_cgcs(path); });
  std::filesystem::remove_all(dir);

  // Spot-check identity through derived vectors (bit-exact) plus full
  // event-stream equality; row groups decode into disjoint ranges, so
  // any scheduling dependence would show up here.
  EXPECT_EQ(serial.task_run_durations(), parallel.task_run_durations());
  EXPECT_EQ(serial.job_lengths(), parallel.job_lengths());
  ASSERT_EQ(serial.events().size(), parallel.events().size());
  for (std::size_t i = 0; i < serial.events().size(); ++i) {
    const auto& a = serial.events()[i];
    const auto& b = parallel.events()[i];
    ASSERT_EQ(a.time, b.time);
    ASSERT_EQ(a.job_id, b.job_id);
    ASSERT_EQ(a.task_index, b.task_index);
    ASSERT_EQ(a.machine_id, b.machine_id);
    ASSERT_EQ(a.type, b.type);
    ASSERT_EQ(a.priority, b.priority);
  }
  ASSERT_EQ(serial.host_load().size(), parallel.host_load().size());
  for (std::size_t i = 0; i < serial.host_load().size(); ++i) {
    const HostLoadSeries& x = serial.host_load()[i];
    const HostLoadSeries& y = parallel.host_load()[i];
    ASSERT_EQ(x.machine_id(), y.machine_id());
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t s = 0; s < x.size(); ++s) {
      ASSERT_EQ(x.cpu(trace::PriorityBand::kLow, s),
                y.cpu(trace::PriorityBand::kLow, s));
      ASSERT_EQ(x.mem(trace::PriorityBand::kLow, s),
                y.mem(trace::PriorityBand::kLow, s));
      ASSERT_EQ(x.running(s), y.running(s));
    }
  }
}

}  // namespace
}  // namespace cgc
