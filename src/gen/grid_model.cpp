#include "gen/grid_model.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "stats/distributions.hpp"
#include "util/check.hpp"

namespace cgc::gen {

namespace {

using trace::TimeSec;
using util::Rng;

double draw_length(const GridSystemPreset& p, Rng& rng) {
  const bool long_tail = rng.bernoulli(p.long_fraction);
  const double median = long_tail ? p.long_median_s : p.body_median_s;
  const double sigma = long_tail ? p.long_sigma : p.body_sigma;
  const double v = median * std::exp(sigma * rng.normal());
  return std::clamp(v, 1.0, p.max_length_s);
}

int draw_procs(const GridSystemPreset& p, Rng& rng) {
  double total = 0.0;
  for (const ProcsChoice& c : p.procs) {
    total += c.weight;
  }
  CGC_CHECK_MSG(total > 0.0, "preset has no processor choices");
  double u = rng.uniform() * total;
  for (const ProcsChoice& c : p.procs) {
    u -= c.weight;
    if (u <= 0.0) {
      return c.procs;
    }
  }
  return p.procs.back().procs;
}

ArrivalModel arrival_for(const GridSystemPreset& p) {
  ArrivalModel m;
  m.mean_per_hour = p.jobs_per_hour;
  m.diurnal_amplitude = p.diurnal_amplitude;
  m.weekly_amplitude = p.weekly_amplitude;
  m.burst_sigma =
      burst_sigma_for_fairness(p.target_fairness, p.diurnal_amplitude);
  m.burst_ar1 = p.burst_ar1;
  return m;
}

}  // namespace

GridWorkloadModel::GridWorkloadModel(GridSystemPreset preset)
    : preset_(std::move(preset)) {
  CGC_CHECK(!preset_.procs.empty());
  CGC_CHECK(preset_.jobs_per_hour > 0.0);
  name_.reserve(preset_.name.size());
  for (char c : preset_.name) {
    name_.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
}

trace::TraceSet GridWorkloadModel::generate_workload(
    util::TimeSec horizon) const {
  Rng rng(preset_.seed);
  trace::TraceSet out(preset_.name);
  out.set_duration(horizon);
  out.set_memory_in_mb(true);

  Rng arrival_rng = rng.split();
  const std::vector<TimeSec> arrivals =
      arrival_times(arrival_for(preset_), horizon, arrival_rng);
  out.reserve_jobs(arrivals.size());

  std::int64_t job_id = 1;
  for (const TimeSec submit : arrivals) {
    const double length = draw_length(preset_, rng);
    const int procs = draw_procs(preset_, rng);
    // Grid queues are non-trivial: batch systems hold jobs for minutes
    // to hours (contrast with Google's empty pending queue, Fig 8b).
    const auto wait = static_cast<TimeSec>(
        rng.exponential(1.0 / (20.0 * util::kSecondsPerMinute)));
    const double efficiency =
        std::clamp(rng.normal(preset_.cpu_efficiency_mean, 0.06), 0.5, 1.0);
    const double mem_mb =
        preset_.mem_per_proc_mb_median *
        std::exp(preset_.mem_per_proc_mb_sigma * rng.normal()) *
        static_cast<double>(procs);

    trace::Job job;
    job.job_id = job_id;
    job.user_id = rng.uniform_int(1, 200);
    job.priority = 1;
    job.submit_time = submit;
    job.end_time = submit + wait + static_cast<TimeSec>(length);
    job.num_tasks = 1;
    job.cpu_parallelism = static_cast<float>(procs * efficiency);
    job.mem_usage = static_cast<float>(mem_mb);
    if (job.end_time > horizon) {
      job.end_time = -1;  // right-censored at the trace boundary
    }
    out.add_job(job);

    trace::Task task;
    task.job_id = job_id;
    task.task_index = 0;
    task.priority = 1;
    task.submit_time = submit;
    task.schedule_time = submit + wait;
    task.end_time = job.end_time;  // -1 when right-censored
    task.end_event = trace::TaskEventType::kFinish;
    task.cpu_request = static_cast<float>(procs);
    task.cpu_usage = job.cpu_parallelism;
    task.mem_usage = job.mem_usage;
    out.add_task(task);
    ++job_id;
  }
  out.finalize();
  return out;
}

std::vector<trace::Machine> GridWorkloadModel::make_machines(
    std::size_t count) const {
  std::vector<trace::Machine> machines;
  machines.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    trace::Machine m;
    m.machine_id = static_cast<std::int64_t>(i + 1);
    m.cpu_capacity = 1.0f;
    m.mem_capacity = 1.0f;
    m.page_cache_capacity = 1.0f;
    machines.push_back(m);
  }
  return machines;
}

sim::Workload GridWorkloadModel::generate_sim_workload(
    util::TimeSec horizon, std::size_t num_machines) const {
  CGC_CHECK(num_machines > 0);
  Rng rng(preset_.seed ^ 0x600d600dULL);

  // Mean job length and processor demand imply the arrival rate hitting
  // the preset's CPU-utilization target:
  //   utilization = job_rate * mean_procs * mean_len / (machines * slots).
  const double mean_len =
      (1.0 - preset_.long_fraction) * preset_.body_median_s *
          std::exp(0.5 * preset_.body_sigma * preset_.body_sigma) +
      preset_.long_fraction * preset_.long_median_s *
          std::exp(0.5 * preset_.long_sigma * preset_.long_sigma);
  double mean_procs = 0.0;
  double total_weight = 0.0;
  for (const ProcsChoice& c : preset_.procs) {
    mean_procs += c.weight * c.procs;
    total_weight += c.weight;
  }
  mean_procs /= total_weight;
  const double slots = std::max(1, preset_.slots_per_node);
  const double jobs_per_hour =
      preset_.node_utilization * static_cast<double>(num_machines) * slots *
      util::kSecondsPerHour / (mean_len * mean_procs);
  ArrivalModel arrival = arrival_for(preset_);
  arrival.mean_per_hour = jobs_per_hour;

  Rng arrival_rng = rng.split();
  const std::vector<TimeSec> arrivals =
      arrival_times(arrival, horizon, arrival_rng);

  // A parallel job cannot exceed the cluster's total slot count.
  const int max_procs_fit = std::max(
      1, static_cast<int>(static_cast<double>(num_machines) * slots / 2.0));
  // Reserve once: a job holds min(procs, max_procs_fit) tasks, so the
  // total has mean n * E[p] and variance n * Var[p] over the preset's
  // processor choices; six standard deviations of headroom make a
  // regrowth (and its 2x copy transient) practically impossible.
  double procs_mean = 0.0;
  double procs_sq = 0.0;
  for (const ProcsChoice& c : preset_.procs) {
    const double p = std::min(c.procs, max_procs_fit);
    procs_mean += c.weight * p / total_weight;
    procs_sq += c.weight * p * p / total_weight;
  }
  const double jobs = static_cast<double>(arrivals.size());
  const double procs_var = std::max(0.0, procs_sq - procs_mean * procs_mean);
  sim::Workload workload;
  workload.reserve(static_cast<std::size_t>(jobs * procs_mean +
                                            6.0 * std::sqrt(jobs * procs_var)) +
                   64);
  std::int64_t job_id = 1;
  // Each grid process claims one core slot of a node, and burns it almost
  // fully — grid jobs are compute-bound (Fig 13 discussion).
  const float slot_cpu_request = static_cast<float>(0.98 / slots);
  for (const TimeSec submit : arrivals) {
    const auto length = static_cast<TimeSec>(draw_length(preset_, rng));
    const int procs = std::min(draw_procs(preset_, rng), max_procs_fit);
    const double efficiency =
        std::clamp(rng.normal(preset_.cpu_efficiency_mean, 0.06), 0.5, 1.0);
    for (int t = 0; t < procs; ++t) {
      const double mem_request = std::clamp(
          preset_.sim_mem_request_median *
              std::exp(preset_.sim_mem_request_sigma * rng.normal()),
          0.005, 0.9 / slots);
      sim::TaskSpec spec;
      spec.job_id = job_id;
      spec.task_index = t;
      spec.priority = 1;
      spec.submit_time = submit;
      spec.duration = std::max<TimeSec>(60, length);
      spec.cpu_request = slot_cpu_request;
      spec.mem_request = static_cast<float>(mem_request);
      spec.cpu_usage_ratio = static_cast<float>(efficiency);
      spec.mem_usage_ratio = 0.9f;
      spec.page_cache = 0.01f;
      spec.fate = trace::TaskEventType::kFinish;
      spec.resubmit_on_abnormal = false;
      spec.max_resubmits = 0;
      workload.push_back(spec);
    }
    ++job_id;
  }
  return workload;
}

void GridWorkloadModel::apply_grid_sim_defaults(sim::SimConfig* config) {
  CGC_CHECK(config != nullptr);
  config->preemption = false;  // batch queues do not preempt
  // Dedicated scientific processes: steady load, negligible interference.
  config->cpu_usage_jitter = 0.004;
  config->mem_usage_jitter = 0.002;
  config->machine_cpu_jitter = 0.002;
  config->machine_mem_jitter = 0.001;
  config->cpu_spike_probability = 0.0;
  config->mem_admission_headroom = 0.95;
  // Batch schedulers pack nodes in order, leaving hot nodes continuously
  // busy for days (the plateaus of Fig 13 d-i).
  config->placement = sim::PlacementPolicy::kFirstFit;
}

namespace presets {

namespace {
GridSystemPreset base() {
  GridSystemPreset p;
  p.procs = {{1, 1.0}};
  return p;
}
}  // namespace

GridSystemPreset auvergrid() {
  GridSystemPreset p = base();
  p.name = "AuverGrid";
  p.jobs_per_hour = 45;
  p.target_fairness = 0.35;
  p.diurnal_amplitude = 0.55;
  p.weekly_amplitude = 0.15;
  // Section III.2: mean task 7.2 h, max 18 d, ~70% under 12 h,
  // mass-count joint ratio ~24/76.
  p.body_median_s = 3.2 * 3600;
  p.body_sigma = 0.95;
  p.long_fraction = 0.28;
  p.long_median_s = 11.0 * 3600;
  p.long_sigma = 0.75;
  p.max_length_s = 18.0 * 86400;
  // EGEE-style serial jobs.
  p.procs = {{1, 0.97}, {2, 0.03}};
  p.mem_per_proc_mb_median = 350;
  // EGEE production VO: effectively saturated (persistent queue) — the
  // regime behind the flat, low-noise host load of Fig 13 d-f.
  p.node_utilization = 1.15;
  p.seed = 101;
  return p;
}

GridSystemPreset nordugrid() {
  GridSystemPreset p = base();
  p.name = "NorduGrid";
  p.jobs_per_hour = 27;
  p.target_fairness = 0.11;
  p.diurnal_amplitude = 0.6;
  p.body_median_s = 5.0 * 3600;
  p.body_sigma = 1.4;
  p.long_fraction = 0.25;
  p.long_median_s = 30.0 * 3600;
  p.long_sigma = 0.9;
  p.max_length_s = 30.0 * 86400;
  p.procs = {{1, 0.95}, {2, 0.03}, {4, 0.02}};
  p.mem_per_proc_mb_median = 500;
  p.seed = 102;
  return p;
}

GridSystemPreset sharcnet() {
  GridSystemPreset p = base();
  p.name = "SHARCNET";
  p.jobs_per_hour = 126;
  p.target_fairness = 0.04;  // extreme bursts: max 22334 in one hour
  p.diurnal_amplitude = 0.5;
  p.burst_ar1 = 0.35;
  p.body_median_s = 1.6 * 3600;
  p.body_sigma = 1.6;
  p.long_fraction = 0.18;
  p.long_median_s = 20.0 * 3600;
  p.long_sigma = 1.0;
  p.max_length_s = 28.0 * 86400;
  p.procs = {{1, 0.72}, {2, 0.08}, {4, 0.08}, {8, 0.06}, {16, 0.03},
             {32, 0.02}, {64, 0.01}};
  p.mem_per_proc_mb_median = 550;
  p.node_utilization = 1.15;
  p.seed = 103;
  return p;
}

GridSystemPreset das2() {
  GridSystemPreset p = base();
  p.name = "DAS-2";
  p.jobs_per_hour = 30;
  p.target_fairness = 0.30;
  p.diurnal_amplitude = 0.7;  // research cluster: strongly office-hours
  // DAS-2 jobs are famously short (interactive research runs).
  p.body_median_s = 8.0 * 60;
  p.body_sigma = 1.5;
  p.long_fraction = 0.08;
  p.long_median_s = 2.0 * 3600;
  p.long_sigma = 1.0;
  p.max_length_s = 3.0 * 86400;
  p.procs = {{1, 0.25}, {2, 0.25}, {4, 0.2}, {8, 0.15}, {16, 0.1},
             {32, 0.04}, {64, 0.01}};
  p.mem_per_proc_mb_median = 150;
  p.seed = 104;
  return p;
}

GridSystemPreset anl() {
  GridSystemPreset p = base();
  p.name = "ANL";
  p.jobs_per_hour = 10;
  p.target_fairness = 0.51;
  p.diurnal_amplitude = 0.45;
  p.body_median_s = 1.5 * 3600;
  p.body_sigma = 1.1;
  p.long_fraction = 0.15;
  p.long_median_s = 8.0 * 3600;
  p.long_sigma = 0.6;
  p.max_length_s = 2.0 * 86400;  // BlueGene queue limits
  p.procs = {{256, 0.35}, {512, 0.3}, {1024, 0.2}, {2048, 0.1},
             {4096, 0.05}};
  p.mem_per_proc_mb_median = 250;
  p.seed = 105;
  return p;
}

GridSystemPreset ricc() {
  GridSystemPreset p = base();
  p.name = "RICC";
  p.jobs_per_hour = 121;
  p.target_fairness = 0.14;
  p.diurnal_amplitude = 0.5;
  p.body_median_s = 0.8 * 3600;
  p.body_sigma = 1.7;
  p.long_fraction = 0.12;
  p.long_median_s = 16.0 * 3600;
  p.long_sigma = 0.9;
  p.max_length_s = 14.0 * 86400;
  p.procs = {{1, 0.5}, {4, 0.2}, {8, 0.15}, {32, 0.1}, {128, 0.04},
             {1024, 0.01}};
  p.mem_per_proc_mb_median = 450;
  p.seed = 106;
  return p;
}

GridSystemPreset metacentrum() {
  GridSystemPreset p = base();
  p.name = "METACENTRUM";
  p.jobs_per_hour = 24;
  p.target_fairness = 0.04;
  p.diurnal_amplitude = 0.55;
  p.body_median_s = 2.2 * 3600;
  p.body_sigma = 1.8;
  p.long_fraction = 0.15;
  p.long_median_s = 30.0 * 3600;
  p.long_sigma = 1.0;
  p.max_length_s = 30.0 * 86400;
  p.procs = {{1, 0.7}, {2, 0.15}, {4, 0.1}, {8, 0.04}, {16, 0.01}};
  p.mem_per_proc_mb_median = 500;
  p.seed = 107;
  return p;
}

GridSystemPreset llnl_atlas() {
  GridSystemPreset p = base();
  p.name = "LLNL-Atlas";
  p.jobs_per_hour = 8.4;
  p.target_fairness = 0.23;
  p.diurnal_amplitude = 0.5;
  p.body_median_s = 1.8 * 3600;
  p.body_sigma = 1.2;
  p.long_fraction = 0.2;
  p.long_median_s = 10.0 * 3600;
  p.long_sigma = 0.7;
  p.max_length_s = 5.0 * 86400;
  p.procs = {{8, 0.3}, {16, 0.2}, {32, 0.2}, {64, 0.15}, {128, 0.1},
             {256, 0.05}};
  p.mem_per_proc_mb_median = 700;
  p.seed = 108;
  return p;
}

std::vector<GridSystemPreset> all() {
  return {auvergrid(),  nordugrid(),   sharcnet(), anl(),
          ricc(),       metacentrum(), llnl_atlas(), das2()};
}

}  // namespace presets

}  // namespace cgc::gen
