#include "gen/google_model.hpp"

#include <algorithm>
#include <cmath>

#include "gen/calibration.hpp"
#include "stats/distributions.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace cgc::gen {

namespace {

using stats::BoundedPareto;
using stats::LogNormal;
using stats::Uniform;
using trace::TaskEventType;
using trace::TimeSec;
using util::Rng;

/// Per-job draw shared by the workload and sim products.
struct JobDraw {
  std::uint8_t priority = 1;
  bool is_service = false;
  double base_length = 0.0;  ///< seconds; tasks vary around it
  std::int32_t num_tasks = 1;
};

class Sampler {
 public:
  Sampler(const GoogleModelConfig& cfg, Rng rng)
      : cfg_(cfg),
        rng_(rng),
        short_length_(cfg.short_length_median_s, cfg.short_length_sigma),
        service_length_(cfg.service_length_lo_s, cfg.service_length_hi_s,
                        cfg.service_length_alpha),
        long_service_length_(cfg.long_service_lo_s, cfg.long_service_hi_s) {
    double total = 0.0;
    for (const double w : paper::kJobPriorityWeights) {
      total += w;
      priority_cdf_.push_back(total);
    }
    for (double& c : priority_cdf_) {
      c /= total;
    }
  }

  Rng& rng() { return rng_; }

  /// Mean task length implied by the config (used for rate scaling).
  double mean_task_length() const {
    const double short_frac =
        1.0 - cfg_.service_fraction - cfg_.long_service_fraction;
    return short_frac * short_length_.mean() +
           cfg_.service_fraction * service_length_.mean() +
           cfg_.long_service_fraction * long_service_length_.mean();
  }

  std::uint8_t draw_priority(bool is_service) {
    const double u = rng_.uniform();
    std::uint8_t p = 1;
    for (std::size_t i = 0; i < priority_cdf_.size(); ++i) {
      if (u <= priority_cdf_[i]) {
        p = static_cast<std::uint8_t>(i + 1);
        break;
      }
    }
    // Long-running services skew to the production/high band: they are
    // few in job count (Fig 2) but dominate high-priority host load.
    if (is_service && rng_.bernoulli(0.9)) {
      p = static_cast<std::uint8_t>(rng_.uniform_int(9, 12));
    }
    return p;
  }

  JobDraw draw_job() {
    JobDraw job;
    const double u = rng_.uniform();
    if (u < cfg_.long_service_fraction) {
      job.is_service = true;
      job.base_length = long_service_length_.sample(rng_);
    } else if (u < cfg_.long_service_fraction + cfg_.service_fraction) {
      job.is_service = true;
      job.base_length = service_length_.sample(rng_);
    } else {
      job.base_length = short_length_.sample(rng_);
    }
    job.base_length = std::max(1.0, job.base_length);
    job.priority = draw_priority(job.is_service);
    if (!rng_.bernoulli(cfg_.single_task_fraction)) {
      // Log-uniform tasks-per-job in [2, max]: most multi-task jobs are
      // small, a few map-reduce-style jobs are huge (mean ~ 10^2).
      const double log_n = rng_.uniform(
          std::log(2.0), std::log(static_cast<double>(cfg_.max_tasks_per_job)));
      job.num_tasks =
          std::max<std::int32_t>(2, static_cast<std::int32_t>(std::exp(log_n)));
    }
    return job;
  }

  double task_length(const JobDraw& job) {
    return std::max(1.0, job.base_length * rng_.uniform(0.85, 1.15));
  }

  TaskEventType draw_fate() {
    const double u = rng_.uniform();
    if (u < cfg_.fail_fraction) {
      return TaskEventType::kFail;
    }
    if (u < cfg_.fail_fraction + cfg_.kill_fraction) {
      return TaskEventType::kKill;
    }
    if (u < cfg_.fail_fraction + cfg_.kill_fraction + cfg_.lost_fraction) {
      return TaskEventType::kLost;
    }
    return TaskEventType::kFinish;
  }

  float cpu_request(bool is_service) {
    const double median = is_service ? cfg_.service_cpu_request_median
                                     : cfg_.short_cpu_request_median;
    const double v =
        median * std::exp(cfg_.cpu_request_sigma * rng_.normal());
    return static_cast<float>(std::clamp(v, 0.001, 0.20));
  }

  float mem_request(bool is_service) {
    const double median = is_service ? cfg_.service_mem_request_median
                                     : cfg_.short_mem_request_median;
    const double v =
        median * std::exp(cfg_.mem_request_sigma * rng_.normal());
    return static_cast<float>(std::clamp(v, 0.001, 0.20));
  }

  float cpu_usage_ratio(bool busy_period) {
    double ratio;
    if (rng_.bernoulli(cfg_.cpu_burst_fraction)) {
      ratio = cfg_.cpu_burst_ratio;
    } else {
      ratio = std::clamp(rng_.normal(cfg_.cpu_usage_ratio_mean, 0.13), 0.05,
                         0.90);
    }
    if (busy_period) {
      ratio = std::min(1.8, ratio * cfg_.busy_cpu_ratio_boost);
    }
    return static_cast<float>(ratio);
  }

  float mem_usage_ratio() {
    return static_cast<float>(
        std::clamp(rng_.normal(cfg_.mem_usage_ratio_mean, 0.05), 0.55, 1.0));
  }

  float page_cache() {
    const double median = rng_.bernoulli(cfg_.page_cache_large_fraction)
                              ? cfg_.page_cache_large_median
                              : cfg_.page_cache_small_median;
    return static_cast<float>(
        std::clamp(median * std::exp(0.4 * rng_.normal()), 0.0, 0.08));
  }

  /// Per-job CPU parallelism for Fig 6a: sub-core for the vast majority.
  float job_cpu_parallelism() {
    const double v = 0.55 * std::exp(0.45 * rng_.normal());
    return static_cast<float>(std::clamp(v, 0.05, 5.0));
  }

  /// Per-job normalized memory usage for Fig 6b.
  float job_mem_usage() {
    const double v = 0.004 * std::exp(0.9 * rng_.normal());
    return static_cast<float>(std::clamp(v, 1e-4, 0.5));
  }

 private:
  const GoogleModelConfig& cfg_;
  Rng rng_;
  LogNormal short_length_;
  BoundedPareto service_length_;
  Uniform long_service_length_;
  std::vector<double> priority_cdf_;
};

}  // namespace

GoogleWorkloadModel::GoogleWorkloadModel(GoogleModelConfig config)
    : config_(config) {
  CGC_CHECK(config_.service_fraction >= 0.0 &&
            config_.service_fraction + config_.long_service_fraction < 1.0);
  CGC_CHECK(config_.fail_fraction + config_.kill_fraction +
                config_.lost_fraction <
            1.0);
}

trace::TraceSet GoogleWorkloadModel::generate_workload(
    util::TimeSec horizon) const {
  Rng rng(config_.seed);
  Sampler sampler(config_, rng.split());
  trace::TraceSet out("google");
  out.set_duration(horizon);

  Rng arrival_rng = rng.split();
  const std::vector<TimeSec> arrivals =
      arrival_times(config_.arrival, horizon, arrival_rng);
  out.reserve_jobs(arrivals.size());

  std::int64_t job_id = 1;
  for (TimeSec submit : arrivals) {
    const JobDraw draw = sampler.draw_job();
    // Month-scale services start early enough to complete within the
    // window — the trace's 29-day maximum execution times are tasks that
    // ran nearly wall-to-wall.
    if (draw.is_service && draw.base_length >= config_.long_service_lo_s) {
      const auto length = static_cast<TimeSec>(draw.base_length * 1.15);
      if (horizon > length + util::kSecondsPerHour) {
        submit = sampler.rng().uniform_int(0, horizon - length - 1);
      }
    }
    trace::Job job;
    job.job_id = job_id;
    job.user_id = sampler.rng().uniform_int(1, 900);
    job.priority = draw.priority;
    job.submit_time = submit;
    job.num_tasks = draw.num_tasks;
    job.cpu_parallelism = sampler.job_cpu_parallelism();
    job.mem_usage = sampler.job_mem_usage();

    TimeSec job_end = submit;
    for (std::int32_t t = 0; t < draw.num_tasks; ++t) {
      trace::Task task;
      task.job_id = job_id;
      task.task_index = t;
      task.priority = draw.priority;
      task.submit_time = submit;
      // Google pending times are near zero (Fig 8b).
      task.schedule_time = submit + sampler.rng().uniform_int(0, 10);
      const auto duration =
          static_cast<TimeSec>(sampler.task_length(draw));
      task.end_time = task.schedule_time + std::max<TimeSec>(1, duration);
      task.end_event = sampler.draw_fate();
      task.cpu_request = sampler.cpu_request(draw.is_service);
      task.mem_request = sampler.mem_request(draw.is_service);
      task.cpu_usage = task.cpu_request * sampler.cpu_usage_ratio(false);
      task.mem_usage = task.mem_request * sampler.mem_usage_ratio();
      job_end = std::max(job_end, task.end_time);
      if (task.end_time > horizon) {
        task.end_time = -1;  // right-censored at the trace boundary
      }
      // Sampling drops the record, not the draw: job lengths and the
      // rng stream are unaffected.
      if (config_.task_sampling_rate >= 1.0 ||
          sampler.rng().bernoulli(config_.task_sampling_rate)) {
        out.add_task(task);
      }
    }
    job.end_time = job_end;
    // Jobs running past the trace window are right-censored, as in the
    // real trace.
    if (job.end_time > horizon) {
      job.end_time = -1;
    }
    out.add_job(job);
    ++job_id;
  }
  out.finalize();
  return out;
}

std::vector<trace::Machine> GoogleWorkloadModel::make_machines(
    std::size_t count) const {
  Rng rng(config_.seed ^ 0xabcdef12345ULL);
  std::vector<trace::Machine> machines;
  machines.reserve(count);
  const auto pick = [&rng](const auto& values, const auto& shares) {
    const double u = rng.uniform();
    double acc = 0.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      acc += shares[i];
      if (u <= acc) {
        return values[i];
      }
    }
    return values[values.size() - 1];
  };
  for (std::size_t i = 0; i < count; ++i) {
    trace::Machine m;
    m.machine_id = static_cast<std::int64_t>(i + 1);
    m.cpu_capacity = static_cast<float>(
        pick(paper::kCpuCapacityValues, paper::kCpuCapacityShares));
    m.mem_capacity = static_cast<float>(
        pick(paper::kMemCapacityValues, paper::kMemCapacityShares));
    m.page_cache_capacity = 1.0f;
    for (int bit = 0; bit < 4; ++bit) {
      if (rng.bernoulli(config_.machine_attribute_density)) {
        m.attributes |= static_cast<std::uint8_t>(1U << bit);
      }
    }
    machines.push_back(m);
  }
  return machines;
}

sim::Workload GoogleWorkloadModel::generate_sim_workload(
    util::TimeSec horizon, std::size_t num_machines) const {
  CGC_CHECK_MSG(num_machines > 0, "need at least one machine");
  Rng rng(config_.seed ^ 0x5151515151ULL);
  Sampler sampler(config_, rng.split());

  // Scale the arrival rate so that steady-state running tasks per machine
  // approach the target: concurrency = task_rate * mean_duration. The
  // arrival process is drawn at TASK granularity (tasks arrive in small
  // job batches) — drawing whole heavy-tailed jobs at a scaled-down rate
  // would leave the realized task rate dominated by rare huge jobs.
  const double mean_len = sampler.mean_task_length();
  constexpr double kMeanBatch = 4.0;  // tasks per submission batch (job)
  const double tasks_per_hour =
      config_.target_running_per_machine *
      static_cast<double>(num_machines) * util::kSecondsPerHour / mean_len;
  ArrivalModel arrival = config_.arrival;
  arrival.mean_per_hour = tasks_per_hour / kMeanBatch;

  // Warm-up: arrivals begin before the sampling window opens at t=0.
  const auto warmup =
      static_cast<TimeSec>(config_.warmup_days * util::kSecondsPerDay);
  Rng arrival_rng = rng.split();
  std::vector<TimeSec> arrivals =
      arrival_times(arrival, horizon + warmup, arrival_rng);
  for (TimeSec& t : arrivals) {
    t -= warmup;
  }
  // Busy-period surge (Fig 10a, days 21-25): extra arrivals on top.
  const TimeSec busy_lo =
      static_cast<TimeSec>(config_.busy_day_start * util::kSecondsPerDay);
  const TimeSec busy_hi =
      static_cast<TimeSec>(config_.busy_day_end * util::kSecondsPerDay);
  if (busy_hi > busy_lo && busy_lo < horizon &&
      config_.busy_rate_factor > 1.0) {
    ArrivalModel surge = arrival;
    surge.mean_per_hour *= config_.busy_rate_factor - 1.0;
    Rng surge_rng = rng.split();
    const std::vector<TimeSec> extra = arrival_times(
        surge, std::min(horizon, busy_hi) - busy_lo, surge_rng);
    for (const TimeSec t : extra) {
      arrivals.push_back(t + busy_lo);
    }
    std::sort(arrivals.begin(), arrivals.end());
  }

  // Best-effort scavenger stream: low-priority backfill tasks arriving
  // at a steady Poisson rate, sized to hold ~scavenger_per_machine slots.
  // Its arrivals are drawn here, before the batch loop, so the workload
  // can be reserved once; the loop below never touches `rng`, so the
  // split order and every draw match drawing them after it.
  const LogNormal scav_length(config_.scavenger_length_median_s,
                              config_.scavenger_length_sigma);
  Rng scav_rng;
  std::vector<TimeSec> scav_times;
  if (config_.scavenger_per_machine > 0.0) {
    scav_rng = rng.split();
    ArrivalModel scav_arrival;  // flat Poisson backfill
    scav_arrival.mean_per_hour = config_.scavenger_per_machine *
                                 static_cast<double>(num_machines) *
                                 util::kSecondsPerHour / scav_length.mean();
    scav_times = arrival_times(scav_arrival, horizon + warmup, scav_rng);
  }

  // Reserve once: each batch holds 1 + Poisson(kMeanBatch - 1) tasks, so
  // the batch total has mean n * kMeanBatch and variance
  // n * (kMeanBatch - 1); six standard deviations of headroom make a
  // regrowth (and its 2x copy transient) practically impossible.
  const double batches = static_cast<double>(arrivals.size());
  sim::Workload workload;
  workload.reserve(static_cast<std::size_t>(
                       batches * kMeanBatch +
                       6.0 * std::sqrt(batches * (kMeanBatch - 1.0))) +
                   64 + scav_times.size());
  std::int64_t job_id = 1;
  for (TimeSec submit : arrivals) {
    // A submission batch = one job of a few sibling tasks. Type (service
    // vs short) and priority are drawn per batch; lengths per task.
    JobDraw draw = sampler.draw_job();
    draw.num_tasks = static_cast<std::int32_t>(
        1 + sampler.rng().poisson(kMeanBatch - 1.0));
    // Month-scale services are pinned to a feasible start so they can
    // complete within the window (matching the observed 29-day maximum
    // execution times): they are brought up early and run for weeks.
    const bool is_long_service =
        draw.is_service && draw.base_length >= config_.long_service_lo_s;
    if (is_long_service) {
      const auto length = static_cast<TimeSec>(draw.base_length * 1.15);
      if (horizon > length + util::kSecondsPerHour) {
        submit = sampler.rng().uniform_int(0, horizon - length - 1);
      }
    }
    const bool busy = submit >= busy_lo && submit < busy_hi;
    for (std::int32_t t = 0; t < draw.num_tasks; ++t) {
      sim::TaskSpec spec;
      spec.job_id = job_id;
      spec.task_index = t;
      spec.priority = draw.priority;
      spec.submit_time = submit;
      spec.duration = std::max<TimeSec>(
          1, static_cast<TimeSec>(sampler.task_length(draw)));
      spec.cpu_request = sampler.cpu_request(draw.is_service);
      spec.mem_request = sampler.mem_request(draw.is_service);
      spec.cpu_usage_ratio = sampler.cpu_usage_ratio(busy);
      spec.mem_usage_ratio = sampler.mem_usage_ratio();
      spec.page_cache = sampler.page_cache();
      if (sampler.rng().bernoulli(config_.constrained_task_fraction)) {
        spec.required_attributes = static_cast<std::uint8_t>(
            1U << sampler.rng().uniform_int(0, 3));
      }
      spec.fate = sampler.draw_fate();
      if (spec.fate != TaskEventType::kFinish) {
        // The scripted death strikes partway through the intended run.
        spec.abnormal_after = std::max<TimeSec>(
            1, static_cast<TimeSec>(static_cast<double>(spec.duration) *
                                    sampler.rng().uniform(0.3, 0.9)));
      }
      spec.resubmit_on_abnormal = spec.fate == TaskEventType::kFail;
      spec.max_resubmits =
          spec.fate == TaskEventType::kFail ? config_.fail_resubmits : 0;
      workload.push_back(spec);
    }
    ++job_id;
  }
  for (const TimeSec t : scav_times) {
    sim::TaskSpec spec;
    spec.job_id = job_id++;
    spec.task_index = 0;
    spec.priority = static_cast<std::uint8_t>(scav_rng.uniform_int(1, 2));
    spec.submit_time = t - warmup;
    spec.duration = std::max<TimeSec>(
        60, static_cast<TimeSec>(scav_length.sample(scav_rng)));
    spec.cpu_request = 0.008f;
    spec.mem_request = static_cast<float>(std::clamp(
        0.018 * std::exp(0.4 * scav_rng.normal()), 0.004, 0.06));
    spec.cpu_usage_ratio = 0.3f;
    spec.mem_usage_ratio = 0.85f;
    spec.page_cache = 0.004f;
    spec.fate = TaskEventType::kFinish;
    // Evicted backfill is abandoned; the steady arrival stream
    // replenishes the population instead (bounding eviction churn).
    spec.resubmit_on_abnormal = false;
    spec.max_resubmits = 0;
    workload.push_back(spec);
  }
  CGC_LOG(kDebug) << "google sim workload: " << workload.size()
                  << " tasks across " << (job_id - 1) << " jobs";
  return workload;
}

}  // namespace cgc::gen
