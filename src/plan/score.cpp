#include "plan/score.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "util/error.hpp"
#include "util/time_util.hpp"

namespace cgc::plan {

namespace {

/// The score fields by JSON name, in frozen serialization order.
struct ScoreField {
  const char* name;
  double ScenarioScore::*member;
};
constexpr ScoreField kScoreFields[] = {
    {"cpu_util_mean", &ScenarioScore::cpu_util_mean},
    {"cpu_util_peak", &ScenarioScore::cpu_util_peak},
    {"mem_util_mean", &ScenarioScore::mem_util_mean},
    {"mem_util_peak", &ScenarioScore::mem_util_peak},
    {"eviction_rate", &ScenarioScore::eviction_rate},
    {"wait_p50_s", &ScenarioScore::wait_p50_s},
    {"wait_p90_s", &ScenarioScore::wait_p90_s},
    {"wait_p99_s", &ScenarioScore::wait_p99_s},
    {"wait_mean_s", &ScenarioScore::wait_mean_s},
    {"machines_needed", &ScenarioScore::machines_needed},
    {"headroom", &ScenarioScore::headroom},
    {"machine_hours", &ScenarioScore::machine_hours},
    {"cost_usd", &ScenarioScore::cost_usd},
    {"consolidated_cost_usd", &ScenarioScore::consolidated_cost_usd},
    {"slo_attainment", &ScenarioScore::slo_attainment},
    {"cpu_hours_delivered", &ScenarioScore::cpu_hours_delivered},
    {"usd_per_slo", &ScenarioScore::usd_per_slo},
};

}  // namespace

ScenarioScore score_run(const ScenarioSpec& spec,
                        const trace::TraceSet& trace,
                        const sim::SimStats& stats) {
  const auto host_load = trace.host_load();
  if (host_load.empty() || host_load[0].empty()) {
    throw util::DataError(
        "scenario " + scenario_id(spec) +
        ": trace carries no host-load samples (horizon shorter than one "
        "sample period?) — nothing to score");
  }

  double cpu_capacity = 0.0;
  double mem_capacity = 0.0;
  for (const trace::Machine& m : trace.machines()) {
    cpu_capacity += m.cpu_capacity;
    mem_capacity += m.mem_capacity;
  }
  if (cpu_capacity <= 0.0 || mem_capacity <= 0.0) {
    throw util::DataError("scenario " + scenario_id(spec) +
                          ": machine park has no capacity");
  }

  // Aggregate demand per sample index, machines in trace order (fixed
  // accumulation order — part of the determinism contract).
  const std::size_t num_samples = host_load[0].size();
  const util::TimeSec period = host_load[0].period();
  std::vector<double> cpu_agg(num_samples, 0.0);
  std::vector<double> mem_agg(num_samples, 0.0);
  for (const trace::HostLoadSeries& h : host_load) {
    const std::size_t n = std::min(num_samples, h.size());
    for (std::size_t i = 0; i < n; ++i) {
      cpu_agg[i] += h.cpu_total(i);
      mem_agg[i] += h.mem_total(i);
    }
  }

  ScenarioScore score;
  double cpu_sum = 0.0;
  double mem_sum = 0.0;
  double cpu_peak = 0.0;
  double mem_peak = 0.0;
  for (std::size_t i = 0; i < num_samples; ++i) {
    cpu_sum += cpu_agg[i];
    mem_sum += mem_agg[i];
    cpu_peak = std::max(cpu_peak, cpu_agg[i]);
    mem_peak = std::max(mem_peak, mem_agg[i]);
  }
  const double n = static_cast<double>(num_samples);
  score.cpu_util_mean = cpu_sum / n / cpu_capacity;
  score.mem_util_mean = mem_sum / n / mem_capacity;
  score.cpu_util_peak = cpu_peak / cpu_capacity;
  score.mem_util_peak = mem_peak / mem_capacity;

  score.eviction_rate =
      static_cast<double>(stats.evicted) /
      static_cast<double>(std::max<std::int64_t>(1, stats.scheduled));
  score.wait_p50_s = stats.wait_quantile(0.50);
  score.wait_p90_s = stats.wait_quantile(0.90);
  score.wait_p99_s = stats.wait_quantile(0.99);
  score.wait_mean_s = stats.wait_mean_s();

  // Machines needed: per planning window, the peak aggregate demand
  // must fit on ceil(demand / (target x mean machine capacity))
  // machines; the scenario's need is the worst window (consolidation
  // must survive the month's worst 6 hours, not its average).
  const double fleet = static_cast<double>(spec.fleet);
  const double mean_machine_cpu = cpu_capacity / fleet;
  const double mean_machine_mem = mem_capacity / fleet;
  const util::TimeSec window =
      std::min<util::TimeSec>(6 * util::kSecondsPerHour, spec.horizon);
  const std::size_t samples_per_window = std::max<std::size_t>(
      1, static_cast<std::size_t>(window / period));
  double needed = 0.0;
  for (std::size_t w0 = 0; w0 < num_samples; w0 += samples_per_window) {
    const std::size_t w1 = std::min(num_samples, w0 + samples_per_window);
    double peak_cpu = 0.0;
    double peak_mem = 0.0;
    for (std::size_t i = w0; i < w1; ++i) {
      peak_cpu = std::max(peak_cpu, cpu_agg[i]);
      peak_mem = std::max(peak_mem, mem_agg[i]);
    }
    const double need_cpu =
        peak_cpu / (spec.target_utilization * mean_machine_cpu);
    const double need_mem =
        peak_mem / (spec.target_utilization * mean_machine_mem);
    needed = std::max(needed, std::ceil(std::max(need_cpu, need_mem)));
  }
  score.machines_needed = needed;
  score.headroom = 1.0 - needed / fleet;

  const double horizon_hours =
      static_cast<double>(spec.horizon) / util::kSecondsPerHour;
  score.machine_hours = fleet * horizon_hours;
  score.cost_usd = score.machine_hours * spec.cost_per_machine_hour;
  score.consolidated_cost_usd =
      needed * horizon_hours * spec.cost_per_machine_hour;
  score.slo_attainment = stats.wait_fraction_within(spec.slo_wait_s);
  score.cpu_hours_delivered =
      cpu_sum * static_cast<double>(period) / util::kSecondsPerHour;

  const double denom = score.slo_attainment * score.cpu_hours_delivered;
  score.usd_per_slo =
      denom > 0.0 ? score.consolidated_cost_usd / denom : -1.0;
  return score;
}

bool dominates(const ScenarioScore& a, const ScenarioScore& b) {
  if (a.usd_per_slo < 0.0) {
    return false;  // an undefined cost never dominates
  }
  const double cost_b = b.usd_per_slo < 0.0
                            ? std::numeric_limits<double>::infinity()
                            : b.usd_per_slo;
  const bool ge_all = a.cpu_util_mean >= b.cpu_util_mean &&
                      a.eviction_rate <= b.eviction_rate &&
                      a.wait_p99_s <= b.wait_p99_s &&
                      a.usd_per_slo <= cost_b;
  const bool strict = a.cpu_util_mean > b.cpu_util_mean ||
                      a.eviction_rate < b.eviction_rate ||
                      a.wait_p99_s < b.wait_p99_s || a.usd_per_slo < cost_b;
  return ge_all && strict;
}

std::vector<std::size_t> pareto_frontier(
    const std::vector<ScenarioScore>& scores) {
  std::vector<std::size_t> frontier;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < scores.size(); ++j) {
      if (j != i && dominates(scores[j], scores[i])) {
        dominated = true;
        break;
      }
    }
    if (!dominated) {
      frontier.push_back(i);
    }
  }
  return frontier;
}

std::string score_json(const ScenarioScore& score, int digits) {
  std::string out = "{";
  for (const ScoreField& f : kScoreFields) {
    char value[40];
    std::snprintf(value, sizeof(value), "%.*g", digits, score.*f.member);
    if (out.size() > 1) {
      out += ", ";
    }
    out += std::string("\"") + f.name + "\": " + value;
  }
  out += "}";
  return out;
}

bool parse_score(const util::json::Value& object, ScenarioScore* score) {
  return std::all_of(std::begin(kScoreFields), std::end(kScoreFields),
                     [&](const ScoreField& f) {
                       return object.get(f.name, &(score->*f.member));
                     });
}

}  // namespace cgc::plan
