#include "analysis/periodicity_analyzer.hpp"

#include <algorithm>
#include <cmath>

#include "exec/parallel.hpp"
#include "stats/descriptive.hpp"
#include "stats/periodicity.hpp"
#include "util/check.hpp"
#include "util/time_util.hpp"

namespace cgc::analysis {

namespace {

/// Downsamples a fixed-period series to hourly means.
std::vector<double> hourly_means(const std::vector<double>& series,
                                 util::TimeSec period) {
  const std::size_t per_hour = static_cast<std::size_t>(
      std::max<util::TimeSec>(1, util::kSecondsPerHour / period));
  std::vector<double> hourly;
  hourly.reserve(series.size() / per_hour + 1);
  for (std::size_t i = 0; i + per_hour <= series.size(); i += per_hour) {
    double total = 0.0;
    for (std::size_t j = 0; j < per_hour; ++j) {
      total += series[i + j];
    }
    hourly.push_back(total / static_cast<double>(per_hour));
  }
  return hourly;
}

}  // namespace

PeriodicityReport analyze_periodicity(const trace::TraceSet& trace,
                                      Metric metric,
                                      std::size_t min_lag_hours,
                                      std::size_t max_lag_hours) {
  const auto host_load = trace.host_load();
  CGC_CHECK_MSG(!host_load.empty(), "trace has no host load");

  PeriodicityReport report;
  report.system = trace.system_name();
  report.metric = metric;
  report.num_hosts = host_load.size();

  /// Per-chunk accumulator for the ordered reduce: ACF sums combine in
  /// chunk (= machine) order so the summed floats — and the significant
  /// host lists — are identical at any thread count.
  struct Accum {
    std::vector<double> periods;  // significant hosts only
    std::vector<double> strengths;
    std::vector<double> acf_sum;
    std::size_t hosts = 0;
  };
  Accum init;
  init.acf_sum.assign(max_lag_hours, 0.0);
  const Accum acc = exec::parallel_reduce(
      0, host_load.size(), std::move(init),
      [&](std::size_t lo, std::size_t hi) {
        Accum local;
        local.acf_sum.assign(max_lag_hours, 0.0);
        for (std::size_t m = lo; m < hi; ++m) {
          const auto machine = trace.machine_by_id(host_load[m].machine_id());
          const std::vector<double> rel =
              metric == Metric::kCpu
                  ? host_load[m].cpu_relative(machine->cpu_capacity,
                                              trace::PriorityBand::kLow)
                  : host_load[m].mem_relative(machine->mem_capacity,
                                              trace::PriorityBand::kLow);
          const std::vector<double> hourly =
              hourly_means(rel, host_load[m].period());
          if (hourly.size() < 3 * max_lag_hours) {
            continue;
          }
          const auto acf =
              stats::autocorrelation_function(hourly, max_lag_hours);
          for (std::size_t l = 0; l < max_lag_hours; ++l) {
            local.acf_sum[l] += acf[l];
          }
          ++local.hosts;
          const auto result = stats::detect_periodicity(
              hourly, min_lag_hours, max_lag_hours);
          if (result.significant) {
            local.periods.push_back(
                static_cast<double>(result.dominant_period));
            local.strengths.push_back(result.strength);
          }
        }
        return local;
      },
      [max_lag_hours](Accum& a, Accum&& part) {
        a.periods.insert(a.periods.end(), part.periods.begin(),
                         part.periods.end());
        a.strengths.insert(a.strengths.end(), part.strengths.begin(),
                           part.strengths.end());
        for (std::size_t l = 0; l < max_lag_hours; ++l) {
          a.acf_sum[l] += part.acf_sum[l];
        }
        a.hosts += part.hosts;
      },
      /*grain=*/1);
  const std::vector<double>& periods = acc.periods;
  const std::vector<double>& strengths = acc.strengths;
  std::vector<double> mean_acf = acc.acf_sum;
  const std::size_t acf_hosts = acc.hosts;

  if (acf_hosts > 0) {
    for (double& v : mean_acf) {
      v /= static_cast<double>(acf_hosts);
    }
  }
  report.fraction_periodic =
      static_cast<double>(periods.size()) /
      static_cast<double>(report.num_hosts);
  if (!periods.empty()) {
    report.median_period_hours = stats::median(periods);
    report.mean_strength =
        stats::summarize(std::span<const double>(strengths)).mean();
  }

  report.acf_figure.id = "ext_acf_" + sanitize_name(report.system) + "_" +
                         std::string(metric_name(metric));
  report.acf_figure.title = "Mean hourly ACF of " +
                            std::string(metric_name(metric)) + " load — " +
                            report.system;
  Series s;
  s.name = "mean_acf";
  s.column_names = {"lag_hours", "acf"};
  for (std::size_t l = 0; l < max_lag_hours; ++l) {
    s.add_row({static_cast<double>(l + 1), mean_acf[l]});
  }
  report.acf_figure.series.push_back(std::move(s));
  return report;
}

}  // namespace cgc::analysis
