// Ablation: arrival process (DESIGN.md §5).
//
// Table I's fairness gap (Google 0.94 vs Grids 0.04-0.51) is driven by
// the arrival model. This ablation sweeps the modulation components —
// plain Poisson, +diurnal, +bursts, +dips — and reports the realized
// Jain fairness and peak-to-mean ratio of hourly submissions.
#include "common.hpp"
#include "registry.hpp"
#include "gen/arrival.hpp"
#include "stats/descriptive.hpp"
#include "stats/fairness.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

std::vector<double> hourly_counts(
    const std::vector<cgc::util::TimeSec>& times, std::size_t hours) {
  std::vector<double> counts(hours, 0.0);
  for (const auto t : times) {
    counts[static_cast<std::size_t>(t / cgc::util::kSecondsPerHour)] += 1.0;
  }
  return counts;
}

}  // namespace

CGC_BENCH("ablation_arrival", cgc::bench::CaseKind::kAblation,
          "Arrival process ablation (DESIGN.md §5)") {
  using namespace cgc;
  const int days = bench::fast_mode() ? 10 : 30;
  const util::TimeSec horizon = days * util::kSecondsPerDay;

  struct Variant {
    const char* name;
    gen::ArrivalModel model;
  };
  gen::ArrivalModel base;
  base.mean_per_hour = 150.0;

  std::vector<Variant> variants;
  variants.push_back({"poisson", base});
  {
    gen::ArrivalModel m = base;
    m.diurnal_amplitude = 0.6;
    variants.push_back({"+diurnal(0.6)", m});
  }
  {
    gen::ArrivalModel m = base;
    m.diurnal_amplitude = 0.6;
    m.burst_sigma = 1.0;
    m.burst_ar1 = 0.5;
    variants.push_back({"+bursts(sigma=1)", m});
  }
  {
    gen::ArrivalModel m = base;
    m.diurnal_amplitude = 0.6;
    m.burst_sigma = 1.8;
    m.burst_ar1 = 0.4;
    variants.push_back({"+bursts(sigma=1.8)", m});
  }
  {
    gen::ArrivalModel m = base;
    m.diurnal_amplitude = 0.6;
    m.burst_sigma = 1.0;
    m.burst_ar1 = 0.5;
    m.dip_probability = 0.02;
    m.dip_factor = 0.05;
    variants.push_back({"+dips(2%)", m});
  }

  util::AsciiTable table({"arrival model", "fairness", "max/avg",
                          "min per hour"});
  for (const Variant& v : variants) {
    util::Rng rng(4242);
    const auto counts = hourly_counts(
        gen::arrival_times(v.model, horizon, rng),
        static_cast<std::size_t>(days) * 24);
    const auto s = stats::summarize(std::span<const double>(counts));
    table.add_row({v.name,
                   util::cell(stats::jain_fairness(counts), 3),
                   util::cell(s.max() / s.mean(), 3),
                   util::cell(s.min(), 3)});
  }
  bench::print("%s\n", table.render().c_str());
  bench::print("expected: fairness collapses from ~1.0 (Poisson, the Cloud "
              "regime of\nTable I) toward the 0.04-0.5 Grid regime as "
              "diurnal modulation and\nlognormal bursts are layered in.\n");
}
