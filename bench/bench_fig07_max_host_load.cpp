// Regenerates Figure 7: the distribution of the normalized maximum host
// load per capacity group, for CPU, consumed memory, assigned memory,
// and page cache.
//
// Paper claims: most machines' max CPU load reaches their capacity
// (>80%/70% for the low/middle CPU classes); max consumed memory sits
// around 80% of capacity; assigned memory around 90%; page cache is
// bimodal.
#include "analysis/hostload_analyzers.hpp"
#include "common.hpp"
#include "registry.hpp"
#include "stats/descriptive.hpp"
#include "util/table.hpp"

CGC_BENCH("fig07", cgc::bench::CaseKind::kFigure,
          "Maximum host load distribution (Fig 7)") {
  using namespace cgc;
  const trace::TraceSet& trace = bench::google_hostload();
  const analysis::MaxLoadDistribution dist =
      analysis::analyze_max_host_load(trace);

  const auto summarize_groups =
      [](const char* name,
         const std::vector<analysis::MaxLoadDistribution::Group>& groups) {
        util::AsciiTable table({"capacity", "#machines", "mean max load",
                                "mean max/capacity", "P(max>=95% cap)"});
        table.set_caption(name);
        for (const auto& g : groups) {
          if (g.max_loads.empty()) {
            continue;
          }
          const auto s =
              stats::summarize(std::span<const double>(g.max_loads));
          std::size_t saturated = 0;
          for (const double v : g.max_loads) {
            if (v >= 0.95 * g.capacity) {
              ++saturated;
            }
          }
          table.add_row(
              {util::cell(g.capacity, 3),
               util::cell_int(static_cast<long long>(g.max_loads.size())),
               util::cell(s.mean(), 3), util::cell(s.mean() / g.capacity, 3),
               util::cell_pct(static_cast<double>(saturated) /
                              static_cast<double>(g.max_loads.size()))});
        }
        bench::print("%s\n", table.render().c_str());
      };

  summarize_groups("CPU usage (Fig 7a)", dist.cpu);
  summarize_groups("memory usage (Fig 7b)", dist.mem);
  summarize_groups("memory assigned (Fig 7c)", dist.mem_assigned);
  summarize_groups("page cache (Fig 7d)", dist.page_cache);

  // Headline comparisons.
  double cpu_saturated = 0.0;
  std::size_t cpu_total = 0;
  for (const auto& g : dist.cpu) {
    for (const double v : g.max_loads) {
      if (v >= 0.95 * g.capacity) {
        cpu_saturated += 1.0;
      }
    }
    cpu_total += g.max_loads.size();
  }
  bench::print_comparison("machines whose max CPU ~= capacity",
                          "70-80%+",
                          util::cell_pct(cpu_saturated /
                                         static_cast<double>(cpu_total)));
  double mem_ratio = 0.0;
  std::size_t mem_total = 0;
  for (const auto& g : dist.mem) {
    for (const double v : g.max_loads) {
      mem_ratio += v / g.capacity;
      ++mem_total;
    }
  }
  bench::print_comparison("mean max memory / capacity", 0.80,
                          mem_ratio / static_cast<double>(mem_total), 2);
  double assigned_ratio = 0.0;
  std::size_t assigned_total = 0;
  for (const auto& g : dist.mem_assigned) {
    for (const double v : g.max_loads) {
      assigned_ratio += v / g.capacity;
      ++assigned_total;
    }
  }
  bench::print_comparison("mean max assigned memory / capacity", 0.90,
                          assigned_ratio /
                              static_cast<double>(assigned_total),
                          2);

  for (const analysis::Figure& f : dist.to_figures()) {
    bench::write_dat(f);
  }
  bench::print_series_note("fig07a..d_cap_*.dat (PDF per capacity group)");
}
