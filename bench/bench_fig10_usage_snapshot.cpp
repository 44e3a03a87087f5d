// Regenerates Figure 10: the usage-level snapshot — quantized CPU and
// memory load over time for 50 sampled machines, for all tasks and for
// high-priority tasks only.
//
// Paper claims: CPU is mostly idle (levels 0-1) outside the busy window
// (days 21-25); memory sits high; the high-priority view is much lighter
// than the all-tasks view.
#include <cstdio>

#include "analysis/hostload_analyzers.hpp"
#include "common.hpp"
#include "registry.hpp"
#include "util/table.hpp"

CGC_BENCH("fig10", cgc::bench::CaseKind::kFigure,
          "Usage-level snapshot (Fig 10)") {
  using namespace cgc;
  const trace::TraceSet& trace = bench::google_hostload();

  struct View {
    analysis::Metric metric;
    trace::PriorityBand band;
    const char* label;
  };
  const View views[] = {
      {analysis::Metric::kCpu, trace::PriorityBand::kLow,
       "CPU, all tasks (Fig 10a)"},
      {analysis::Metric::kCpu, trace::PriorityBand::kHigh,
       "CPU, high-priority tasks (Fig 10b)"},
      {analysis::Metric::kMem, trace::PriorityBand::kLow,
       "memory, all tasks (Fig 10c)"},
      {analysis::Metric::kMem, trace::PriorityBand::kHigh,
       "memory, high-priority tasks (Fig 10d)"},
  };

  for (const View& view : views) {
    const analysis::Figure fig = analysis::analyze_usage_snapshot(
        trace, view.metric, view.band, 50);
    // Level occupancy summary: fraction of machine-samples per level.
    std::array<double, 5> occupancy{};
    double total = 0.0;
    for (const auto& row : fig.series[0].rows) {
      ++occupancy[static_cast<std::size_t>(row[2])];
      ++total;
    }
    util::AsciiTable table({"level [0,0.2)", "[0.2,0.4)", "[0.4,0.6)",
                            "[0.6,0.8)", "[0.8,1]"});
    table.set_caption(view.label);
    table.add_row({util::cell_pct(occupancy[0] / total),
                   util::cell_pct(occupancy[1] / total),
                   util::cell_pct(occupancy[2] / total),
                   util::cell_pct(occupancy[3] / total),
                   util::cell_pct(occupancy[4] / total)});
    std::printf("%s\n", table.render().c_str());
    fig.write_dat(bench::out_dir());
  }

  std::printf("paper (Fig 10): CPU mostly levels 0-1 outside days 21-25;\n"
              "memory mostly levels 2-3; high-priority views much lighter.\n");
  bench::print_series_note("fig10_<metric>_<band>_levels.dat "
                           "(time_day machine level)");
}
