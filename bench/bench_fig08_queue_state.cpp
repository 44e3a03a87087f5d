// Regenerates Figure 8: task events and queuing state on a particular
// host, plus the cluster-wide completion mix.
//
// Paper reference values: the running queue climbs to ~40 and stays
// stable; the pending queue is ~0 outside bootstrap; 59.2% of the 44M
// completion events are abnormal, of which ~50% FAIL and ~30.7% KILL.
#include "analysis/hostload_analyzers.hpp"
#include "common.hpp"
#include "registry.hpp"
#include "gen/calibration.hpp"
#include "stats/descriptive.hpp"
#include "util/table.hpp"

CGC_BENCH("fig08", cgc::bench::CaseKind::kFigure,
          "Task events & queuing state (Fig 8)") {
  using namespace cgc;
  const trace::TraceSet& trace = bench::google_hostload();
  const analysis::QueueStateReport report =
      analysis::analyze_queue_state(trace);

  bench::print("example machine: %lld\n\n",
              static_cast<long long>(report.machine_id));

  // Steady-state running count on the example machine (last third).
  const auto& rows = report.queue_figure.series[0].rows;
  stats::RunningStats running, pending;
  for (std::size_t i = rows.size() * 2 / 3; i < rows.size(); ++i) {
    pending.add(rows[i][1]);
    running.add(rows[i][2]);
  }
  bench::print_comparison("steady running tasks on the machine",
                          gen::paper::kTypicalRunningTasksPerHost,
                          running.mean(), 3);
  bench::print_comparison("steady pending tasks on the machine", "~0",
                          util::cell(pending.mean(), 2));

  bench::print_comparison("total completion events", "44e6 (full scale)",
                          util::cell_int(report.total_completions));
  bench::print_comparison("abnormal completion fraction",
                          gen::paper::kAbnormalFractionOfCompletions,
                          report.abnormal_fraction, 3);
  bench::print_comparison("FAIL share of abnormal",
                          gen::paper::kFailShareOfAbnormal,
                          report.fail_share_of_abnormal, 3);
  bench::print_comparison("KILL share of abnormal",
                          gen::paper::kKillShareOfAbnormal,
                          report.kill_share_of_abnormal, 3);
  bench::print_comparison("EVICT share of abnormal", "~0.15",
                          util::cell(report.evict_share_of_abnormal, 3));
  bench::print_comparison("LOST share of abnormal", "~0.04",
                          util::cell(report.lost_share_of_abnormal, 3));

  bench::write_dat(report.queue_figure);
  bench::write_dat(report.events_figure);
  bench::print_series_note("fig08a_task_events.dat / fig08b_queue_state.dat");
}
