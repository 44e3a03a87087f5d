// Regenerates Table I: the number of jobs submitted per hour
// (max / avg / min) and the Jain fairness index, for Google and the
// seven Grid/HPC systems.
#include <cstdio>
#include <vector>

#include "analysis/workload_analyzers.hpp"
#include "common.hpp"
#include "registry.hpp"
#include "gen/calibration.hpp"
#include "util/table.hpp"

CGC_BENCH("tab01", cgc::bench::CaseKind::kTable,
          "Jobs submitted per hour (Table I)") {
  using namespace cgc;
  // Pointers into the process-wide trace memo: no copies.
  std::vector<const trace::TraceSet*> traces;
  traces.push_back(&bench::google_workload(0.25));  // job-level stats are sampling-rate-invariant: share fig02/fig04's trace
  for (const char* name : {"AuverGrid", "NorduGrid", "SHARCNET", "ANL",
                           "RICC", "METACENTRUM", "LLNL-Atlas"}) {
    traces.push_back(&bench::grid_workload(name));
  }

  std::vector<analysis::SubmissionStats> rows;
  for (const trace::TraceSet* tp : traces) {
    const trace::TraceSet& t = *tp;
    rows.push_back(analysis::analyze_submission_stats(t));
  }
  std::printf("%s\n",
              analysis::render_submission_table(rows).c_str());

  std::printf("paper-vs-measured (avg per hour | fairness):\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& paper_row = gen::paper::kTableI[i];
    char paper[64], measured[64];
    std::snprintf(paper, sizeof(paper), "%.4g | %.2f",
                  paper_row.avg_per_hour, paper_row.fairness);
    std::snprintf(measured, sizeof(measured), "%.4g | %.2f",
                  rows[i].avg_per_hour, rows[i].fairness);
    bench::print_comparison(paper_row.system, paper, measured);
  }

  // The table's headline ordering claims.
  bool fairness_gap = true;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].fairness >= rows[0].fairness) {
      fairness_gap = false;
    }
  }
  std::printf("\n  Google fairness exceeds every Grid system: %s\n",
              fairness_gap ? "HOLDS" : "VIOLATED");
  bool rate_gap = true;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].avg_per_hour >= rows[0].avg_per_hour) {
      rate_gap = false;
    }
  }
  std::printf("  Google submission rate exceeds every Grid system: %s\n",
              rate_gap ? "HOLDS" : "VIOLATED");
}
