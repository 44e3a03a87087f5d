// Extension: host-load predictability, Cloud vs Grid.
//
// The paper's conclusion — "it is more challenging to predict Google
// cluster's host load because of its higher noise and more unstable
// state" — evaluated with the cgc::predict suite (the paper's stated
// future-work direction).
#include <cstdio>

#include "common.hpp"
#include "registry.hpp"
#include "predict/evaluation.hpp"

CGC_BENCH("ext_prediction", cgc::bench::CaseKind::kExtension,
          "Host-load predictability, Cloud vs Grid (extension)") {
  using namespace cgc;
  const trace::TraceSet& google = bench::google_hostload();
  const trace::TraceSet& auvergrid = bench::grid_hostload("AuverGrid");

  const auto google_cpu =
      predict::evaluate_standard_suite(google, analysis::Metric::kCpu);
  const auto grid_cpu =
      predict::evaluate_standard_suite(auvergrid, analysis::Metric::kCpu);
  std::printf("%s\n",
              predict::render_comparison("google", google_cpu, "AuverGrid",
                                         grid_cpu)
                  .c_str());

  const auto google_mem =
      predict::evaluate_standard_suite(google, analysis::Metric::kMem);
  const auto grid_mem =
      predict::evaluate_standard_suite(auvergrid, analysis::Metric::kMem);
  std::printf("%s\n",
              predict::render_comparison("google(mem)", google_mem,
                                         "AuverGrid(mem)", grid_mem)
                  .c_str());

  // Headline: best predictor per system, raw-signal difficulty ratio.
  const auto best = [](const std::vector<predict::EvaluationResult>& rows) {
    std::size_t idx = 0;
    for (std::size_t i = 1; i < rows.size(); ++i) {
      if (rows[i].mae < rows[idx].mae) {
        idx = i;
      }
    }
    return rows[idx];
  };
  const auto gb = best(google_cpu);
  const auto ab = best(grid_cpu);
  bench::print_comparison("best Cloud predictor",
                          "(paper: future work)", gb.predictor);
  bench::print_comparison("best Grid predictor", "(paper: future work)",
                          ab.predictor);
  std::printf("\n  Cloud CPU harder to predict than Grid CPU "
              "(last-value MAE): %s (%.3f vs %.3f)\n",
              google_cpu[0].mae > grid_cpu[0].mae ? "HOLDS" : "VIOLATED",
              google_cpu[0].mae, grid_cpu[0].mae);
}
