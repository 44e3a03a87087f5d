// cgc::Characterization — the simulated host-load traces of the study.
//
// The workload-only views (Figs 2-6, Table I) run on generated traces
// directly; the host-load views (Figs 7-13, Tables II-III) need a trace
// the cluster simulator produced. These two builders are the one place
// that pairs a generator with the simulator for that: the cgc_report
// cases, the perf harness, the examples and the tests all call them.
// Running the whole study is `cgc_report` (bench/registry.hpp).
#pragma once

#include <cstddef>

#include "gen/google_model.hpp"
#include "gen/grid_model.hpp"
#include "sim/config.hpp"
#include "trace/trace_set.hpp"

namespace cgc {

class Characterization {
 public:
  /// Simulates `machines` Google hosts over `horizon`. The trace's
  /// system name is "google-hostload".
  static trace::TraceSet simulate_google_hostload(
      const gen::GoogleModelConfig& config, const sim::SimConfig& sim_config,
      std::size_t machines, util::TimeSec horizon);
  /// Simulates `machines` hosts of a grid preset over `horizon` under
  /// the grid scheduler defaults. The trace's system name is
  /// "<preset>-hostload".
  static trace::TraceSet simulate_grid_hostload(
      const gen::GridSystemPreset& preset, std::size_t machines,
      util::TimeSec horizon);
};

}  // namespace cgc
