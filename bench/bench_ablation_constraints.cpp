// Ablation: task placement constraints (extension; paper Section V).
//
// The paper cites Sharma et al.'s finding that task placement
// constraints measurably impact scheduling in Google's clusters, and
// notes that "Cloud tasks' placement constraints may also be tuned by
// users frequently over time, which may further impact the resource
// utilization significantly." This ablation sweeps the constrained-task
// fraction and reports scheduling delay, pending depth, and eviction
// pressure.
#include <string>
#include <vector>

#include "common.hpp"
#include "exec/parallel.hpp"
#include "registry.hpp"
#include "sim/cluster_sim.hpp"
#include "stats/descriptive.hpp"
#include "util/table.hpp"

CGC_BENCH("ablation_constraints", cgc::bench::CaseKind::kAblation,
          "Placement-constraint ablation (extension)") {
  using namespace cgc;
  const util::TimeSec horizon =
      (bench::fast_mode() ? 3 : 8) * util::kSecondsPerDay;
  const std::size_t machines = bench::fast_mode() ? 16 : 32;

  // The variants are independent sims: run them concurrently, render
  // the rows in variant order. Each sim keeps only the task rows the
  // table reads; the record knobs never change the dynamics.
  const std::vector<double> fractions = {0.0, 0.12, 0.3, 0.5, 0.8};
  const auto rows = exec::parallel_map<std::vector<std::string>>(
      fractions.size(),
      [&](std::size_t i) {
        gen::GoogleModelConfig config;
        config.constrained_task_fraction = fractions[i];
        gen::GoogleWorkloadModel model(config);
        sim::SimConfig sim_config;
        sim_config.horizon = horizon;
        sim_config.record_events = false;
        sim_config.record_host_load = false;
        sim::ClusterSim sim(model.make_machines(machines), sim_config);
        const trace::TraceSet out =
            sim.run(model.generate_sim_workload(horizon, machines));

        std::vector<double> waits;
        for (const trace::Task& t : out.tasks()) {
          if (t.schedule_time >= 0 && t.submit_time >= 0) {
            waits.push_back(
                static_cast<double>(t.schedule_time - t.submit_time));
          }
        }
        const auto summary =
            stats::summarize(std::span<const double>(waits));
        return std::vector<std::string>{
            util::cell_pct(fractions[i]), util::cell(summary.mean(), 3),
            util::cell(stats::quantile(waits, 0.99), 4),
            util::cell_int(sim.stats().max_pending_depth),
            util::cell_int(sim.stats().evicted),
            util::cell_int(sim.stats().never_scheduled)};
      },
      /*grain=*/1);

  util::AsciiTable table({"constrained fraction", "mean wait (s)",
                          "P99 wait (s)", "max pending", "evicted",
                          "never scheduled"});
  for (const std::vector<std::string>& row : rows) {
    table.add_row(row);
  }
  bench::print("%s\n", table.render().c_str());
  bench::print(
      "expected: waits and backlog grow with the constrained fraction —\n"
      "constrained tasks can only use the subset of machines offering\n"
      "their attribute (density %.0f%%), so effective capacity shrinks\n"
      "(Sharma et al.'s utilization impact). Not reproduced: this cluster\n"
      "runs lightly loaded, so waits stay 0 s at every fraction\n"
      "(EXPERIMENTS.md, Ablations).\n",
      gen::GoogleModelConfig{}.machine_attribute_density * 100.0);
}
