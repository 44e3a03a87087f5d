// Ablation: placement policy (DESIGN.md §5).
//
// The paper describes Google's scheduler as picking the "best" resources
// to balance demand across machines. This ablation runs the same Google
// workload under every placement policy and compares balance (stddev of
// per-machine mean CPU), eviction pressure, and pending backlog.
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "exec/parallel.hpp"
#include "registry.hpp"
#include "sim/cluster_sim.hpp"
#include "stats/descriptive.hpp"
#include "util/table.hpp"

CGC_BENCH("ablation_placement", cgc::bench::CaseKind::kAblation,
          "Placement policy ablation (DESIGN.md §5)") {
  using namespace cgc;
  const util::TimeSec horizon =
      (bench::fast_mode() ? 3 : 8) * util::kSecondsPerDay;
  const std::size_t machines = bench::fast_mode() ? 16 : 32;

  gen::GoogleWorkloadModel model;
  const sim::Workload workload =
      model.generate_sim_workload(horizon, machines);

  // The policies are independent sims over one workload: run them
  // concurrently, render the rows in policy order. Each sim keeps only
  // the host load the table reads; the record knobs never change the
  // dynamics.
  const std::vector<sim::PlacementPolicy> policies = {
      sim::PlacementPolicy::kBalanced, sim::PlacementPolicy::kBestFit,
      sim::PlacementPolicy::kWorstFit, sim::PlacementPolicy::kFirstFit,
      sim::PlacementPolicy::kRandom};
  const auto rows = exec::parallel_map<std::vector<std::string>>(
      policies.size(),
      [&](std::size_t i) {
        sim::SimConfig config;
        config.horizon = horizon;
        config.placement = policies[i];
        config.record_events = false;
        config.record_tasks = false;
        sim::ClusterSim sim(model.make_machines(machines), config);
        const trace::TraceSet out = sim.run(workload);

        // Per-machine mean relative CPU usage: balance metric.
        stats::RunningStats across;
        stats::RunningStats overall;
        for (const trace::HostLoadSeries& h : out.host_load()) {
          const auto machine = out.machine_by_id(h.machine_id());
          const auto rel = h.cpu_relative(machine->cpu_capacity,
                                          trace::PriorityBand::kLow);
          const auto s = stats::summarize(std::span<const double>(rel));
          across.add(s.mean());
          overall.merge(s);
        }
        return std::vector<std::string>{
            std::string(sim::placement_name(policies[i])),
            util::cell_int(sim.stats().scheduled),
            util::cell_int(sim.stats().evicted),
            util::cell_int(sim.stats().max_pending_depth),
            util::cell_pct(overall.mean()), util::cell(across.stddev(), 3)};
      },
      /*grain=*/1);

  util::AsciiTable table({"policy", "scheduled", "evicted", "max pending",
                          "mean cpu", "cpu stddev across machines"});
  for (const std::vector<std::string>& row : rows) {
    table.add_row(row);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "expected: balanced/worst-fit spread load (small cross-machine "
      "stddev);\nfirst-fit/best-fit pack it (large stddev, more eviction "
      "hot-spots).\n");
}
