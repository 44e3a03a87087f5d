// Ablation: preemption (DESIGN.md §5).
//
// Fig 8's eviction share of abnormal completions depends on preemption.
// This ablation runs the Google workload with preemption on/off and at
// different requeue delays, reporting the eviction rate, high-priority
// waiting time, and abnormal mix.
#include <iterator>
#include <string>
#include <vector>

#include "common.hpp"
#include "exec/parallel.hpp"
#include "registry.hpp"
#include "sim/cluster_sim.hpp"
#include "stats/descriptive.hpp"
#include "util/table.hpp"

CGC_BENCH("ablation_preemption", cgc::bench::CaseKind::kAblation,
          "Preemption ablation (DESIGN.md §5)") {
  using namespace cgc;
  const util::TimeSec horizon =
      (bench::fast_mode() ? 3 : 8) * util::kSecondsPerDay;
  const std::size_t machines = bench::fast_mode() ? 16 : 32;

  gen::GoogleWorkloadModel model;
  const sim::Workload workload =
      model.generate_sim_workload(horizon, machines);

  struct Variant {
    const char* name;
    bool preemption;
    util::TimeSec requeue_delay;
  };
  const Variant variants[] = {
      {"preemption off", false, 180},
      {"preemption on, requeue 30 s", true, 30},
      {"preemption on, requeue 180 s", true, 180},
      {"preemption on, requeue 900 s", true, 900},
  };

  // The variants are independent sims over one workload: run them
  // concurrently, render the rows in variant order. Each sim keeps only
  // the task rows the table reads; the record knobs never change the
  // dynamics.
  const auto rows = exec::parallel_map<std::vector<std::string>>(
      std::size(variants),
      [&](std::size_t i) {
        const Variant& v = variants[i];
        sim::SimConfig config;
        config.horizon = horizon;
        config.preemption = v.preemption;
        config.evict_requeue_delay = v.requeue_delay;
        config.record_events = false;
        config.record_host_load = false;
        sim::ClusterSim sim(model.make_machines(machines), config);
        const trace::TraceSet out = sim.run(workload);

        stats::RunningStats high_wait;
        for (const trace::Task& t : out.tasks()) {
          if (trace::band_of(t.priority) == trace::PriorityBand::kHigh &&
              t.schedule_time >= 0) {
            high_wait.add(
                static_cast<double>(t.schedule_time - t.submit_time));
          }
        }
        const auto& s = sim.stats();
        const double abnormal =
            static_cast<double>(s.failed + s.killed + s.evicted + s.lost);
        return std::vector<std::string>{
            v.name, util::cell_int(s.evicted),
            util::cell_pct(abnormal > 0
                               ? static_cast<double>(s.evicted) / abnormal
                               : 0.0),
            util::cell(s.abnormal_fraction(), 3),
            util::cell(high_wait.mean(), 3),
            util::cell_int(s.max_pending_depth)};
      },
      /*grain=*/1);

  util::AsciiTable table({"variant", "evicted", "evict share of abnormal",
                          "abnormal fraction", "high-pri mean wait (s)",
                          "max pending"});
  for (const std::vector<std::string>& row : rows) {
    table.add_row(row);
  }
  bench::print("%s\n", table.render().c_str());
  bench::print("expected: preemption trades low-priority evictions for "
              "near-zero\nhigh-priority waiting (the paper's 'high "
              "priority tasks can preempt').\n");
}
