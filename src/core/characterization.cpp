#include "core/characterization.hpp"

#include "sim/cluster_sim.hpp"

namespace cgc {

trace::TraceSet Characterization::simulate_google_hostload(
    const gen::GoogleModelConfig& config, const sim::SimConfig& sim_config,
    std::size_t machines, util::TimeSec horizon) {
  gen::GoogleWorkloadModel model(config);
  sim::SimConfig sc = sim_config;
  sc.horizon = horizon;
  sim::ClusterSim sim(model.make_machines(machines), sc);
  return sim.run(model.generate_sim_workload(horizon, machines),
                 "google-hostload");
}

trace::TraceSet Characterization::simulate_grid_hostload(
    const gen::GridSystemPreset& preset, std::size_t machines,
    util::TimeSec horizon) {
  gen::GridWorkloadModel model(preset);
  sim::SimConfig sc;
  sc.horizon = horizon;
  gen::GridWorkloadModel::apply_grid_sim_defaults(&sc);
  sim::ClusterSim sim(model.make_machines(machines), sc);
  return sim.run(model.generate_sim_workload(horizon, machines),
                 preset.name + "-hostload");
}

}  // namespace cgc
