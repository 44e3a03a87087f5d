// cgc::plan — declarative what-if capacity-planning scenarios.
//
// The paper motivates characterization with resource management:
// consolidate load, "use fewer machines and shut off unneeded hosts".
// Answering that question requires comparing many configurations, not
// one — scheduler policy x workload mix x fleet size x preemption x
// priority scheme. A ScenarioSpec is the declarative unit of that
// comparison: everything a simulation run depends on, in one value
// type, identified by a pure stable hash (scenario_id) so shards,
// checkpoints and resumed runs agree on which scenario is which
// without coordination — the same contract as sweep::stable_case_hash,
// and built on it.
//
// Workload mixes are expressed through gen::WorkloadModel names, so a
// scenario can blend Cloud and Grid load ("google:0.7 + auvergrid:0.3")
// or cross-replay one system's workload on the other's machine park
// (Grid-on-Cloud: a grid model with hetero_mix = 1).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/config.hpp"
#include "util/time_util.hpp"

namespace cgc::plan {

/// Priority-scheme what-ifs applied to the generated workload before
/// simulation (the paper's Section II priorities are 1..12).
enum class PriorityRemap : std::uint8_t {
  kNone = 0,     ///< keep the model's calibrated priorities
  kFlatten = 1,  ///< squash every task to one mid priority (no tiers)
  kInvert = 2,   ///< reverse the ladder (priority p -> 13 - p)
};

/// Short stable name of a remap ("none", "flatten", "invert").
std::string_view remap_name(PriorityRemap remap);

/// One workload source in a scenario's mix: a gen::WorkloadModel name
/// and its share of the fleet-scaled load.
struct WorkloadComponent {
  /// Model name accepted by gen::make_workload_model() ("google",
  /// "auvergrid", ...).
  std::string model = "google";
  /// Load share in (0, 1]: the component's task stream is generated at
  /// the rate the model would use for weight * fleet machines.
  double weight = 1.0;
};

/// Everything one simulated what-if run depends on. Axis fields first
/// (what matrices expand), then scoring/cost knobs. Two specs with the
/// same key() are the same scenario by construction.
struct ScenarioSpec {
  /// Machines in the simulated park.
  std::size_t fleet = 64;
  /// Simulation horizon (exclusive), seconds.
  util::TimeSec horizon = util::kSecondsPerDay;
  /// Workload mix (non-empty; weights need not sum to 1 — each
  /// component scales independently, so 2x load is expressible).
  std::vector<WorkloadComponent> workload{WorkloadComponent{}};
  /// Machine-park heterogeneity: fraction of the fleet drawn from the
  /// Google heterogeneous capacity groups; the rest are uniform grid
  /// nodes. 1 = pure Cloud park, 0 = pure Grid cluster. Cross-replays
  /// are this knob: a grid workload with hetero_mix = 1 is
  /// Grid-on-Cloud, a google workload with hetero_mix = 0 is
  /// Cloud-on-Grid.
  double hetero_mix = 1.0;
  /// Scheduler preemption (SimConfig::preemption).
  bool preemption = true;
  /// Priority-scheme what-if (see PriorityRemap).
  PriorityRemap remap = PriorityRemap::kNone;
  /// Machine-selection policy (SimConfig::placement).
  sim::PlacementPolicy placement = sim::PlacementPolicy::kBalanced;
  /// Consolidation target: planning windows are sized so the packed
  /// fleet would run at this utilization.
  double target_utilization = 0.75;
  /// Linear cost model: dollars per machine-hour of provisioned fleet.
  double cost_per_machine_hour = 0.04;
  /// Queue-wait SLO (seconds): a placement attains the SLO when its
  /// pending wait lands within this bound.
  double slo_wait_s = 300.0;
  /// Root seed for the scenario's generators and simulator.
  std::uint64_t seed = 42;

  /// Canonical axis string — the hash input of scenario_id() and the
  /// matrix digest. Field order and float formatting are frozen;
  /// changing either re-ids every scenario (strands old shard dirs,
  /// like changing sweep::stable_case_hash would).
  std::string key() const;
};

/// Stable scenario identifier: "s" + 16 hex digits of
/// sweep::stable_case_hash(spec.key()). Pure in the spec; independent
/// of matrix position, thread count and process.
std::string scenario_id(const ScenarioSpec& spec);

}  // namespace cgc::plan
