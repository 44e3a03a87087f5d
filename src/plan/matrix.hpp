// ScenarioMatrix — axis cross-products of ScenarioSpecs.
//
// A planning run compares hundreds of scenarios; writing them out by
// hand does not scale and invites skew between "what ran" and "what the
// report claims ran". MatrixBuilder expands declared axis values into
// the full cross-product in a frozen axis order, so a matrix is a pure
// function of its axes: same axes -> same scenarios, same order, same
// digest — on every machine, shard and thread count. The digest is the
// handshake between shard workers and --merge: checkpoints stamped with
// different digests are different experiments, and the shard ledger
// (sweep/ledger.hpp) refuses to fuse them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "plan/scenario.hpp"

namespace cgc::plan {

/// A workload axis value: the mix plus the machine-park heterogeneity
/// that goes with it (the two travel together — a pure grid workload on
/// a grid park and its Grid-on-Cloud cross-replay are different axis
/// values, not different axes).
struct WorkloadProfile {
  /// Profile label used in logs ("google", "blend-70-30", ...).
  std::string name;
  /// The mix components (ScenarioSpec::workload).
  std::vector<WorkloadComponent> components;
  /// Park heterogeneity (ScenarioSpec::hetero_mix).
  double hetero_mix = 1.0;
};

/// An expanded scenario matrix: specs in frozen cross-product order.
struct ScenarioMatrix {
  /// Human-readable matrix name ("default", "small", ...).
  std::string name;
  /// Expanded scenarios. Index order is the canonical result order of
  /// every plan artifact.
  std::vector<ScenarioSpec> scenarios;

  /// Stable digest over every scenario key in order (sharding/merge
  /// handshake). Pure in the expanded specs.
  std::uint64_t digest() const;
};

/// Declarative matrix builder. Every axis has a default single value
/// (the ScenarioSpec default), so a builder with no axes set expands to
/// one scenario. Expansion order is frozen: fleets (outermost), then
/// workload profiles, placements, preemptions, remaps, target
/// utilizations (innermost) — changing this order re-orders results
/// everywhere, so don't.
class MatrixBuilder {
 public:
  /// Starts a matrix with the given name and a base spec whose
  /// non-axis fields (horizon, cost, SLO, seed) every expanded
  /// scenario inherits.
  MatrixBuilder(std::string name, ScenarioSpec base);

  /// Sets the fleet-size axis (machine counts).
  MatrixBuilder& fleets(std::vector<std::size_t> values);
  /// Sets the workload axis (mix + park heterogeneity pairs).
  MatrixBuilder& workloads(std::vector<WorkloadProfile> values);
  /// Sets the placement-policy axis.
  MatrixBuilder& placements(std::vector<sim::PlacementPolicy> values);
  /// Sets the preemption axis.
  MatrixBuilder& preemptions(std::vector<bool> values);
  /// Sets the priority-remap axis.
  MatrixBuilder& remaps(std::vector<PriorityRemap> values);
  /// Sets the consolidation-target axis.
  MatrixBuilder& target_utilizations(std::vector<double> values);

  /// Expands the cross-product. Throws util::FatalError if any axis is
  /// empty (an explicitly empty axis is a spec bug, not "default").
  ScenarioMatrix build() const;

 private:
  std::string name_;
  ScenarioSpec base_;
  std::vector<std::size_t> fleets_;
  std::vector<WorkloadProfile> workloads_;
  std::vector<sim::PlacementPolicy> placements_;
  std::vector<bool> preemptions_;
  std::vector<PriorityRemap> remaps_;
  std::vector<double> target_utilizations_;
};

/// The shipping what-if matrix: 4 fleets x 3 workload profiles (pure
/// cloud, pure grid, 70/30 blend) x 4 placements x preemption on/off x
/// 3 remaps x 2 consolidation targets = 576 scenarios over `horizon`.
ScenarioMatrix default_matrix(util::TimeSec horizon);

/// An 8-scenario matrix for tests and CI smoke runs: 1 fleet x 2
/// profiles (cloud-on-cloud and the Grid-on-Cloud cross-replay) x 2
/// placements x preemption on/off.
ScenarioMatrix small_matrix(util::TimeSec horizon);

}  // namespace cgc::plan
