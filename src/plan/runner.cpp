#include "plan/runner.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <unordered_map>

#include "exec/parallel.hpp"
#include "fault/fault.hpp"
#include "gen/workload_model.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/span.hpp"
#include "sweep/ledger.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace cgc::plan {

namespace {

/// Per-component generator seed: a stable hash of (scenario key,
/// component index), so components decorrelate and a scenario's
/// workload never depends on anything outside its spec.
std::uint64_t component_seed(const ScenarioSpec& spec, std::size_t idx) {
  const std::uint64_t h =
      sweep::stable_case_hash(spec.key() + "|component|" +
                              std::to_string(idx));
  return h == 0 ? 1 : h;  // 0 means "keep the model default"; avoid it
}

std::uint8_t remap_priority(PriorityRemap remap, std::uint8_t priority) {
  switch (remap) {
    case PriorityRemap::kNone:
      return priority;
    case PriorityRemap::kFlatten:
      return 5;  // one mid tier: no preemption ladder left
    case PriorityRemap::kInvert:
      return static_cast<std::uint8_t>(13 - priority);
  }
  return priority;
}

/// Scenarios per checkpoint rewrite: one atomic rewrite per 64 results.
constexpr std::size_t kCheckpointBatch = 64;

/// The experiment identity a matrix's checkpoints are stamped with.
std::string experiment_of(const ScenarioMatrix& matrix) {
  return "matrix " + std::to_string(matrix.digest());
}

/// A result's checkpoint record: its verdict, and its score at 17
/// digits (bit-exact) or its error.
std::string encode_result(const ScenarioResult& r) {
  return r.ok ? "{\"ok\": true, \"score\": " + score_json(r.score, 17) + "}"
              : "{\"ok\": false, \"error\": \"" +
                    util::json::escape(r.error) + "\"}";
}

/// Reads shard checkpoint `path` as a ledger input, decoding its
/// records into `*results` (ids set, specs left to the caller). A
/// record that does not decode makes the checkpoint torn.
sweep::LedgerInput read_shard(const std::string& path,
                              std::vector<ScenarioResult>* results) {
  std::vector<util::json::Value> records;
  sweep::LedgerInput input = sweep::read_checkpoint(path, &records);
  results->assign(records.size(), ScenarioResult{});
  for (std::size_t i = 0; i < records.size(); ++i) {
    ScenarioResult& r = (*results)[i];
    const util::json::Value* score = records[i].find("score");
    r.id = input.ids[i];
    if (!records[i].get("ok", &r.ok) ||
        !(r.ok ? score != nullptr && parse_score(*score, &r.score)
               : records[i].get("error", &r.error))) {
      input.status = util::ReadStatus::kCorrupt;
    }
  }
  return input;
}

}  // namespace

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  ScenarioResult result;
  result.spec = spec;
  result.id = scenario_id(spec);
  obs::ScopedTimer timer("plan.scenario_ns");
  // Deterministic injection point for crash/retry tests: keyed on the
  // scenario id hash, so which scenarios fail is independent of thread
  // count, shard layout and execution order.
  fault::maybe_throw("plan.scenario_fail",
                     sweep::stable_case_hash(result.id),
                     fault::ErrorKind::kTransient);
  CGC_CHECK_MSG(spec.fleet > 0, "scenario fleet must be non-empty");
  CGC_CHECK_MSG(spec.horizon > 0, "scenario horizon must be positive");
  CGC_CHECK_MSG(spec.hetero_mix >= 0.0 && spec.hetero_mix <= 1.0,
                "hetero_mix must be in [0, 1]");

  // Machine park: hetero_mix of the fleet from the Google heterogeneous
  // capacity groups, the rest uniform grid nodes (all grid presets
  // build identical 1.0/1.0 nodes; auvergrid stands in for them).
  const std::size_t n_cloud = static_cast<std::size_t>(
      std::llround(spec.hetero_mix * static_cast<double>(spec.fleet)));
  const std::size_t n_grid = spec.fleet - n_cloud;
  std::vector<trace::Machine> machines;
  machines.reserve(spec.fleet);
  if (n_cloud > 0) {
    auto cloud = gen::make_workload_model("google", spec.seed);
    auto park = cloud->make_machines(n_cloud);
    machines.insert(machines.end(), park.begin(), park.end());
  }
  if (n_grid > 0) {
    auto grid = gen::make_workload_model("auvergrid", spec.seed);
    auto nodes = grid->make_machines(n_grid);
    machines.insert(machines.end(), nodes.begin(), nodes.end());
  }
  // Re-id the composed park: each model numbers its own machines from
  // 1, which would collide.
  for (std::size_t i = 0; i < machines.size(); ++i) {
    machines[i].machine_id = static_cast<std::int64_t>(i + 1);
  }

  // Workload: each component generated at the rate its model would use
  // for weight * fleet machines, job ids offset per component, merged
  // by (submit, job, task) so the stream is one deterministic sequence.
  sim::SimConfig sim_config;
  bool pure_grid = spec.hetero_mix == 0.0;
  std::vector<sim::Workload> parts;
  parts.reserve(spec.workload.size());
  std::size_t total = 0;
  for (std::size_t c = 0; c < spec.workload.size(); ++c) {
    const WorkloadComponent& component = spec.workload[c];
    CGC_CHECK_MSG(component.weight > 0.0,
                  "workload component weight must be positive");
    auto model =
        gen::make_workload_model(component.model, component_seed(spec, c));
    if (model->name() == "google") {
      pure_grid = false;
    } else if (pure_grid && c == 0) {
      // A pure grid cluster simulates with grid dynamics (no
      // preemption default, steady hosts); spec fields still override
      // below, so the preemption axis stays honest.
      model->apply_sim_defaults(&sim_config);
    }
    const std::size_t scaled = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(
               component.weight * static_cast<double>(spec.fleet))));
    sim::Workload part = model->generate_sim_workload(spec.horizon, scaled);
    const std::int64_t job_offset = static_cast<std::int64_t>(c) << 40;
    for (sim::TaskSpec& task : part) {
      task.job_id += job_offset;
      if (spec.remap != PriorityRemap::kNone) {
        task.priority = remap_priority(spec.remap, task.priority);
      }
    }
    total += part.size();
    parts.push_back(std::move(part));
  }
  // Merge reserved once; a one-component workload is taken as is.
  sim::Workload workload;
  if (parts.size() == 1) {
    workload = std::move(parts.front());
  } else {
    workload.reserve(total);
    for (sim::Workload& part : parts) {
      workload.insert(workload.end(), part.begin(), part.end());
      sim::Workload().swap(part);
    }
  }
  std::sort(workload.begin(), workload.end(),
            [](const sim::TaskSpec& a, const sim::TaskSpec& b) {
              if (a.submit_time != b.submit_time) {
                return a.submit_time < b.submit_time;
              }
              if (a.job_id != b.job_id) {
                return a.job_id < b.job_id;
              }
              return a.task_index < b.task_index;
            });

  // Fast path: planning reads host-load samples and SimStats only.
  sim_config.horizon = spec.horizon;
  sim_config.placement = spec.placement;
  sim_config.preemption = spec.preemption;
  sim_config.record_events = false;
  sim_config.record_tasks = false;
  sim_config.record_host_load = true;
  sim_config.seed = spec.seed;

  sim::ClusterSim sim(std::move(machines), sim_config);
  const trace::TraceSet trace = sim.run(workload, "plan-" + result.id);
  result.score = score_run(spec, trace, sim.stats());
  result.ok = true;
  if (obs::metrics_enabled()) {
    static obs::Counter& scenarios = obs::counter("plan.scenarios");
    scenarios.add(1);
  }
  return result;
}

PlanRunner::PlanRunner(ScenarioMatrix matrix, PlanConfig config)
    : matrix_(std::move(matrix)), config_(std::move(config)) {
  for (std::size_t i = 0; i < matrix_.scenarios.size(); ++i) {
    if (sweep::owns(config_.shard, scenario_id(matrix_.scenarios[i]))) {
      owned_.push_back(i);
    }
  }
}

std::vector<ScenarioResult> PlanRunner::run() {
  resumed_ = 0;
  std::unordered_map<std::string, ScenarioResult> done;

  const bool checkpointing = !config_.out_dir.empty();
  const std::string path = checkpoint_path(config_.out_dir, config_.shard);
  sweep::Stamp stamp;
  stamp.experiment = experiment_of(matrix_);
  stamp.shard = config_.shard;
  if (checkpointing) {
    std::filesystem::create_directories(config_.out_dir);
  }
  if (checkpointing && config_.resume) {
    std::vector<ScenarioResult> prev;
    if (sweep::resume(read_shard(path, &prev), stamp)) {
      for (ScenarioResult& r : prev) {
        if (r.ok) {  // failed scenarios are retried, not resumed
          done.emplace(r.id, std::move(r));
        }
      }
      resumed_ = done.size();
    }
  }

  std::vector<std::size_t> pending;
  for (const std::size_t idx : owned_) {
    if (done.find(scenario_id(matrix_.scenarios[idx])) == done.end()) {
      pending.push_back(idx);
    }
  }

  // Rewrites the shard's sealed checkpoint: every finished owned
  // scenario, in matrix order.
  const auto checkpoint = [&](bool complete) {
    stamp.complete = complete;
    std::vector<std::string> ids;
    std::vector<std::string> records;
    for (const std::size_t idx : owned_) {
      std::string id = scenario_id(matrix_.scenarios[idx]);
      const auto it = done.find(id);
      if (it != done.end()) {
        records.push_back(encode_result(it->second));
        ids.push_back(std::move(id));
      }
    }
    sweep::write_checkpoint(path, stamp, ids, records);
  };

  for (std::size_t start = 0; start < pending.size();
       start += kCheckpointBatch) {
    const std::size_t count =
        std::min(kCheckpointBatch, pending.size() - start);
    // parallel_map returns results in index order — the batch's outcome
    // is independent of CGC_THREADS by construction.
    std::vector<ScenarioResult> batch =
        exec::parallel_map<ScenarioResult>(count, [&](std::size_t i) {
          const ScenarioSpec& spec =
              matrix_.scenarios[pending[start + i]];
          const auto failed = [&spec](const char* kind,
                                      const std::exception& e) {
            ScenarioResult r;
            r.spec = spec;
            r.id = scenario_id(spec);
            r.error = kind + std::string(e.what());
            return r;
          };
          try {
            return run_scenario(spec);
          } catch (const util::TransientError& e) {
            return failed("transient: ", e);
          } catch (const util::DataError& e) {
            return failed("data: ", e);
          }
        },
        /*grain=*/1);  // scenarios are seconds each; never batch them
    for (ScenarioResult& r : batch) {
      done.emplace(r.id, std::move(r));
    }
    if (checkpointing) {
      checkpoint(start + count >= pending.size());
    }
  }
  if (checkpointing && pending.empty()) {
    // Nothing ran (fully resumed shard): still reseal as complete so a
    // later --merge sees a finished shard.
    checkpoint(true);
  }

  // Every owned scenario is done now; resumed ones get their spec back.
  std::vector<ScenarioResult> results;
  results.reserve(owned_.size());
  for (const std::size_t idx : owned_) {
    ScenarioResult& r = done.at(scenario_id(matrix_.scenarios[idx]));
    r.spec = matrix_.scenarios[idx];
    results.push_back(std::move(r));
  }
  return results;
}

std::string checkpoint_path(const std::string& out_dir,
                            const sweep::ShardSpec& spec) {
  return out_dir + "/plan-shard-" + std::to_string(spec.index) + "-of-" +
         std::to_string(spec.total) + ".cgcp";
}

std::vector<ScenarioResult> merge_checkpoints(const ScenarioMatrix& matrix,
                                              const std::string& out_dir) {
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(out_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("plan-shard-") && name.ends_with(".cgcp")) {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());  // a stable merge input order

  std::vector<std::vector<ScenarioResult>> shards(paths.size());
  std::vector<sweep::LedgerInput> inputs;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    inputs.push_back(read_shard(paths[i], &shards[i]));
  }
  sweep::MergePolicy policy;
  policy.noun = "scenario";
  policy.experiment = experiment_of(matrix);
  for (const ScenarioSpec& spec : matrix.scenarios) {
    policy.universe.push_back(scenario_id(spec));
  }
  const sweep::Claims claims = sweep::claim(inputs, policy);

  // Without allow_partial the ledger has claimed every scenario.
  std::vector<ScenarioResult> all;
  all.reserve(matrix.scenarios.size());
  for (std::size_t u = 0; u < claims.items.size(); ++u) {
    const sweep::Claim& c = claims.items[u];
    all.push_back(std::move(shards[c.input][c.index]));
    all.back().spec = matrix.scenarios[u];
  }
  return all;
}

}  // namespace cgc::plan
