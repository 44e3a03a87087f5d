// cgc_plan — what-if capacity planning over a scenario matrix.
//
// Expands a declarative scenario matrix (fleet size x workload mix x
// placement x preemption x priority remap x consolidation target),
// simulates every scenario on the fast path, and emits plan.json: every
// score, the Pareto frontier, and the $/SLO ranking. The artifact is
// byte-identical at any CGC_THREADS and across sharded vs
// single-process execution.
//
//   cgc_plan --matrix small --hours 6 --out plan-out
//   cgc_plan --matrix default --shard 0/4 --out plan-out   # worker 0
//   cgc_plan --matrix default --merge --out plan-out       # fuse shards
//
// A sharded run writes only its sealed checkpoint
// (plan-shard-<i>-of-<N>.cgcp); --merge fuses every checkpoint in the
// out directory into the same plan.json a single process would write.
// --resume reuses a matching checkpoint's finished scenarios (failed
// ones are retried; torn checkpoints are quarantined and re-run). Both
// follow the shard ledger's policy (src/sweep/ledger.hpp), the same as
// cgc_report's. --merge takes neither --shard nor --resume.
//
// Exit codes: 0 ok; 1 any scenario failed or a merge input is
// incomplete (rerun the shard, merge again); 2 usage, or checkpoints
// that contradict each other or the run (different matrix digest,
// overlapping ownership, a --resume checkpoint of another shard); 3
// fatal.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "plan/matrix.hpp"
#include "plan/plan_io.hpp"
#include "plan/runner.hpp"
#include "sweep/partition.hpp"
#include "util/args.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/file.hpp"
#include "util/time_util.hpp"

namespace {

using cgc::plan::ScenarioMatrix;
using cgc::plan::ScenarioResult;

/// Builds the requested matrix over `horizon` and applies the
/// scoring-knob overrides (cost, SLO, seed) to every scenario. The
/// caller validates the flags first; the throw here is a backstop for
/// programmer error.
ScenarioMatrix build_matrix(const cgc::util::Args& args,
                            cgc::util::TimeSec horizon) {
  const std::string& name = args.get_string("matrix");
  ScenarioMatrix matrix;
  if (name == "default") {
    matrix = cgc::plan::default_matrix(horizon);
  } else if (name == "small") {
    matrix = cgc::plan::small_matrix(horizon);
  } else {
    throw cgc::util::FatalError("unknown matrix: " + name);
  }
  for (cgc::plan::ScenarioSpec& spec : matrix.scenarios) {
    spec.cost_per_machine_hour = args.get_double("cost");
    spec.slo_wait_s = args.get_double("slo");
    spec.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  }
  return matrix;
}

/// Names each failed scenario on stderr; returns how many failed.
std::size_t report_failures(const std::vector<ScenarioResult>& results) {
  std::size_t failed = 0;
  for (const ScenarioResult& r : results) {
    if (!r.ok) {
      ++failed;
      std::fprintf(stderr, "failed %s: %s\n", r.id.c_str(),
                   r.error.c_str());
    }
  }
  return failed;
}

/// Writes plan.json atomically and prints the ranked comparison.
/// Returns the failed-scenario count.
std::size_t emit_plan(const ScenarioMatrix& matrix,
                      const std::vector<ScenarioResult>& results,
                      const std::string& out_dir, std::size_t top_n) {
  const std::string json = cgc::plan::render_plan_json(matrix, results);
  std::filesystem::create_directories(out_dir);
  const std::string path = out_dir + "/plan.json";
  cgc::util::write_file_atomic(path, json);
  const std::size_t failed = report_failures(results);
  std::printf("%s", cgc::plan::render_comparison_table(results, top_n).c_str());
  std::printf("\nplan: %zu scenarios (%zu failed) -> %s\n",
              results.size(), failed, path.c_str());
  return failed;
}

int run(int argc, char** argv) {
  cgc::util::Args args("cgc_plan",
                       "what-if capacity planning over a scenario matrix");
  args.add_string("matrix", "default",
                  "scenario matrix: default (576 scenarios) or small (8)");
  args.add_double("hours", 6.0, "simulation horizon in hours");
  args.add_double("days", 0.0, "simulation horizon in days (overrides --hours)");
  args.add_string("out", "plan-out",
                  "output directory (plan.json + shard checkpoints)");
  args.add_string("shard", "0/1",
                  "run only this shard's scenarios (i/N); writes the "
                  "checkpoint only");
  args.add_bool("merge", "fuse shard checkpoints in --out into plan.json");
  args.add_bool("resume", "reuse finished scenarios from a matching "
                          "checkpoint; retry failed ones");
  args.add_bool("list", "print the expanded matrix (id + key) and exit");
  args.add_double("cost", 0.04, "dollars per provisioned machine-hour");
  args.add_double("slo", 300.0, "queue-wait SLO bound in seconds");
  args.add_int("seed", 42, "root seed for generators and simulator");
  args.add_int("top", 12, "comparison-table rows (0 = all)");
  args.add_usage_note(
      "Environment: CGC_THREADS (scenario parallelism; the artifact is\n"
      "byte-identical at any value), CGC_METRICS / CGC_TRACE\n"
      "(observability), CGC_FAULT_SPEC (site plan.scenario_fail).");
  args.add_usage_note(
      "Exit codes: 0 ok; 1 scenario failure or incomplete merge input;\n"
      "2 usage, conflicting merge inputs, or a --resume checkpoint of\n"
      "another matrix or shard; 3 fatal.");
  switch (args.parse(argc, argv)) {
    case cgc::util::ParseStatus::kHelp:
      return cgc::util::kExitOk;
    case cgc::util::ParseStatus::kError:
      return cgc::util::kExitUsage;
    case cgc::util::ParseStatus::kOk:
      break;
  }
  // Every value is checked before any work starts: a bad one is a usage
  // error naming the flag, not an engine invariant failing later.
  const auto fail_usage = [&](const std::string& message) {
    std::fprintf(stderr, "%s\n%s", message.c_str(), args.usage().c_str());
    return cgc::util::kExitUsage;
  };
  const auto bad_value = [&](const std::string& flag, double value,
                             const char* want) {
    return fail_usage("--" + flag + " must be " + want + ", got " +
                      cgc::util::format_double(value));
  };
  if (!args.positionals().empty()) {
    return fail_usage("cgc_plan takes no positional arguments");
  }
  const std::string& matrix_name = args.get_string("matrix");
  if (matrix_name != "default" && matrix_name != "small") {
    return fail_usage("unknown matrix: " + matrix_name +
                      " (expected default or small)");
  }
  if (args.get_bool("merge") &&
      (args.provided("shard") || args.get_bool("resume"))) {
    return fail_usage("--merge cannot be combined with --shard or --resume");
  }
  cgc::sweep::ShardSpec shard;
  try {
    shard = cgc::sweep::parse_shard_spec(args.get_string("shard"));
  } catch (const cgc::util::FatalError& e) {
    return fail_usage(e.what());
  }
  // --days overrides --hours.
  const std::string horizon_flag = args.provided("days") ? "days" : "hours";
  const double horizon_s =
      args.get_double(horizon_flag) *
      static_cast<double>(args.provided("days") ? cgc::util::kSecondsPerDay
                                                : cgc::util::kSecondsPerHour);
  if (!(horizon_s >= 1.0)) {
    return bad_value(horizon_flag, args.get_double(horizon_flag),
                     "at least a second");
  }
  for (const char* flag : {"cost", "slo"}) {
    if (!(args.get_double(flag) >= 0.0)) {
      return bad_value(flag, args.get_double(flag), ">= 0");
    }
  }
  if (args.get_int("top") < 0) {
    return fail_usage("--top must be >= 0, got " +
                      std::to_string(args.get_int("top")));
  }

  ScenarioMatrix matrix =
      build_matrix(args, static_cast<cgc::util::TimeSec>(horizon_s));
  const std::string& out_dir = args.get_string("out");
  const auto top_n = static_cast<std::size_t>(args.get_int("top"));

  if (args.get_bool("list")) {
    for (const cgc::plan::ScenarioSpec& spec : matrix.scenarios) {
      std::printf("%s %s\n", cgc::plan::scenario_id(spec).c_str(),
                  spec.key().c_str());
    }
    std::printf("matrix %s: %zu scenarios, digest %016llx\n",
                matrix.name.c_str(), matrix.scenarios.size(),
                static_cast<unsigned long long>(matrix.digest()));
    return cgc::util::kExitOk;
  }

  if (args.get_bool("merge")) {
    try {
      const std::vector<ScenarioResult> results =
          cgc::plan::merge_checkpoints(matrix, out_dir);
      const std::size_t failed = emit_plan(matrix, results, out_dir, top_n);
      return failed == 0 ? cgc::util::kExitOk : cgc::util::kExitFailure;
    } catch (const std::exception& e) {
      // Merge failures follow the ledger's taxonomy: contradictory
      // inputs (foreign digest, overlapping shards) are exit 2 — a
      // human must intervene; torn/incomplete shards are resumable
      // exit 1.
      std::fprintf(stderr, "merge error: %s\n", e.what());
      return cgc::error::merge_exit_code(e);
    }
  }

  cgc::plan::PlanConfig config;
  config.shard = shard;
  config.out_dir = out_dir;
  config.resume = args.get_bool("resume");
  cgc::plan::PlanRunner runner(std::move(matrix), std::move(config));
  const std::vector<ScenarioResult> results = runner.run();

  std::size_t failed = 0;
  if (runner.owned().size() == runner.matrix().scenarios.size()) {
    // Single shard covers the whole matrix: emit the artifact directly.
    failed = emit_plan(runner.matrix(), results, out_dir, top_n);
  } else {
    failed = report_failures(results);
    std::printf("shard %s: %zu/%zu scenarios (%zu resumed, %zu failed) -> %s\n",
                args.get_string("shard").c_str(), results.size(),
                runner.matrix().scenarios.size(), runner.resumed(), failed,
                cgc::plan::checkpoint_path(out_dir, shard).c_str());
  }
  return failed == 0 ? cgc::util::kExitOk : cgc::util::kExitFailure;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    // A DataError escaping the run is the shard ledger refusing a
    // --resume checkpoint of another experiment or shard: exit 2.
    return cgc::error::merge_exit_code(e);
  }
}
