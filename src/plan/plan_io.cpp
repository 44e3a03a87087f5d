#include "plan/plan_io.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace cgc::plan {

namespace json = util::json;

namespace {

/// printf %.10g: plan.json's display precision, deterministic because
/// the input doubles are bit-identical however the run was executed.
std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string workload_str(const ScenarioSpec& spec) {
  std::string out;
  for (std::size_t i = 0; i < spec.workload.size(); ++i) {
    if (i > 0) {
      out += '+';
    }
    out += spec.workload[i].model + ":" + fmt(spec.workload[i].weight);
  }
  return out;
}

/// The scored results in $/SLO ranking order: defined costs
/// ascending, undefined last, ids breaking ties so the order is total.
std::vector<const ScenarioResult*> rank_by_cost(
    const std::vector<ScenarioResult>& results) {
  std::vector<const ScenarioResult*> ranked;
  for (const ScenarioResult& r : results) {
    if (r.ok) {
      ranked.push_back(&r);
    }
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const ScenarioResult* a, const ScenarioResult* b) {
              const double ca = a->score.usd_per_slo;
              const double cb = b->score.usd_per_slo;
              if ((ca >= 0.0) != (cb >= 0.0)) {
                return ca >= 0.0;
              }
              if (ca >= 0.0 && ca != cb) {
                return ca < cb;
              }
              return a->id < b->id;
            });
  return ranked;
}

}  // namespace

std::string render_plan_json(const ScenarioMatrix& matrix,
                             const std::vector<ScenarioResult>& results) {
  if (results.size() != matrix.scenarios.size()) {
    throw util::FatalError("render_plan_json needs the full matrix (" +
                           std::to_string(matrix.scenarios.size()) +
                           " scenarios, got " +
                           std::to_string(results.size()) + ")");
  }
  char digest_hex[20];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016" PRIx64,
                matrix.digest());

  std::string out;
  out.reserve(512 + results.size() * 700);
  out += "{\n";
  out += "  \"matrix\": {\"name\": \"" + json::escape(matrix.name) +
         "\", \"digest\": \"" + digest_hex + "\", \"scenarios\": " +
         std::to_string(matrix.scenarios.size()) + "},\n";

  out += "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    const ScenarioSpec& s = r.spec;
    out += "    {\"id\": \"" + r.id + "\", \"fleet\": " +
           std::to_string(s.fleet) + ", \"horizon_s\": " +
           std::to_string(s.horizon) + ", \"workload\": \"" +
           workload_str(s) + "\", \"hetero_mix\": " + fmt(s.hetero_mix) +
           ", \"preemption\": " + (s.preemption ? "true" : "false") +
           ", \"remap\": \"" + std::string(remap_name(s.remap)) +
           "\", \"placement\": \"" +
           std::string(sim::placement_name(s.placement)) +
           "\", \"target_utilization\": " + fmt(s.target_utilization) +
           ", \"cost_per_machine_hour\": " + fmt(s.cost_per_machine_hour) +
           ", \"slo_wait_s\": " + fmt(s.slo_wait_s) +
           ", \"seed\": " + std::to_string(s.seed) + ", \"ok\": " +
           (r.ok ? "true" : "false");
    if (r.ok) {
      out += ", \"score\": " + score_json(r.score, 10);
    } else {
      out += ", \"error\": \"" + json::escape(r.error) + "\"";
    }
    out += i + 1 < results.size() ? "},\n" : "}\n";
  }
  out += "  ],\n";

  // Frontier over the scenarios that produced a score, ids in matrix
  // order (pareto_frontier preserves input order).
  std::vector<ScenarioScore> ok_scores;
  std::vector<std::size_t> ok_index;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].ok) {
      ok_scores.push_back(results[i].score);
      ok_index.push_back(i);
    }
  }
  const std::vector<std::size_t> frontier = pareto_frontier(ok_scores);
  out += "  \"frontier\": [";
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += "\"" + results[ok_index[frontier[i]]].id + "\"";
  }
  out += "],\n";

  const std::vector<const ScenarioResult*> rank = rank_by_cost(results);
  out += "  \"ranking\": [\n";
  for (std::size_t i = 0; i < rank.size(); ++i) {
    const ScenarioResult& r = *rank[i];
    out += "    {\"id\": \"" + r.id + "\", \"usd_per_slo\": " +
           fmt(r.score.usd_per_slo) + ", \"consolidated_cost_usd\": " +
           fmt(r.score.consolidated_cost_usd) + ", \"slo_attainment\": " +
           fmt(r.score.slo_attainment) + ", \"machines_needed\": " +
           fmt(r.score.machines_needed) + "}";
    out += i + 1 < rank.size() ? ",\n" : "\n";
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

std::string render_comparison_table(
    const std::vector<ScenarioResult>& results, std::size_t top_n) {
  std::vector<const ScenarioResult*> ranked = rank_by_cost(results);
  if (top_n > 0 && ranked.size() > top_n) {
    ranked.resize(top_n);
  }
  util::AsciiTable table({"rank", "scenario", "workload", "fleet", "place",
                          "preempt", "$/SLO cpu-h", "SLO att.", "cpu util",
                          "machines needed"});
  table.set_caption("scenario comparison, best $/SLO first");
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    const ScenarioResult& r = *ranked[i];
    table.add_row({std::to_string(i + 1), r.id, workload_str(r.spec),
                   std::to_string(r.spec.fleet),
                   std::string(sim::placement_name(r.spec.placement)),
                   r.spec.preemption ? "yes" : "no",
                   r.score.usd_per_slo < 0.0
                       ? std::string("n/a")
                       : util::cell(r.score.usd_per_slo, 4),
                   util::cell_pct(r.score.slo_attainment),
                   util::cell_pct(r.score.cpu_util_mean),
                   util::cell(r.score.machines_needed, 4)});
  }
  return table.render();
}

}  // namespace cgc::plan
