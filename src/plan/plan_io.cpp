#include "plan/plan_io.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <optional>
#include <unordered_map>

#include "store/encoding.hpp"
#include "util/error.hpp"
#include "util/file.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace cgc::plan {

namespace json = util::json;

namespace {

/// printf %g at `digits` significant digits. 17 round-trips a double
/// bit-exactly (checkpoints); 10 is plan.json's display precision,
/// deterministic because the input doubles are bit-identical however
/// the run was executed.
std::string fmt(double v, int digits = 10) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
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

/// The score fields by JSON name, in frozen serialization order.
struct ScoreField {
  const char* name;
  double ScenarioScore::*member;
};
constexpr ScoreField kScoreFields[] = {
    {"cpu_util_mean", &ScenarioScore::cpu_util_mean},
    {"cpu_util_peak", &ScenarioScore::cpu_util_peak},
    {"mem_util_mean", &ScenarioScore::mem_util_mean},
    {"mem_util_peak", &ScenarioScore::mem_util_peak},
    {"eviction_rate", &ScenarioScore::eviction_rate},
    {"wait_p50_s", &ScenarioScore::wait_p50_s},
    {"wait_p90_s", &ScenarioScore::wait_p90_s},
    {"wait_p99_s", &ScenarioScore::wait_p99_s},
    {"wait_mean_s", &ScenarioScore::wait_mean_s},
    {"machines_needed", &ScenarioScore::machines_needed},
    {"headroom", &ScenarioScore::headroom},
    {"machine_hours", &ScenarioScore::machine_hours},
    {"cost_usd", &ScenarioScore::cost_usd},
    {"consolidated_cost_usd", &ScenarioScore::consolidated_cost_usd},
    {"slo_attainment", &ScenarioScore::slo_attainment},
    {"cpu_hours_delivered", &ScenarioScore::cpu_hours_delivered},
    {"usd_per_slo", &ScenarioScore::usd_per_slo},
};

/// JSON object for one score, each field printed at `digits`.
std::string score_json(const ScenarioScore& s, int digits) {
  std::string out = "{";
  for (const ScoreField& f : kScoreFields) {
    if (out.size() > 1) {
      out += ", ";
    }
    out += std::string("\"") + f.name + "\": " + fmt(s.*f.member, digits);
  }
  out += "}";
  return out;
}

/// Size of the "end <8 hex digits>\n" line that seals a checkpoint.
constexpr std::size_t kSealSize = 13;

/// The sealing line of a checkpoint whose body is `content`.
std::string seal(const std::string& content) {
  const std::uint32_t crc = store::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(content.data()),
      content.size()));
  char line[16];
  std::snprintf(line, sizeof(line), "end %08x\n", crc);
  return line;
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

/// Matrix position of every scenario id.
std::unordered_map<std::string, std::size_t> scenario_index(
    const ScenarioMatrix& matrix) {
  std::unordered_map<std::string, std::size_t> index;
  index.reserve(matrix.scenarios.size());
  for (std::size_t i = 0; i < matrix.scenarios.size(); ++i) {
    index.emplace(scenario_id(matrix.scenarios[i]), i);
  }
  return index;
}

/// Reads one checkpointed result row; false when any field is missing.
bool parse_result(const json::Value& row, ScenarioResult* r) {
  if (!row.get("id", &r->id) || !row.get("ok", &r->ok)) {
    return false;
  }
  if (!r->ok) {
    return row.get("error", &r->error);
  }
  const json::Value* score = row.find("score");
  return score != nullptr &&
         std::all_of(std::begin(kScoreFields), std::end(kScoreFields),
                     [&](const ScoreField& f) {
                       return score->get(f.name, &(r->score.*f.member));
                     });
}

}  // namespace

std::string shard_results_path(const std::string& out_dir,
                               const sweep::ShardSpec& spec) {
  return out_dir + "/plan-shard-" + std::to_string(spec.index) + "-of-" +
         std::to_string(spec.total) + ".cgcp";
}

void write_results(const std::string& path, const ShardResults& results) {
  std::string content;
  content.reserve(256 + results.results.size() * 600);
  content += "{\"matrix\": \"" + json::escape(results.matrix_name) +
             "\", \"digest\": " + std::to_string(results.matrix_digest) +
             ",\n";
  content += " \"shard_index\": " + std::to_string(results.shard.index) +
             ", \"shard_total\": " + std::to_string(results.shard.total) +
             ",\n";
  content += std::string(" \"complete\": ") +
             (results.complete ? "true" : "false") + ",\n";
  content += " \"results\": [";
  for (std::size_t i = 0; i < results.results.size(); ++i) {
    const ScenarioResult& r = results.results[i];
    content += i == 0 ? "\n" : ",\n";
    content += "  {\"id\": \"" + json::escape(r.id) + "\", \"ok\": ";
    content += r.ok ? "true, \"score\": " + score_json(r.score, 17)
                    : "false, \"error\": \"" + json::escape(r.error) + "\"";
    content += "}";
  }
  content += "]}\n";
  content += seal(content);
  util::write_file_atomic(path, content);
}

util::ReadStatus read_results(const std::string& path,
                              const ScenarioMatrix& matrix,
                              ShardResults* out) {
  std::string raw;
  if (const util::ReadStatus status = util::read_file(path, &raw);
      status != util::ReadStatus::kOk) {
    return status;
  }
  // The file must end with the seal line over everything before it;
  // anything else is a torn write.
  const std::size_t body = raw.size() - std::min(raw.size(), kSealSize);
  if (raw.compare(body, kSealSize, seal(raw.substr(0, body))) != 0) {
    return util::ReadStatus::kCorrupt;
  }
  const std::optional<json::Value> doc = json::parse(raw.substr(0, body));
  const json::Value* rows = doc ? doc->find("results") : nullptr;
  ShardResults parsed;
  sweep::ShardSpec& shard = parsed.shard;
  if (rows == nullptr || rows->kind != json::Value::Kind::kArray ||
      !doc->get("matrix", &parsed.matrix_name) ||
      !doc->get("digest", &parsed.matrix_digest) ||
      !doc->get("shard_index", &shard.index) ||
      !doc->get("shard_total", &shard.total) || shard.index < 0 ||
      shard.index >= shard.total || !doc->get("complete", &parsed.complete)) {
    return util::ReadStatus::kCorrupt;
  }
  // A sealed checkpoint of a different matrix is not corruption: report
  // kOk with the stamped digest and no results — the caller classifies
  // (DataError on resume/merge). Its ids would not map onto this matrix.
  if (parsed.matrix_digest != matrix.digest()) {
    *out = std::move(parsed);
    return util::ReadStatus::kOk;
  }

  const std::unordered_map<std::string, std::size_t> index =
      scenario_index(matrix);
  std::vector<std::optional<ScenarioResult>> slots(matrix.scenarios.size());
  for (const json::Value& row : rows->items) {
    ScenarioResult r;
    if (!parse_result(row, &r)) {
      return util::ReadStatus::kCorrupt;
    }
    const auto it = index.find(r.id);
    if (it == index.end() || slots[it->second].has_value()) {
      return util::ReadStatus::kCorrupt;  // foreign or duplicate scenario
    }
    r.spec = matrix.scenarios[it->second];
    slots[it->second] = std::move(r);
  }
  for (std::optional<ScenarioResult>& slot : slots) {
    if (slot.has_value()) {
      parsed.results.push_back(std::move(*slot));
    }
  }
  *out = std::move(parsed);
  return util::ReadStatus::kOk;
}

std::vector<ScenarioResult> merge_results(
    const ScenarioMatrix& matrix, const std::vector<ShardResults>& shards) {
  const std::uint64_t digest = matrix.digest();
  std::vector<std::optional<ScenarioResult>> slots(matrix.scenarios.size());
  const std::unordered_map<std::string, std::size_t> index =
      scenario_index(matrix);

  for (const ShardResults& shard : shards) {
    if (shard.matrix_digest != digest) {
      throw util::DataError(
          "merge conflict: shard " + shard.shard.str() +
          " was produced by a different matrix (digest mismatch)");
    }
    if (!shard.complete) {
      throw util::TransientError("shard " + shard.shard.str() +
                                 " is incomplete — rerun it, then merge");
    }
    for (const ScenarioResult& r : shard.results) {
      if (!sweep::owns(shard.shard, r.id)) {
        throw util::DataError("merge conflict: shard " + shard.shard.str() +
                              " reports scenario " + r.id +
                              " it does not own");
      }
      const std::size_t slot = index.at(r.id);
      if (slots[slot].has_value()) {
        throw util::DataError("merge conflict: scenario " + r.id +
                              " appears in more than one shard");
      }
      slots[slot] = r;
    }
  }

  std::vector<ScenarioResult> all;
  all.reserve(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (!slots[i].has_value()) {
      throw util::TransientError(
          "merge incomplete: scenario " +
          scenario_id(matrix.scenarios[i]) +
          " is missing — run its shard, then merge again");
    }
    all.push_back(std::move(*slots[i]));
  }
  return all;
}

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
