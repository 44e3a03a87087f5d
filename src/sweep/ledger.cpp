#include "sweep/ledger.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "store/encoding.hpp"
#include "util/check.hpp"

namespace cgc::sweep {

namespace json = util::json;

namespace {

/// True when `spec` names a shard that exists: 0 <= index < total.
bool valid(const ShardSpec& spec) {
  return spec.total >= 1 && spec.index >= 0 && spec.index < spec.total;
}

/// Size of the "end <8 hex digits>\n" line that seals a checkpoint.
constexpr std::size_t kSealSize = 13;

/// The sealing line of a checkpoint whose body is `body`.
std::string seal(std::string_view body) {
  const std::uint32_t crc = store::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(body.data()), body.size()));
  char line[16];
  std::snprintf(line, sizeof(line), "end %08x\n", crc);
  return line;
}

}  // namespace

Claims claim(const std::vector<LedgerInput>& inputs,
             const MergePolicy& policy) {
  if (inputs.empty() && !policy.allow_partial) {
    throw util::TransientError("no " + policy.noun +
                               " checkpoints to merge — resumable: run the "
                               "shards, then merge again");
  }
  Claims claims;
  claims.usable.assign(inputs.size(), false);
  const auto unfinished = [&](const LedgerInput& input, const char* what) {
    if (!policy.allow_partial) {
      throw util::TransientError(
          what + (" " + input.path) +
          " — resumable: rerun that shard with --resume, then merge again");
    }
    claims.notes.push_back(what + (" " + input.path) + "; its " +
                           policy.noun + "s degrade to failed");
  };

  // Per input: readable, one experiment, not a merge, owns what it
  // holds, finished.
  std::string experiment = policy.experiment;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const LedgerInput& input = inputs[i];
    const Stamp& stamp = input.stamp;
    if (input.status != util::ReadStatus::kOk || !valid(stamp.shard)) {
      unfinished(input, input.status == util::ReadStatus::kMissing
                            ? "no checkpoint"
                            : "torn checkpoint");
      continue;
    }
    if (experiment.empty()) {
      experiment = stamp.experiment;
    } else if (stamp.experiment != experiment) {
      throw util::DataError(input.path + " is stamped for " +
                            stamp.experiment + ", not " + experiment +
                            " — a different experiment, not mergeable");
    }
    if (stamp.merged) {
      throw util::DataError(input.path +
                            " is the output of a merge — merging merges "
                            "is not meaningful");
    }
    for (const std::string& id : input.ids) {
      if (!owns(stamp.shard, id)) {
        throw util::DataError(
            "partition mismatch: " + input.path + " (stamp " +
            stamp.shard.str() + ") holds " + policy.noun + " " + id +
            ", which hashes to shard " +
            std::to_string(shard_of(id, stamp.shard.total)));
      }
    }
    if (!stamp.complete) {
      unfinished(input, "incomplete shard (complete: false)");
      continue;
    }
    claims.usable[i] = true;
  }

  // Every record of a usable input claims a universe id, each id once,
  // or holds a known id outside the universe and is skipped.
  std::unordered_map<std::string, std::size_t> slot;
  for (std::size_t u = 0; u < policy.universe.size(); ++u) {
    slot.emplace(policy.universe[u], u);
  }
  const std::unordered_set<std::string> known(policy.known.begin(),
                                              policy.known.end());
  claims.items.assign(policy.universe.size(), Claim{});
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    for (std::size_t k = 0; claims.usable[i] && k < inputs[i].ids.size();
         ++k) {
      const std::string& id = inputs[i].ids[k];
      const auto it = slot.find(id);
      if (it == slot.end()) {
        if (known.count(id) != 0) {
          continue;
        }
        throw util::DataError(inputs[i].path + " holds unknown " +
                              policy.noun + " " + id +
                              " — the inputs do not match this merge");
      }
      Claim& c = claims.items[it->second];
      if (c.input != Claim::kNone) {
        throw util::DataError(policy.noun + " " + id + " claimed by both " +
                              inputs[c.input].path + " and " +
                              inputs[i].path + " — overlapping shards");
      }
      c = Claim{i, k};
    }
  }

  // Coverage: an uncovered id is named with its shard under the split
  // the inputs are stamped with, not the number of inputs passed.
  const auto first =
      std::find(claims.usable.begin(), claims.usable.end(), true);
  const int total = first == claims.usable.end()
                        ? 1
                        : inputs[first - claims.usable.begin()]
                              .stamp.shard.total;
  for (std::size_t u = 0; u < policy.universe.size(); ++u) {
    if (claims.items[u].input == Claim::kNone && !policy.allow_partial) {
      const std::string& id = policy.universe[u];
      throw util::TransientError(
          policy.noun + " " + id + " (shard " +
          std::to_string(shard_of(id, total)) + " of a " +
          std::to_string(total) +
          "-way split) appears in no input — resumable: run that shard, "
          "then merge again");
    }
  }
  return claims;
}

bool resume(const LedgerInput& found, const Stamp& own) {
  const Stamp& stamp = found.stamp;
  if (found.status == util::ReadStatus::kMissing) {
    return false;
  }
  if (found.status == util::ReadStatus::kCorrupt || !valid(stamp.shard)) {
    const std::string aside = found.path + ".corrupt";
    std::error_code ec;
    std::filesystem::rename(found.path, aside, ec);
    if (ec) {
      throw util::TransientError("resume: cannot move torn checkpoint " +
                                 found.path + " aside: " + ec.message());
    }
    std::fprintf(stderr,
                 "resume: torn checkpoint %s moved to %s; rerunning its "
                 "items\n",
                 found.path.c_str(), aside.c_str());
    return false;
  }
  if (stamp.experiment != own.experiment) {
    throw util::DataError("resume: " + found.path + " is stamped for " +
                          stamp.experiment + ", not " + own.experiment +
                          " — remove it or write elsewhere");
  }
  if (stamp.shard.index != own.shard.index ||
      stamp.shard.total != own.shard.total) {
    throw util::DataError("resume: " + found.path +
                          " was written by shard " + stamp.shard.str() +
                          ", not this run's " + own.shard.str() +
                          " — wrong checkpoint dir?");
  }
  return true;
}

void write_checkpoint(const std::string& path, const Stamp& stamp,
                      const std::vector<std::string>& ids,
                      const std::vector<std::string>& records) {
  std::string body = "{\"experiment\": \"" + json::escape(stamp.experiment) +
                     "\", \"shard_index\": " +
                     std::to_string(stamp.shard.index) +
                     ", \"shard_total\": " +
                     std::to_string(stamp.shard.total) + ", \"complete\": " +
                     (stamp.complete ? "true" : "false") + ",\n \"items\": [";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    body += (i == 0 ? "\n  {\"id\": \"" : ",\n  {\"id\": \"") +
            json::escape(ids[i]) + "\", \"record\": " + records[i] + "}";
  }
  body += "]}\n";
  body += seal(body);
  util::write_file_atomic(path, body);
}

LedgerInput read_checkpoint(const std::string& path,
                            std::vector<json::Value>* records) {
  LedgerInput input;
  input.path = path;
  records->clear();
  std::string raw;
  input.status = util::read_file(path, &raw);
  if (input.status != util::ReadStatus::kOk) {
    return input;
  }
  // The file must end with the seal line over everything before it, and
  // the body must hold a stamp and well-formed items; else it is torn.
  input.status = util::ReadStatus::kCorrupt;
  const std::size_t size = raw.size() - std::min(raw.size(), kSealSize);
  const std::string_view body = std::string_view(raw).substr(0, size);
  if (raw.compare(size, kSealSize, seal(body)) != 0) {
    return input;
  }
  const std::optional<json::Value> doc = json::parse(body);
  const json::Value* items = doc ? doc->find("items") : nullptr;
  Stamp& stamp = input.stamp;
  if (items == nullptr || items->kind != json::Value::Kind::kArray ||
      !doc->get("experiment", &stamp.experiment) ||
      !doc->get("shard_index", &stamp.shard.index) ||
      !doc->get("shard_total", &stamp.shard.total) ||
      !doc->get("complete", &stamp.complete)) {
    return input;
  }
  for (const json::Value& item : items->items) {
    std::string id;
    const json::Value* record = item.find("record");
    if (!item.get("id", &id) || record == nullptr) {
      return input;
    }
    input.ids.push_back(std::move(id));
    records->push_back(*record);
  }
  input.status = util::ReadStatus::kOk;
  return input;
}

}  // namespace cgc::sweep
