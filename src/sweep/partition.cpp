#include "sweep/partition.hpp"

#include <cstdio>

#include "util/check.hpp"
#include "util/hash.hpp"

namespace cgc::sweep {

std::string ShardSpec::str() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%d/%d", index, total);
  return buf;
}

ShardSpec parse_shard_spec(const std::string& spec) {
  int index = -1;
  int total = -1;
  char trailing = '\0';
  const int fields =
      std::sscanf(spec.c_str(), "%d/%d%c", &index, &total, &trailing);
  if (fields != 2 || index < 0 || total < 1 || index >= total) {
    throw util::FatalError("--shard expects i/N with 0 <= i < N, got \"" +
                           spec + "\"");
  }
  return {index, total};
}

std::uint64_t stable_case_hash(std::string_view case_id) {
  // splitmix64 diffuses the low-entropy tail of short ids so
  // `mod total` sees all 64 bits.
  return util::splitmix64(util::fnv1a(case_id));
}

int shard_of(std::string_view case_id, int total) {
  CGC_CHECK_MSG(total >= 1, "shard_of: total must be >= 1");
  return static_cast<int>(stable_case_hash(case_id) %
                          static_cast<std::uint64_t>(total));
}

bool owns(const ShardSpec& spec, std::string_view case_id) {
  return shard_of(case_id, spec.total) == spec.index;
}

}  // namespace cgc::sweep
