// Shared CGCS trace-memo cache with lease-based single-writer locking.
//
// Concurrent shard workers want the same standard traces (the bench
// memo's google/grid workloads and host-loads). Without coordination,
// N shards either regenerate the same trace N times or — worse — race
// non-atomic writes into the same cache path and tear each other's
// files. This layer makes the on-disk memo safe to share:
//
//   entry file   <base>.cgcs            published atomically (rename)
//   builder lock <base>.cgcs.lock       flock lease (see lease.hpp)
//   staging      <base>.cgcs.tmp.<pid>  never read by anyone else
//
// Readers only ever see the published file or nothing. A builder that
// dies mid-write leaves staging litter and a free lock; the next
// arrival acquires the lock, sweeps the litter, and builds. Entries
// are keyed by a hash of the generator's canonical config string, so a
// config change is a new entry rather than a silently stale hit.
//
// Determinism note: after publishing, the builder *reloads* the trace
// from the published file and returns that. Every process — builder or
// reader — therefore observes the same bytes, which is what lets a
// sharded sweep's merged .dat outputs be byte-identical to a
// single-process run (CGCS round-trips are lossless; see store tests).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "store/reader.hpp"
#include "trace/trace_set.hpp"

namespace cgc::sweep {

/// Stable 64-bit hash of a generator's canonical config string
/// (same FNV-1a/splitmix64 construction as the case partitioner).
std::uint64_t config_hash(std::string_view canonical_config);

/// config_hash() as 16 lowercase hex digits — the cache-key suffix.
std::string config_hash_hex(std::string_view canonical_config);

/// One load-or-build through the shared cache.
struct CacheResult {
  trace::TraceSet trace;
  bool built = false;      ///< this process ran the builder
  bool waited = false;     ///< blocked on another builder's lock
  store::DamageReport damage;  ///< damage absorbed on a degraded load
};

/// Loads `<base>.cgcs`, or builds it (single writer) and loads the
/// published result. `build` runs at most once per process and only
/// under the builder lock. Unreadable cache files are discarded and
/// rebuilt; chunk-level damage is absorbed (kQuarantine) and reported
/// in CacheResult::damage. Throws cgc::util::TransientError when
/// another builder holds the lock for longer than
/// CGC_CACHE_WAIT (seconds, default 600).
CacheResult load_or_build_cgcs(const std::string& base,
                               const std::function<trace::TraceSet()>& build);

/// Result of a cache-directory audit (cgc_fsck --cache).
struct CacheAudit {
  std::size_t entries = 0;        ///< .cgcs files seen
  std::size_t entries_clean = 0;  ///< ... with every chunk verifying
  std::size_t stale_locks = 0;    ///< .lock files with a dead holder
  std::size_t tmp_litter = 0;     ///< orphaned staging files
  std::vector<store::AuditIssue> issues;  ///< fatal: entry unusable

  bool clean() const { return issues.empty(); }
};

/// Audits a shared cache dir: verifies every chunk of every .cgcs
/// entry, flags staging litter and builder locks whose holder died.
/// Live locks (builder still running) are reported as informational
/// issues only when `flag_live_locks` is set.
CacheAudit verify_cache(const std::string& dir, bool flag_live_locks = false);

}  // namespace cgc::sweep
