// Counter-based randomness for the simulator hot loop.
//
// The legacy core drew every stochastic decision from one sequential
// mt19937_64 stream, which made the draw order — and therefore the
// results — depend on global event-processing order. The paper-scale
// core instead derives every draw from a *counter-based* hash of
// (seed, site salt, stable keys): a pure function with no shared
// state, so a draw is bit-identical no matter which shard, thread, or
// scheduler pass computes it. This is the same determinism discipline
// as cgc::fault (pure in (spec, site, key)) applied to simulation
// randomness, and it is what lets the machine-sharded sampling path
// produce byte-identical host-load series at any CGC_THREADS.
//
// Draw cost is the design driver: a paper-scale month samples ~3.7e9
// per-task jitter factors, so a lognormal draw here is one splitmix64
// hash plus one table lookup (see JitterTable) instead of a
// std::normal_distribution round trip.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

#include "util/hash.hpp"

namespace cgc::sim::rng {

using util::splitmix64;

/// Hash of (seed, salt, key): one splitmix64 chain per argument. `salt`
/// namespaces the draw site so different decisions about the same
/// entity are independent.
constexpr std::uint64_t hash(std::uint64_t seed, std::uint64_t salt,
                             std::uint64_t key) {
  return splitmix64(splitmix64(seed ^ salt) ^ key);
}

/// Hash of (seed, salt, key1, key2) for two-dimensional keys such as
/// (task, sample_index) or (task, attempt).
constexpr std::uint64_t hash2(std::uint64_t seed, std::uint64_t salt,
                              std::uint64_t k1, std::uint64_t k2) {
  return splitmix64(splitmix64(splitmix64(seed ^ salt) ^ k1) ^ k2);
}

/// Uniform double in (0, 1): never exactly 0, so it is safe under log().
inline double to_unit(std::uint64_t h) {
  return (static_cast<double>(h >> 11) + 0.5) * 0x1.0p-53;
}

/// Bernoulli(p) decision from a hash value.
inline bool bernoulli(std::uint64_t h, double p) {
  return to_unit(h) < p;
}

/// Inverse standard-normal CDF (Acklam's rational approximation,
/// |error| < 1.15e-9) — used once per table entry at construction, never
/// in the hot loop.
double inverse_normal_cdf(double p);

/// Precomputed mean-one lognormal jitter factors.
///
/// Table entry i holds exp(sigma * z_i - sigma^2/2) where z_i is the
/// standard-normal quantile at the midpoint of the i-th of kSize equal
/// probability strips. Indexing with kBits hash bits draws from a
/// kSize-point quantile discretization of the target lognormal: the
/// mean is one by construction and the tails are truncated at the
/// +-3.3 sigma strip midpoints — indistinguishable from the continuous
/// draw at the 5-minute sample granularity the analyzers consume, and
/// ~20x cheaper. sigma == 0 collapses the table to all-ones.
class JitterTable {
 public:
  static constexpr int kBits = 10;  ///< index width: table holds 2^kBits entries
  static constexpr std::size_t kSize = std::size_t{1} << kBits;  ///< entry count

  /// Identity table (all factors 1.0) — the sigma == 0 case.
  JitterTable() { table_.fill(1.0f); }
  /// Builds the quantile-midpoint table for lognormal(mu, sigma) with
  /// mu chosen so the table's mean is exactly one.
  explicit JitterTable(double sigma);

  /// Factor selected by the top kBits of a hash value.
  float factor(std::uint64_t h) const {
    return table_[static_cast<std::size_t>(h >> (64 - kBits))];
  }
  /// Factor selected by an explicit index (for a second draw from the
  /// same hash value: pass a different bit slice).
  float at(std::size_t i) const { return table_[i & (kSize - 1)]; }

 private:
  std::array<float, kSize> table_;
};

/// Draw-site salts. Values are arbitrary but frozen: changing one
/// changes every simulated trace, like changing the seed.
inline constexpr std::uint64_t kSaltMachineCpu = 0x6d61636370750001ULL;
inline constexpr std::uint64_t kSaltMachineMem = 0x6d61636d656d0002ULL;
inline constexpr std::uint64_t kSaltCpuSpike = 0x7370696b650a0003ULL;
inline constexpr std::uint64_t kSaltTaskUsage = 0x7461736b75730004ULL;
inline constexpr std::uint64_t kSaltIsolation = 0x69736f6c61740005ULL;
inline constexpr std::uint64_t kSaltResubmit = 0x7265737562000006ULL;
inline constexpr std::uint64_t kSaltProbe = 0x70726f6265000007ULL;
inline constexpr std::uint64_t kSaltRandomPick = 0x72616e64706b0008ULL;

}  // namespace cgc::sim::rng
