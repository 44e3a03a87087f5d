// Deterministic random-number generation.
//
// All stochastic components of the library (workload generators, the
// simulator's failure injection, samplers in cgc::stats) draw from an
// explicitly-seeded Rng so that every experiment is reproducible from a
// single seed. Rng is cheap to copy-construct via split(), which derives
// an independent stream — used to give each thread/shard its own stream
// without locking (Core Guidelines CP.3: minimize shared mutable state).
#pragma once

#include <cstdint>
#include <random>

#include "util/hash.hpp"
#include "util/mutex.hpp"

namespace cgc::util {

namespace detail {

/// Serializes Poisson draws. std::poisson_distribution calls lgamma to
/// set up and to draw, and glibc's lgamma writes the process-global
/// `signgam`, so two threads drawing from their own Rng still race on
/// it. The lock orders only that write; no drawn value depends on it.
inline Mutex& lgamma_mutex() {
  static Mutex mutex;
  return mutex;
}

}  // namespace detail

/// Seedable PRNG wrapper around std::mt19937_64 with convenience draws.
class Rng {
 public:
  /// Seeds the engine; the default is the splitmix64 golden gamma.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) : engine_(seed) {}

  /// Underlying engine, for use with std:: distributions.
  std::mt19937_64& engine() { return engine_; }

  /// Uniform double in [0, 1).
  double uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Standard normal draw.
  double normal() {
    return std::normal_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Normal with given mean/stddev.
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Exponential with given rate (mean 1/rate).
  double exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Bernoulli draw with success probability p.
  bool bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Poisson draw with given mean. Safe to call from several threads on
  /// distinct Rngs (see detail::lgamma_mutex).
  std::int64_t poisson(double mean) {
    MutexLock lock(detail::lgamma_mutex());
    return std::poisson_distribution<std::int64_t>(mean)(engine_);
  }

  /// Derive an independent stream; deterministic given this Rng's state.
  /// Uses splitmix-style mixing of a fresh 64-bit draw.
  Rng split() {
    return Rng(mix64(engine_()));
  }

 private:
  std::mt19937_64 engine_;
};

}  // namespace cgc::util
