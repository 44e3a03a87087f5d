// The repo's two non-cryptographic hash kernels, once: FNV-1a over
// bytes (digests, case and cache keys) and the splitmix64 mixer
// (counter-based draws, hash-table keys, sharding). Header-only and
// constexpr, so hot loops such as the simulator's placement probes
// inline them.
#pragma once

#include <cstdint>
#include <string_view>

namespace cgc::util {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// One FNV-1a step: folds byte `b` into hash `h`.
constexpr std::uint64_t fnv1a_byte(std::uint64_t h, std::uint8_t b) {
  return (h ^ b) * kFnvPrime;
}

/// FNV-1a of `bytes`, continuing from `h` (the offset basis by default).
constexpr std::uint64_t fnv1a(std::string_view bytes,
                              std::uint64_t h = kFnvOffsetBasis) {
  for (const char c : bytes) {
    h = fnv1a_byte(h, static_cast<std::uint8_t>(c));
  }
  return h;
}

/// The splitmix64 finalizer: an avalanche permutation, so every input
/// bit reaches every output bit.
constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One splitmix64 output for state `z`: add the golden gamma, then
/// finalize. Turns a counter into 64 independent-looking bits.
constexpr std::uint64_t splitmix64(std::uint64_t z) {
  return mix64(z + 0x9e3779b97f4a7c15ULL);
}

}  // namespace cgc::util
