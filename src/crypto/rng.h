// Deterministic random number generation (splitmix64 seeding +
// xoshiro256** stream). Every stochastic choice in the repository --
// population synthesis, connection IDs, scan ordering -- draws from a
// seeded Rng so that all benches and tests are exactly reproducible.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace crypto {

uint64_t splitmix64(uint64_t& state);

/// FNV-1a 64 over `text`: a stable key for deterministic draws, the
/// same on every platform and standard library, unlike std::hash.
uint64_t fnv1a64(std::string_view text);

/// xoshiro256** PRNG. Not cryptographic; deterministic by design.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  uint64_t next();

  /// Uniform in [0, bound) using rejection sampling (bound > 0).
  uint64_t below(uint64_t bound);

  /// Uniform in [lo, hi] inclusive.
  uint64_t range(uint64_t lo, uint64_t hi);

  /// Uniform double in [0, 1).
  double uniform();

  /// Bernoulli trial.
  bool chance(double p) { return uniform() < p; }

  std::vector<uint8_t> bytes(size_t n);
  /// Fills `out` with exactly the bytes bytes(out.size()) would return,
  /// drawing the same words from the stream.
  void fill(std::span<uint8_t> out);

  /// Derives an independent child stream (for per-subsystem determinism
  /// that does not depend on call ordering elsewhere).
  Rng fork(std::string_view label);

  /// Pick an index according to non-negative weights (sum > 0).
  size_t weighted(std::span<const double> weights);

 private:
  std::array<uint64_t, 4> s_{};
};

}  // namespace crypto
