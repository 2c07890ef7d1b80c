#include "crypto/rng.h"

#include <bit>
#include <stdexcept>

#include "crypto/sha256.h"

namespace crypto {

uint64_t splitmix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t fnv1a64(std::string_view text) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : text) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& w : s_) w = splitmix64(sm);
}

uint64_t Rng::next() {
  uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
  uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = std::rotl(s_[3], 45);
  return result;
}

uint64_t Rng::below(uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("Rng::below: bound must be > 0");
  // Rejection sampling to avoid modulo bias.
  uint64_t threshold = -bound % bound;
  for (;;) {
    uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

uint64_t Rng::range(uint64_t lo, uint64_t hi) {
  return lo + below(hi - lo + 1);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::vector<uint8_t> Rng::bytes(size_t n) {
  std::vector<uint8_t> out(n);
  fill(out);
  return out;
}

void Rng::fill(std::span<uint8_t> out) {
  size_t i = 0;
  while (i < out.size()) {
    uint64_t r = next();
    for (int b = 0; b < 8 && i < out.size(); ++b, ++i)
      out[i] = static_cast<uint8_t>(r >> (8 * b));
  }
}

Rng Rng::fork(std::string_view label) {
  // Mix the parent state with the label through SHA-256 so sibling
  // streams are independent regardless of draw order.
  std::array<uint8_t, 32> state_bytes;
  for (size_t w = 0; w < s_.size(); ++w)
    for (size_t i = 0; i < 8; ++i)
      state_bytes[8 * w + i] = static_cast<uint8_t>(s_[w] >> (8 * i));
  Sha256 hash;
  hash.update(state_bytes);
  hash.update({reinterpret_cast<const uint8_t*>(label.data()), label.size()});
  const auto digest = hash.final();
  uint64_t seed = 0;
  for (int i = 0; i < 8; ++i) seed = seed << 8 | digest[static_cast<size_t>(i)];
  return Rng(seed);
}

size_t Rng::weighted(std::span<const double> weights) {
  double total = 0;
  for (double w : weights) total += w;
  if (total <= 0) throw std::invalid_argument("Rng::weighted: weights sum to 0");
  double x = uniform() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0) return i;
  }
  return weights.size() - 1;
}

}  // namespace crypto
