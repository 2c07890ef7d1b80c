#include "crypto/dh.h"

#include <stdexcept>

namespace crypto {

uint64_t mod_mul(uint64_t a, uint64_t b, uint64_t m) {
  return static_cast<uint64_t>(
      static_cast<unsigned __int128>(a) * b % m);
}

uint64_t mod_pow(uint64_t base, uint64_t exp, uint64_t m) {
  uint64_t result = 1;
  base %= m;
  while (exp > 0) {
    if (exp & 1) result = mod_mul(result, base, m);
    base = mod_mul(base, base, m);
    exp >>= 1;
  }
  return result;
}

DhKeyPair dh_generate(uint64_t secret_seed) {
  // Clamp the secret into [2, p-2].
  uint64_t secret = secret_seed % (kDhPrime - 3) + 2;
  return {secret, mod_pow(kDhGenerator, secret, kDhPrime)};
}

uint64_t dh_shared(uint64_t secret, uint64_t peer_public) {
  if (!dh_public_valid(peer_public))
    throw std::invalid_argument("dh_shared: invalid peer public value");
  return mod_pow(peer_public, secret, kDhPrime);
}

bool dh_public_valid(uint64_t peer_public) {
  return peer_public > 1 && peer_public < kDhPrime;
}

std::vector<uint8_t> dh_encode(uint64_t v) {
  std::vector<uint8_t> out(8);
  for (int i = 0; i < 8; ++i)
    out[static_cast<size_t>(i)] = static_cast<uint8_t>(v >> (8 * (7 - i)));
  return out;
}

uint64_t dh_decode(std::span<const uint8_t> bytes) {
  if (bytes.size() != 8)
    throw std::invalid_argument("dh_decode: expected 8 bytes");
  uint64_t v = 0;
  for (uint8_t b : bytes) v = v << 8 | b;
  return v;
}

}  // namespace crypto
