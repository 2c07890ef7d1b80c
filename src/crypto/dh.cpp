#include "crypto/dh.h"

#include <stdexcept>

namespace crypto {

static_assert(kDhPrime == ~uint64_t{0} - 58, "the fold assumes p = 2^64 - 59");

uint64_t mod_mul(uint64_t a, uint64_t b) {
  using u128 = unsigned __int128;
  const u128 product = static_cast<u128>(a) * b;
  // hi * 2^64 + lo = hi * 59 + lo (mod p); the sum is below 60 * 2^64.
  const u128 once = (product >> 64) * 59 + static_cast<uint64_t>(product);
  // Its high word is at most 59, so the second fold adds at most 3 481
  // and can carry past 2^64 at most once; a carry is worth 59 again.
  const uint64_t high = static_cast<uint64_t>(once >> 64) * 59;
  uint64_t r = static_cast<uint64_t>(once) + high;
  if (r < high) r += 59;  // wrapped: r < 3 481, so this cannot wrap
  return r >= kDhPrime ? r - kDhPrime : r;
}

uint64_t mod_pow(uint64_t base, uint64_t exp) {
  uint64_t result = 1;
  if (base >= kDhPrime) base -= kDhPrime;
  while (exp > 0) {
    if (exp & 1) result = mod_mul(result, base);
    base = mod_mul(base, base);
    exp >>= 1;
  }
  return result;
}

DhKeyPair dh_generate(uint64_t secret_seed) {
  // Clamp the secret into [2, p-2].
  uint64_t secret = secret_seed % (kDhPrime - 3) + 2;
  return {secret, mod_pow(kDhGenerator, secret)};
}

uint64_t dh_shared(uint64_t secret, uint64_t peer_public) {
  if (!dh_public_valid(peer_public))
    throw std::invalid_argument("dh_shared: invalid peer public value");
  return mod_pow(peer_public, secret);
}

bool dh_public_valid(uint64_t peer_public) {
  return peer_public > 1 && peer_public < kDhPrime;
}

std::array<uint8_t, 8> dh_encode(uint64_t v) {
  std::array<uint8_t, 8> out;
  for (size_t i = 0; i < out.size(); ++i)
    out[i] = static_cast<uint8_t>(v >> (8 * (7 - i)));
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
