// Toy finite-field Diffie-Hellman used as the TLS 1.3 key_share
// exchange in this simulation. The paper's scanners used X25519; the
// measurement behavior depends only on *a* shared secret both sides can
// derive, so a 64-bit prime-field DH is substituted (see DESIGN.md
// section 7). Public values are carried in the key_share extension
// labeled as group 0x001d (x25519) to mirror the paper's Client Hello.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace crypto {

/// Group parameters: p = 2^64 - 59 (largest 64-bit prime), g = 5.
inline constexpr uint64_t kDhPrime = 0xffffffffffffffc5ull;
inline constexpr uint64_t kDhGenerator = 5;

/// a * b mod kDhPrime without a 128-bit division: 2^64 = 59 (mod p),
/// so the high word of the product folds into the low one twice and
/// one conditional subtraction of p finishes the reduction.
uint64_t mod_mul(uint64_t a, uint64_t b);
/// base^exp mod kDhPrime by square-and-multiply over mod_mul.
uint64_t mod_pow(uint64_t base, uint64_t exp);

struct DhKeyPair {
  uint64_t secret = 0;
  uint64_t public_value = 0;
};

DhKeyPair dh_generate(uint64_t secret_seed);
/// Throws std::invalid_argument unless dh_public_valid(peer_public).
uint64_t dh_shared(uint64_t secret, uint64_t peer_public);
/// True for a public value in [2, p - 1], the range dh_shared accepts.
bool dh_public_valid(uint64_t peer_public);

/// Big-endian 8-byte encoding used in the key_share extension payload.
std::array<uint8_t, 8> dh_encode(uint64_t v);
uint64_t dh_decode(std::span<const uint8_t> bytes);

}  // namespace crypto
