// AES-128 block cipher (FIPS 197) and AES-128-GCM (NIST SP 800-38D),
// from scratch, with backend-dispatched kernels. QUIC's Initial packet
// protection (RFC 9001 section 5) mandates AES-128-GCM for payload
// protection and the raw AES-128 block function for header protection,
// so a faithful QScanner needs both -- and pays for both twice per
// packet, which makes this the scan campaign's hottest code.
//
// Every context resolves its kernel backend exactly once, at
// construction (crypto::resolve_backend(): --crypto-backend override >
// QREPRO_CRYPTO_BACKEND > CPUID probe), so long-lived contexts -- the
// hot-path contract since the PR-3 overhaul -- never pay per-call
// dispatch. AES-GCM is deterministic: every backend produces identical
// ciphertext, tags and keystreams, byte for byte (see cpu.h).
//
// The portable kernels are not constant-time and none of this must
// ever be used outside this simulation.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "crypto/cpu.h"

namespace crypto {

inline constexpr size_t kAesBlockSize = 16;
inline constexpr size_t kAes128KeySize = 16;
inline constexpr size_t kGcmTagSize = 16;
inline constexpr size_t kGcmIvSize = 12;

/// AES-128 with a fixed expanded key schedule. Encrypt-only: GCM's CTR
/// mode and QUIC header protection only ever use the forward direction.
class Aes128 {
 public:
  explicit Aes128(std::span<const uint8_t> key);

  /// Encrypts one 16-byte block in place (out may alias in).
  void encrypt_block(const uint8_t* in, uint8_t* out) const;

  std::array<uint8_t, kAesBlockSize> encrypt_block(
      std::span<const uint8_t> block) const;

  /// Encrypts four consecutive 16-byte blocks (64 bytes, out may alias
  /// in) in one pass: the four states run round-interleaved through the
  /// T-tables so their dependency chains overlap -- the scalar batching
  /// win the portable backend's GCM CTR exploits. The T-table kernel
  /// runs on every backend (kAesni's CTR pipelines AESENC itself).
  void encrypt4_blocks(const uint8_t* in, uint8_t* out) const;

  /// The kernel backend this context resolved at construction.
  Backend backend() const { return backend_; }

 private:
  friend class Aes128Gcm;  // GCM's CTR pipeline reads the raw schedule

  alignas(16) uint8_t round_keys_[11][16] = {};
  Backend backend_;
};

/// AES-128-GCM authenticated encryption. 12-byte nonce, 16-byte tag.
///
/// Construction resolves the kernel backend, expands the AES key
/// schedule and precomputes the backend's GHASH material (a 4 KiB
/// heap-allocated Shoup table on the portable backend; just H on the
/// PCLMUL one, whose contexts are a few hundred bytes and allocate
/// nothing), so contexts are meant to be long-lived: build one per
/// traffic secret and reuse it for every packet (see quic::PacketProtector). The
/// append-style seal/open entry points write into a caller-owned buffer
/// and run CTR four counter blocks per pass (round-interleaved scalar
/// on kPortable, pipelined AESENC on kAesni), so the
/// steady-state packet path performs no allocations and no per-call
/// backend dispatch of its own.
class Aes128Gcm {
 public:
  explicit Aes128Gcm(std::span<const uint8_t> key);

  /// Appends ciphertext || tag (plaintext.size() + 16 bytes) to `out`.
  /// `aad` and `plaintext` must not alias `out` unless the caller has
  /// reserved enough capacity that the append cannot reallocate.
  void seal_append(std::span<const uint8_t> nonce,
                   std::span<const uint8_t> aad,
                   std::span<const uint8_t> plaintext,
                   std::vector<uint8_t>& out) const;

  /// Appends the plaintext to `out` and returns true, or returns false
  /// leaving `out` untouched if the tag does not verify. Same aliasing
  /// contract as seal_append.
  bool open_append(std::span<const uint8_t> nonce,
                   std::span<const uint8_t> aad,
                   std::span<const uint8_t> ciphertext_and_tag,
                   std::vector<uint8_t>& out) const;

  /// Returns ciphertext || tag (plaintext.size() + 16 bytes).
  std::vector<uint8_t> seal(std::span<const uint8_t> nonce,
                            std::span<const uint8_t> aad,
                            std::span<const uint8_t> plaintext) const;

  /// Returns plaintext, or nullopt if the tag does not verify.
  std::optional<std::vector<uint8_t>> open(
      std::span<const uint8_t> nonce, std::span<const uint8_t> aad,
      std::span<const uint8_t> ciphertext_and_tag) const;

  /// The kernel backend this context resolved at construction.
  Backend backend() const { return aes_.backend(); }

 private:
  using Block = std::array<uint8_t, kAesBlockSize>;
  // GF(2^128) element in GCM's bit-reflected representation, split into
  // two big-endian 64-bit lanes (hi = bytes 0..7, lo = bytes 8..15) so
  // shifts and xors run on words instead of bytes.
  struct Gf128 {
    uint64_t hi = 0;
    uint64_t lo = 0;
  };

  Block ghash(std::span<const uint8_t> aad,
              std::span<const uint8_t> ciphertext) const;
  void ghash_mul(Gf128& x) const;  // x = x * H via the 8-bit table
  void ctr_xor(const Block& initial_counter, std::span<const uint8_t> in,
               uint8_t* out) const;
  Block tag(const Block& j0, std::span<const uint8_t> aad,
            std::span<const uint8_t> ciphertext) const;

  Aes128 aes_;
  // The GHASH key H = AES_Enc(0^16): the PCLMUL backend multiplies by
  // it directly instead of through the table below.
  Block h_{};
  // Shoup 8-bit table: htable8_[b] = (b as an 8-bit poly, bit 7 = x^0)
  // * H. Built from 8 shifts plus xors (GF multiplication is linear),
  // so key setup is far cheaper than the bit-by-bit schoolbook build
  // and each GHASH block costs 16 lookups instead of 32. Empty under
  // Backend::kAesni, where GHASH never reads it.
  std::vector<Gf128> htable8_;
};

}  // namespace crypto
