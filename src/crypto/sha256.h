// SHA-256 (FIPS 180-4), implemented from scratch because no crypto
// library is available offline. Used by the TLS 1.3 transcript hash,
// HMAC/HKDF and hence the QUIC Initial key schedule (RFC 9001 5.2).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace crypto {

inline constexpr size_t kSha256DigestSize = 32;
using Sha256Digest = std::array<uint8_t, kSha256DigestSize>;

/// Incremental SHA-256. Typical use: update() any number of times, then
/// final(). The object can be reused after reset().
///
/// Construction picks the block kernel once (crypto/cpu.h
/// sha256_hardware_selected(): SHA-NI where available unless the
/// portable backend is selected, the scalar reference otherwise); copies
/// keep it. Every kernel produces the same digest.
class Sha256 {
 public:
  Sha256();

  void reset();
  void update(std::span<const uint8_t> data);
  Sha256Digest final();

  /// True when this object compresses with the SHA-NI kernel.
  bool hardware_kernel() const;

  /// One-shot convenience.
  static Sha256Digest hash(std::span<const uint8_t> data);

 private:
  using BlockKernel = void (*)(uint32_t state[8], const uint8_t* blocks,
                               size_t count);

  BlockKernel kernel_;
  std::array<uint32_t, 8> state_{};
  std::array<uint8_t, 64> block_{};
  uint64_t total_len_ = 0;
  size_t block_len_ = 0;
};

/// HMAC-SHA256 (RFC 2104).
Sha256Digest hmac_sha256(std::span<const uint8_t> key,
                         std::span<const uint8_t> data);

/// HKDF-Extract (RFC 5869).
Sha256Digest hkdf_extract(std::span<const uint8_t> salt,
                          std::span<const uint8_t> ikm);

/// HKDF-Expand (RFC 5869). `length` must be <= 255 * 32.
std::vector<uint8_t> hkdf_expand(std::span<const uint8_t> prk,
                                 std::span<const uint8_t> info, size_t length);

/// HKDF-Expand-Label from TLS 1.3 (RFC 8446 section 7.1): label is
/// prefixed with "tls13 " on the wire. QUIC reuses this for its packet
/// protection labels ("quic key", "quic iv", "quic hp", ...).
std::vector<uint8_t> hkdf_expand_label(std::span<const uint8_t> secret,
                                       std::string_view label,
                                       std::span<const uint8_t> context,
                                       size_t length);

}  // namespace crypto
