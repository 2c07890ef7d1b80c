// SHA-256 (FIPS 180-4), implemented from scratch because no crypto
// library is available offline. Used by the TLS 1.3 transcript hash,
// HMAC/HKDF and hence the QUIC Initial key schedule (RFC 9001 5.2).
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
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
/// portable backend is named, the scalar reference otherwise); copies
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
  friend class HmacKey;
  using Midstate = std::array<uint32_t, 8>;
  using BlockKernel = void (*)(uint32_t state[8], const uint8_t* blocks,
                               size_t count);

  // Continues a hash whose first 64-byte block is already compressed
  // into `midstate`: the kernel is picked now, and the length counts
  // that block, so padding matches an uninterrupted hash.
  explicit Sha256(const Midstate& midstate);
  void resume(const Midstate& midstate);

  BlockKernel kernel_;
  Midstate state_{};
  std::array<uint8_t, 64> block_{};
  uint64_t total_len_ = 0;
  size_t block_len_ = 0;
};

/// One HMAC-SHA256 key (RFC 2104) with its ipad and opad blocks
/// already compressed (RFC 2104 section 4): each MAC then costs the
/// compressions of its data plus one for the outer hash, not two more
/// for the pads. Holds only the two midstates; every MAC resumes a
/// fresh Sha256, which picks its kernel at that call, so a key built
/// once and shared across threads still runs the kernel the current
/// backend selection names.
class HmacKey {
 public:
  explicit HmacKey(std::span<const uint8_t> key);

  /// HMAC of `data`.
  Sha256Digest mac(std::span<const uint8_t> data) const;

  /// HMAC of the concatenation of `parts`, without copying them.
  Sha256Digest mac(
      std::initializer_list<std::span<const uint8_t>> parts) const;

 private:
  friend struct HmacKeyTestPeer;  // tests check the kernel begin() picks

  // The inner hash resumed after the ipad block, on the kernel the
  // backend selection names right now.
  Sha256 begin() const { return Sha256(inner_); }

  Sha256::Midstate inner_;
  Sha256::Midstate outer_;
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

/// HKDF-Expand-Label from TLS 1.3 (RFC 8446 section 7.1) into `out`,
/// keyed by a cached secret; allocates nothing. The label is prefixed
/// with "tls13 " on the wire. QUIC reuses this for its packet
/// protection labels ("quic key", "quic iv", "quic hp", ...). Throws
/// std::invalid_argument when the label exceeds 249 bytes, the context
/// 255 bytes or `out` 255 * 32 bytes, which the HkdfLabel cannot
/// encode.
void hkdf_expand_label(const HmacKey& secret, std::string_view label,
                       std::span<const uint8_t> context,
                       std::span<uint8_t> out);

/// HKDF-Expand-Label with a one-off key, returning `length` bytes.
std::vector<uint8_t> hkdf_expand_label(std::span<const uint8_t> secret,
                                       std::string_view label,
                                       std::span<const uint8_t> context,
                                       size_t length);

}  // namespace crypto
