// TLS 1.3 key schedule (RFC 8446 section 7.1) specialized to SHA-256
// suites, with both TLS record keys ("key"/"iv") and QUIC packet
// protection keys ("quic key"/"quic iv"/"quic hp", RFC 9001 section 5.1)
// derivable from the same traffic secrets.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "crypto/aes.h"
#include "crypto/sha256.h"

namespace tls {

using AeadKey = std::array<uint8_t, crypto::kAes128KeySize>;
using AeadIv = std::array<uint8_t, crypto::kGcmIvSize>;

struct TrafficKeys {
  AeadKey key{};  // AES-128-GCM
  AeadIv iv{};
  /// The header-protection key: QUIC derivation only, never TLS.
  std::optional<AeadKey> hp;
};

enum class KeyUsage { kTls, kQuic };

/// Derives key/iv (and hp for QUIC) from a traffic secret.
TrafficKeys derive_traffic_keys(std::span<const uint8_t> secret,
                                KeyUsage usage);
/// The same, from a secret whose HMAC key is already built.
TrafficKeys derive_traffic_keys(const crypto::HmacKey& secret, KeyUsage usage);

/// Tracks the handshake transcript and derives the secret hierarchy.
/// Usage: add_message() for each handshake message in order; call
/// derive_handshake_secrets() after ServerHello, then add EE..Finished
/// and call derive_application_secrets().
class KeySchedule {
 public:
  KeySchedule();

  /// Appends the full encoded handshake message (header included).
  void add_message(std::span<const uint8_t> encoded);

  crypto::Sha256Digest transcript_hash() const;

  /// Mixes in the (EC)DHE shared secret; must run with the transcript
  /// at ClientHello..ServerHello.
  void derive_handshake_secrets(std::span<const uint8_t> shared_secret);

  /// Must run with the transcript at ClientHello..server Finished.
  void derive_application_secrets();

  const crypto::Sha256Digest& client_handshake_secret() const {
    return client_hs_;
  }
  const crypto::Sha256Digest& server_handshake_secret() const {
    return server_hs_;
  }
  const crypto::Sha256Digest& client_application_secret() const {
    return client_app_;
  }
  const crypto::Sha256Digest& server_application_secret() const {
    return server_app_;
  }

  /// The handshake traffic secrets as HMAC keys, built once by
  /// derive_handshake_secrets() for both their traffic keys and their
  /// Finished messages. Throw std::logic_error before it ran.
  const crypto::HmacKey& client_handshake_key() const;
  const crypto::HmacKey& server_handshake_key() const;

  /// Finished verify_data for the given handshake traffic secret's key
  /// over the current transcript (RFC 8446 section 4.4.4).
  crypto::Sha256Digest finished_verify_data(
      const crypto::HmacKey& traffic_secret) const;

 private:
  crypto::Sha256 transcript_;
  crypto::Sha256Digest snapshot() const;

  // Keyed by the handshake secret; derive_application_secrets() expands
  // its "derived" label.
  std::optional<crypto::HmacKey> handshake_secret_;
  std::optional<crypto::HmacKey> client_hs_key_, server_hs_key_;
  crypto::Sha256Digest client_hs_{}, server_hs_{};
  crypto::Sha256Digest client_app_{}, server_app_{};
};

}  // namespace tls
