// TLS 1.3 key schedule (RFC 8446 section 7.1) specialized to SHA-256
// suites, with both TLS record keys ("key"/"iv") and QUIC packet
// protection keys ("quic key"/"quic iv"/"quic hp", RFC 9001 section 5.1)
// derivable from the same traffic secrets.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "crypto/sha256.h"

namespace tls {

struct TrafficKeys {
  std::vector<uint8_t> key;  // 16 bytes (AES-128-GCM)
  std::vector<uint8_t> iv;   // 12 bytes
  std::vector<uint8_t> hp;   // 16 bytes, only set for QUIC derivation
};

enum class KeyUsage { kTls, kQuic };

/// Derives key/iv (and hp for QUIC) from a traffic secret.
TrafficKeys derive_traffic_keys(std::span<const uint8_t> secret,
                                KeyUsage usage);

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

  const std::vector<uint8_t>& client_handshake_secret() const {
    return client_hs_;
  }
  const std::vector<uint8_t>& server_handshake_secret() const {
    return server_hs_;
  }
  const std::vector<uint8_t>& client_application_secret() const {
    return client_app_;
  }
  const std::vector<uint8_t>& server_application_secret() const {
    return server_app_;
  }

  /// Finished verify_data for the given traffic secret over the current
  /// transcript (RFC 8446 section 4.4.4).
  crypto::Sha256Digest finished_verify_data(
      std::span<const uint8_t> traffic_secret) const;

 private:
  crypto::Sha256 transcript_;
  crypto::Sha256Digest snapshot() const;

  // Keyed by the handshake secret; derive_application_secrets() expands
  // its "derived" label.
  std::optional<crypto::HmacKey> handshake_secret_;
  std::vector<uint8_t> client_hs_, server_hs_;
  std::vector<uint8_t> client_app_, server_app_;
};

}  // namespace tls
