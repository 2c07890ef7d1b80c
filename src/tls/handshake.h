// TLS 1.3 handshake message structures and codec (RFC 8446 section 4).
// Messages are framed as HandshakeType(1) | length(3) | body and carried
// either in QUIC CRYPTO frames or in the TCP record layer.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "tls/certificate.h"
#include "tls/extensions.h"
#include "tls/types.h"
#include "wire/buffer.h"

namespace tls {

using Random = std::array<uint8_t, 32>;

struct ClientHello {
  uint16_t legacy_version = kVersion12;  // frozen at 0x0303 per RFC 8446
  Random random{};
  std::vector<uint8_t> legacy_session_id;
  std::vector<CipherSuite> cipher_suites;
  std::vector<Extension> extensions;
};

struct ServerHello {
  uint16_t legacy_version = kVersion12;
  Random random{};
  std::vector<uint8_t> legacy_session_id_echo;
  CipherSuite cipher_suite = CipherSuite::kAes128GcmSha256;
  std::vector<Extension> extensions;

  /// Negotiated version: supported_versions selection if present,
  /// otherwise the legacy field (a TLS 1.2 server).
  uint16_t negotiated_version() const;
};

struct EncryptedExtensions {
  std::vector<Extension> extensions;
};

struct CertificateMessage {
  std::vector<Certificate> chain;
};

struct CertificateVerify {
  uint16_t algorithm = kSigAlgRsaPssSha256;
  std::vector<uint8_t> signature;
};

struct Finished {
  std::vector<uint8_t> verify_data;
};

// TLS 1.2-only skeleton messages used by legacy-only simulated servers.
struct ServerHelloDone {};

using HandshakeMessage =
    std::variant<ClientHello, ServerHello, EncryptedExtensions,
                 CertificateMessage, CertificateVerify, Finished,
                 ServerHelloDone>;

HandshakeType handshake_type(const HandshakeMessage& msg);

/// Appends the encoding, 4-byte handshake header included, to `w`.
void encode_handshake(wire::Writer& w, const HandshakeMessage& msg);

/// Encodes with the 4-byte handshake header into a buffer allocated
/// once, at the encoding's size.
std::vector<uint8_t> encode_handshake(const HandshakeMessage& msg);

/// Decodes exactly one handshake message, advancing the reader.
HandshakeMessage decode_handshake(wire::Reader& r);

/// One message of a decoded flight and the bytes that encoded it,
/// handshake header included -- what the transcript hashes. `encoded`
/// points into the buffer the flight was decoded from.
struct FlightMessage {
  HandshakeMessage message;
  std::span<const uint8_t> encoded;
};

/// Decodes a concatenated flight of messages.
std::vector<FlightMessage> decode_handshake_flight(
    std::span<const uint8_t> data);

/// What a scanner extracts from a completed TLS handshake -- the
/// properties the paper compares between QUIC and TLS-over-TCP stacks
/// for the same target (Table 5).
struct TlsDetails {
  uint16_t negotiated_version = 0;
  CipherSuite cipher_suite = CipherSuite::kAes128GcmSha256;
  uint16_t key_exchange_group = 0;
  std::vector<Certificate> certificate_chain;
  /// Extension codepoints the server sent (ServerHello +
  /// EncryptedExtensions), sorted ascending.
  std::vector<uint16_t> server_extensions;
  std::optional<std::string> selected_alpn;
  bool sni_echoed = false;

  bool operator==(const TlsDetails&) const = default;
};

}  // namespace tls
