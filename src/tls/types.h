// Shared TLS 1.3 protocol constants (RFC 8446) plus the QUIC-specific
// extension codepoints (RFC 9001 / draft-ietf-quic-tls).
#pragma once

#include <cstdint>
#include <string>

namespace tls {

// Protocol versions (wire values).
inline constexpr uint16_t kVersion12 = 0x0303;
inline constexpr uint16_t kVersion13 = 0x0304;

// Cipher suites. TLS 1.3 suites per RFC 8446; RFC 9001 forbids
// TLS_AES_128_CCM_8_SHA256 for QUIC.
enum class CipherSuite : uint16_t {
  kAes128GcmSha256 = 0x1301,
  kAes256GcmSha384 = 0x1302,
  kChaCha20Poly1305Sha256 = 0x1303,
  kAes128CcmSha256 = 0x1304,
  kAes128Ccm8Sha256 = 0x1305,
  // TLS 1.2 suite used by legacy-only deployments in the simulation.
  kEcdheRsaAes128GcmSha256 = 0xc02f,
};

std::string cipher_suite_name(CipherSuite suite);

// Named groups for key_share / supported_groups.
enum class NamedGroup : uint16_t {
  kX25519 = 0x001d,
  kSecp256r1 = 0x0017,
  kSecp384r1 = 0x0018,
  kX448 = 0x001e,
};

std::string named_group_name(NamedGroup group);

// rsa_pss_rsae_sha256: offered in signature_algorithms and named in
// CertificateVerify, whose signature is an HMAC stand-in (DESIGN.md
// section 7).
inline constexpr uint16_t kSigAlgRsaPssSha256 = 0x0804;

// Extension codepoints.
enum class ExtensionType : uint16_t {
  kServerName = 0,
  kSupportedGroups = 10,
  kSignatureAlgorithms = 13,
  kAlpn = 16,
  kSupportedVersions = 43,
  kKeyShare = 51,
  // QUIC transport parameters: RFC 9001 assigns 0x39; every draft
  // version used the provisional 0xffa5 codepoint. Deployments in 2021
  // had to handle both, and so does this stack.
  kQuicTransportParameters = 0x39,
  kQuicTransportParametersDraft = 0xffa5,
};

// Handshake message types.
enum class HandshakeType : uint8_t {
  kClientHello = 1,
  kServerHello = 2,
  kEncryptedExtensions = 8,
  kCertificate = 11,
  kServerKeyExchange = 12,   // TLS 1.2 only
  kCertificateVerify = 15,
  kServerHelloDone = 14,     // TLS 1.2 only
  kFinished = 20,
};

// Alert descriptions (RFC 8446 section 6). QUIC surfaces TLS alerts as
// connection errors 0x100 + alert, so handshake_failure (0x28) becomes
// the paper's ubiquitous QUIC error 0x128.
enum class AlertDescription : uint8_t {
  kCloseNotify = 0,
  kHandshakeFailure = 40,   // 0x28
  kBadCertificate = 42,
  kProtocolVersion = 70,
  kInternalError = 80,
  kMissingExtension = 109,
  kUnrecognizedName = 112,
  kNoApplicationProtocol = 120,
};

std::string alert_name(AlertDescription alert);

}  // namespace tls
