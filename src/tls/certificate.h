// Synthetic certificates. The paper compares the certificate a target
// returns over QUIC against the one returned over TLS-over-TCP
// (Table 5), including Google's self-signed "missing SNI" placeholder
// and weekly certificate rotation. What matters for those analyses is
// identity, SAN coverage, issuer, validity window and rotation -- not
// RSA/ECDSA math -- so signatures are HMAC-SHA256 under the issuer key
// (see DESIGN.md section 7).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "wire/buffer.h"

namespace tls {

struct Certificate {
  std::string subject_cn;
  std::vector<std::string> san_dns;  // dNSName entries
  std::string issuer_cn;
  uint64_t serial = 0;
  // Validity expressed in days since an epoch; the weekly-rotation
  // analysis only needs ordering and spans.
  uint32_t not_before_day = 0;
  uint32_t not_after_day = 0;
  uint64_t public_key_id = 0;  // stands in for the SPKI
  std::vector<uint8_t> signature;

  bool self_signed() const { return subject_cn == issuer_cn; }

  /// True if `host` matches the CN or a SAN, with single-label
  /// left-most wildcard support ("*.example.com").
  bool matches_host(std::string_view host) const;

  std::vector<uint8_t> encode() const;
  /// Appends the same encoding to `w`.
  void encode(wire::Writer& w) const;
  static Certificate decode(std::span<const uint8_t> data);

  /// Stable fingerprint over the full encoding (SHA-256, hex).
  std::string fingerprint() const;

  bool operator==(const Certificate&) const = default;
};

/// Fills in `signature` with HMAC(issuer_key, to-be-signed bytes).
void sign_certificate(Certificate& cert, std::span<const uint8_t> issuer_key);

/// True when `pattern` ("*.example.com" or exact) matches `host`.
bool wildcard_match(std::string_view pattern, std::string_view host);

}  // namespace tls
