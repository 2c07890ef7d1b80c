#include "tls/certificate.h"

#include <algorithm>

#include "crypto/sha256.h"

namespace tls {

bool wildcard_match(std::string_view pattern, std::string_view host) {
  if (pattern == host) return true;
  if (pattern.size() < 3 || pattern[0] != '*' || pattern[1] != '.')
    return false;
  // "*.example.com" matches exactly one extra left-most label.
  std::string_view suffix = pattern.substr(1);  // ".example.com"
  if (host.size() <= suffix.size()) return false;
  if (host.substr(host.size() - suffix.size()) != suffix) return false;
  std::string_view label = host.substr(0, host.size() - suffix.size());
  return label.find('.') == std::string_view::npos && !label.empty();
}

bool Certificate::matches_host(std::string_view host) const {
  if (wildcard_match(subject_cn, host)) return true;
  for (const auto& san : san_dns)
    if (wildcard_match(san, host)) return true;
  return false;
}

namespace {

void encode_tbs(wire::Writer& w, const Certificate& cert) {
  w.u16(static_cast<uint16_t>(cert.subject_cn.size()));
  w.str(cert.subject_cn);
  w.u16(static_cast<uint16_t>(cert.san_dns.size()));
  for (const auto& san : cert.san_dns) {
    w.u16(static_cast<uint16_t>(san.size()));
    w.str(san);
  }
  w.u16(static_cast<uint16_t>(cert.issuer_cn.size()));
  w.str(cert.issuer_cn);
  w.u64(cert.serial);
  w.u32(cert.not_before_day);
  w.u32(cert.not_after_day);
  w.u64(cert.public_key_id);
}

}  // namespace

void Certificate::encode(wire::Writer& w) const {
  encode_tbs(w, *this);
  w.u16(static_cast<uint16_t>(signature.size()));
  w.bytes(signature);
}

std::vector<uint8_t> Certificate::encode() const {
  wire::Writer& w = wire::scratch_writer();
  encode(w);
  return w.data();
}

Certificate Certificate::decode(std::span<const uint8_t> data) {
  wire::Reader r(data);
  Certificate cert;
  cert.subject_cn = r.str(r.u16());
  size_t san_count = r.u16();
  for (size_t i = 0; i < san_count; ++i) cert.san_dns.push_back(r.str(r.u16()));
  cert.issuer_cn = r.str(r.u16());
  cert.serial = r.u64();
  cert.not_before_day = r.u32();
  cert.not_after_day = r.u32();
  cert.public_key_id = r.u64();
  cert.signature = r.bytes_copy(r.u16());
  if (!r.done()) throw wire::DecodeError("trailing bytes after certificate");
  return cert;
}

std::string Certificate::fingerprint() const {
  wire::Writer& w = wire::scratch_writer();
  encode(w);
  return wire::to_hex(crypto::Sha256::hash(w.span()));
}

namespace {

crypto::Sha256Digest tbs_mac(const Certificate& cert,
                             std::span<const uint8_t> issuer_key) {
  wire::Writer& w = wire::scratch_writer();
  encode_tbs(w, cert);
  return crypto::hmac_sha256(issuer_key, w.span());
}

}  // namespace

void sign_certificate(Certificate& cert, std::span<const uint8_t> issuer_key) {
  const auto mac = tbs_mac(cert, issuer_key);
  cert.signature.assign(mac.begin(), mac.end());
}

}  // namespace tls
