#include "tls/key_schedule.h"

#include <stdexcept>
#include <string_view>

namespace tls {

namespace {

const crypto::Sha256Digest& empty_hash() {
  static const crypto::Sha256Digest kEmptyHash = crypto::Sha256::hash({});
  return kEmptyHash;
}

// Keyed by Derive-Secret(early_secret, "derived", ""), where
// early_secret = HKDF-Extract(0, 0^32): without a PSK both are the same
// in every handshake (RFC 8448 section 3), so they are derived once.
const crypto::HmacKey& derived_early_key() {
  static const crypto::HmacKey kKey = [] {
    const crypto::Sha256Digest zeros{};
    const crypto::HmacKey early(crypto::hkdf_extract({}, zeros));
    crypto::Sha256Digest derived{};
    crypto::hkdf_expand_label(early, "derived", empty_hash(), derived);
    return crypto::HmacKey(derived);
  }();
  return kKey;
}

// Derive-Secret(secret, label, transcript hash) (RFC 8446 section 7.1).
void derive_secret(const crypto::HmacKey& secret, std::string_view label,
                   const crypto::Sha256Digest& transcript_hash,
                   crypto::Sha256Digest& out) {
  crypto::hkdf_expand_label(secret, label, transcript_hash, out);
}

}  // namespace

TrafficKeys derive_traffic_keys(std::span<const uint8_t> secret,
                                KeyUsage usage) {
  return derive_traffic_keys(crypto::HmacKey(secret), usage);
}

TrafficKeys derive_traffic_keys(const crypto::HmacKey& secret,
                                KeyUsage usage) {
  TrafficKeys keys;
  if (usage == KeyUsage::kQuic) {
    crypto::hkdf_expand_label(secret, "quic key", {}, keys.key);
    crypto::hkdf_expand_label(secret, "quic iv", {}, keys.iv);
    crypto::hkdf_expand_label(secret, "quic hp", {}, keys.hp.emplace());
  } else {
    crypto::hkdf_expand_label(secret, "key", {}, keys.key);
    crypto::hkdf_expand_label(secret, "iv", {}, keys.iv);
  }
  return keys;
}

KeySchedule::KeySchedule() = default;

void KeySchedule::add_message(std::span<const uint8_t> encoded) {
  transcript_.update(encoded);
}

crypto::Sha256Digest KeySchedule::snapshot() const {
  // Sha256 is cheap to copy; final() on the copy leaves ours running.
  crypto::Sha256 copy = transcript_;
  return copy.final();
}

crypto::Sha256Digest KeySchedule::transcript_hash() const { return snapshot(); }

void KeySchedule::derive_handshake_secrets(
    std::span<const uint8_t> shared_secret) {
  handshake_secret_.emplace(derived_early_key().mac(shared_secret));
  auto th = snapshot();
  derive_secret(*handshake_secret_, "c hs traffic", th, client_hs_);
  derive_secret(*handshake_secret_, "s hs traffic", th, server_hs_);
  client_hs_key_.emplace(client_hs_);
  server_hs_key_.emplace(server_hs_);
}

const crypto::HmacKey& KeySchedule::client_handshake_key() const {
  if (!client_hs_key_)
    throw std::logic_error(
        "client_handshake_key before derive_handshake_secrets");
  return *client_hs_key_;
}

const crypto::HmacKey& KeySchedule::server_handshake_key() const {
  if (!server_hs_key_)
    throw std::logic_error(
        "server_handshake_key before derive_handshake_secrets");
  return *server_hs_key_;
}

void KeySchedule::derive_application_secrets() {
  if (!handshake_secret_)
    throw std::logic_error(
        "derive_application_secrets before derive_handshake_secrets");
  crypto::Sha256Digest derived{};
  crypto::hkdf_expand_label(*handshake_secret_, "derived", empty_hash(),
                            derived);
  const crypto::Sha256Digest zeros{};
  const crypto::HmacKey master(crypto::hkdf_extract(derived, zeros));

  auto th = snapshot();
  derive_secret(master, "c ap traffic", th, client_app_);
  derive_secret(master, "s ap traffic", th, server_app_);
}

crypto::Sha256Digest KeySchedule::finished_verify_data(
    const crypto::HmacKey& traffic_secret) const {
  crypto::Sha256Digest finished_key{};
  crypto::hkdf_expand_label(traffic_secret, "finished", {}, finished_key);
  return crypto::HmacKey(finished_key).mac(snapshot());
}

}  // namespace tls
