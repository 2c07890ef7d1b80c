#include "tls/session.h"

#include <algorithm>

#include "crypto/dh.h"

namespace tls {

namespace {

std::array<uint8_t, 8> shared_secret(uint64_t secret,
                                     std::span<const uint8_t> peer_public) {
  return crypto::dh_encode(
      crypto::dh_shared(secret, crypto::dh_decode(peer_public)));
}

// A key_share carrying one entry. Pushed, not brace-initialised: an
// initializer list would copy the entry and its bytes.
KeyShareExtension key_share(uint16_t group, uint64_t public_value) {
  const auto bytes = crypto::dh_encode(public_value);
  KeyShareExtension ks;
  ks.entries.push_back({group, {bytes.begin(), bytes.end()}});
  return ks;
}

Finished finished_for(const KeySchedule& schedule,
                      const crypto::HmacKey& traffic_secret) {
  const auto verify_data = schedule.finished_verify_data(traffic_secret);
  return Finished{{verify_data.begin(), verify_data.end()}};
}

bool finished_verifies(const Finished& fin, const KeySchedule& schedule,
                       const crypto::HmacKey& traffic_secret) {
  return std::ranges::equal(fin.verify_data,
                            schedule.finished_verify_data(traffic_secret));
}

}  // namespace

std::optional<std::string> select_alpn(
    const std::vector<std::string>& offered,
    const std::vector<std::string>& supported) {
  for (const auto& protocol : offered)
    if (std::ranges::find(supported, protocol) != supported.end())
      return protocol;
  return std::nullopt;
}

const KeyShareEntry* usable_key_share(
    const std::vector<Extension>& extensions) {
  const auto* ks = find_key_share(extensions);
  if (!ks || ks->entries.empty()) return nullptr;
  const KeyShareEntry& entry = ks->entries[0];
  if (entry.key_exchange.size() != 8 ||
      !crypto::dh_public_valid(crypto::dh_decode(entry.key_exchange)))
    return nullptr;
  return &entry;
}

/// --- Client ----------------------------------------------------------

ClientHandshake::ClientHandshake(crypto::Rng& rng,
                                 const std::optional<std::string>& sni,
                                 const std::vector<std::string>& alpn,
                                 std::vector<uint16_t> versions,
                                 std::optional<Extension> trailing) {
  const auto key_pair = crypto::dh_generate(rng.next());
  dh_secret_ = key_pair.secret;
  // Built in place in the variant encode_handshake takes: a ClientHello
  // converted to it would be copied, extensions and all.
  HandshakeMessage hello(std::in_place_type<ClientHello>);
  auto& ch = std::get<ClientHello>(hello);
  rng.fill(ch.random);
  ch.cipher_suites = {CipherSuite::kAes128GcmSha256,
                      CipherSuite::kAes256GcmSha384,
                      CipherSuite::kChaCha20Poly1305Sha256};
  ch.extensions.reserve(7);
  if (sni) ch.extensions.push_back(SniExtension{*sni});
  if (!alpn.empty()) ch.extensions.push_back(AlpnExtension{alpn});
  ch.extensions.push_back(SupportedGroupsExtension{
      {static_cast<uint16_t>(NamedGroup::kX25519),
       static_cast<uint16_t>(NamedGroup::kSecp256r1),
       static_cast<uint16_t>(NamedGroup::kSecp384r1)}});
  ch.extensions.push_back(
      SignatureAlgorithmsExtension{{kSigAlgRsaPssSha256, 0x0403}});
  ch.extensions.push_back(SupportedVersionsExtension{std::move(versions)});
  ch.extensions.push_back(key_share(
      static_cast<uint16_t>(NamedGroup::kX25519), key_pair.public_value));
  if (trailing) ch.extensions.push_back(std::move(*trailing));
  client_hello_ = encode_handshake(hello);
  schedule_.add_message(client_hello_);
}

bool ClientHandshake::on_server_hello(const ServerHello& sh,
                                      std::span<const uint8_t> encoded,
                                      TlsDetails& details) {
  schedule_.add_message(encoded);
  details = TlsDetails{};
  details.negotiated_version = sh.negotiated_version();
  details.cipher_suite = sh.cipher_suite;
  for (const auto& ext : sh.extensions)
    details.server_extensions.push_back(extension_type(ext));
  if (details.negotiated_version < kVersion13) return false;
  const KeyShareEntry* share = usable_key_share(sh.extensions);
  if (!share) return false;
  details.key_exchange_group = share->group;
  schedule_.derive_handshake_secrets(
      shared_secret(dh_secret_, share->key_exchange));
  return true;
}

bool ClientHandshake::on_server_message(HandshakeMessage&& msg,
                                        std::span<const uint8_t> encoded,
                                        TlsDetails& details) {
  if (const auto* ee = std::get_if<EncryptedExtensions>(&msg)) {
    if (const auto* alpn = find_alpn(ee->extensions);
        alpn && !alpn->protocols.empty())
      details.selected_alpn = alpn->protocols[0];
    details.sni_echoed = find_sni(ee->extensions) != nullptr;
    for (const auto& ext : ee->extensions)
      details.server_extensions.push_back(extension_type(ext));
  } else if (auto* cm = std::get_if<CertificateMessage>(&msg)) {
    details.certificate_chain = std::move(cm->chain);
  } else if (const auto* fin = std::get_if<Finished>(&msg)) {
    if (!finished_verifies(*fin, schedule_, schedule_.server_handshake_key()))
      return false;
    schedule_.add_message(encoded);
    std::ranges::sort(details.server_extensions);
    schedule_.derive_application_secrets();
    complete_ = true;
    return true;
  }
  schedule_.add_message(encoded);
  return true;
}

std::vector<uint8_t> ClientHandshake::client_finished() const {
  return encode_handshake(
      finished_for(schedule_, schedule_.client_handshake_key()));
}

/// --- Server ----------------------------------------------------------

ServerHandshake::ServerHandshake(const ClientHello& ch,
                                 std::span<const uint8_t> encoded,
                                 const KeyShareEntry& client_share,
                                 crypto::Rng& rng) {
  schedule_.add_message(encoded);
  const auto key_pair = crypto::dh_generate(rng.next());
  HandshakeMessage hello(std::in_place_type<ServerHello>);
  auto& sh = std::get<ServerHello>(hello);
  rng.fill(sh.random);
  sh.legacy_session_id_echo = ch.legacy_session_id;
  sh.cipher_suite = CipherSuite::kAes128GcmSha256;
  sh.extensions.reserve(2);
  sh.extensions.push_back(SupportedVersionsExtension{{kVersion13}});
  sh.extensions.push_back(
      key_share(client_share.group, key_pair.public_value));
  server_hello_ = encode_handshake(hello);
  schedule_.add_message(server_hello_);
  schedule_.derive_handshake_secrets(
      shared_secret(key_pair.secret, client_share.key_exchange));
}

ServerFlight ServerHandshake::flight(std::vector<Extension> ee_extensions,
                                     Certificate cert) {
  // Encoded back to back into the scratch writer, then copied out once.
  wire::Writer& w = wire::scratch_writer();
  ServerFlight out;
  size_t next = 0;
  auto add = [&](const HandshakeMessage& msg) {
    const size_t begin = w.size();
    encode_handshake(w, msg);
    schedule_.add_message(w.span().subspan(begin));
    out.ends[next++] = w.size();
  };
  add(EncryptedExtensions{std::move(ee_extensions)});
  const auto key_id = crypto::dh_encode(cert.public_key_id);
  {
    HandshakeMessage certificate(std::in_place_type<CertificateMessage>);
    std::get<CertificateMessage>(certificate).chain.push_back(std::move(cert));
    add(certificate);
  }
  const auto signature =
      crypto::hmac_sha256(key_id, schedule_.transcript_hash());
  add(CertificateVerify{kSigAlgRsaPssSha256,
                        {signature.begin(), signature.end()}});
  add(finished_for(schedule_, schedule_.server_handshake_key()));
  schedule_.derive_application_secrets();
  out.bytes = w.data();
  return out;
}

bool ServerHandshake::client_finished_ok(const Finished& fin) const {
  return finished_verifies(fin, schedule_, schedule_.client_handshake_key());
}

}  // namespace tls
