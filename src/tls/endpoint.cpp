#include "tls/endpoint.h"

#include <algorithm>

#include "crypto/dh.h"

namespace tls {

namespace {

constexpr uint16_t kSigAlgRsaPssSha256 = 0x0804;

std::vector<uint8_t> encode_alert_record(AlertDescription desc) {
  Record rec;
  rec.type = ContentType::kAlert;
  rec.payload = {2 /* fatal */, static_cast<uint8_t>(desc)};
  return encode_record(rec);
}

std::optional<AlertDescription> find_alert(const std::vector<Record>& records) {
  for (const auto& rec : records)
    if (rec.type == ContentType::kAlert && rec.payload.size() == 2)
      return static_cast<AlertDescription>(rec.payload[1]);
  return std::nullopt;
}

}  // namespace

TlsServerSession::TlsServerSession(const TlsServerConfig& config,
                                   crypto::Rng rng)
    : config_(config), rng_(std::move(rng)) {}

TlsServerSession::~TlsServerSession() = default;

std::vector<uint8_t> TlsServerSession::alert(AlertDescription desc) {
  state_ = State::kClosed;
  return encode_alert_record(desc);
}

std::vector<uint8_t> TlsServerSession::on_data(std::span<const uint8_t> data) {
  if (state_ == State::kClosed) return {};
  std::vector<Record> records;
  try {
    records = decode_records(data);
  } catch (const wire::DecodeError&) {
    return alert(AlertDescription::kInternalError);
  }

  if (state_ == State::kAwaitClientHello) {
    for (const auto& rec : records) {
      if (rec.type != ContentType::kHandshake) continue;
      try {
        wire::Reader r(rec.payload);
        auto msg = decode_handshake(r);
        if (const auto* ch = std::get_if<ClientHello>(&msg))
          return handle_client_hello(*ch, rec.payload);
      } catch (const wire::DecodeError&) {
        return alert(AlertDescription::kInternalError);
      }
    }
    return {};
  }

  if (state_ == State::kAwaitFinished) {
    for (const auto& rec : records) {
      if (rec.type != ContentType::kApplicationData) continue;
      auto opened = rx_->open(rec);
      if (!opened) return alert(AlertDescription::kInternalError);
      if (opened->type == ContentType::kHandshake) {
        // Trust-but-verify is not needed for the simulation's analyses;
        // accept the client Finished and switch to application keys.
        state_ = State::kEstablished;
      }
    }
    return {};
  }

  // Established: expect an HTTP request in an application record.
  for (const auto& rec : records) {
    if (rec.type != ContentType::kApplicationData) continue;
    auto opened = app_rx_->open(rec);
    if (!opened) return alert(AlertDescription::kInternalError);
    if (opened->type == ContentType::kApplicationData &&
        config_.http_responder) {
      std::string request(opened->payload.begin(), opened->payload.end());
      std::string response = config_.http_responder(request);
      return app_tx_->seal(
          ContentType::kApplicationData,
          {reinterpret_cast<const uint8_t*>(response.data()),
           response.size()});
    }
  }
  return {};
}

std::vector<uint8_t> TlsServerSession::handle_client_hello(
    const ClientHello& ch, std::span<const uint8_t> raw) {
  std::optional<std::string> sni;
  if (const auto* s = find_sni(ch.extensions)) sni = s->host_name;
  std::optional<Certificate> cert;
  if (config_.select_certificate) cert = config_.select_certificate(sni);
  if (!cert) return alert(AlertDescription::kHandshakeFailure);

  // TLS 1.2-only deployments answer with a legacy plaintext flight.
  if (config_.max_version < kVersion13) {
    ServerHello sh;
    sh.legacy_version = kVersion12;
    auto random = rng_.bytes(32);
    std::copy(random.begin(), random.end(), sh.random.begin());
    sh.legacy_session_id_echo = ch.legacy_session_id;
    sh.cipher_suite = CipherSuite::kEcdheRsaAes128GcmSha256;
    CertificateMessage cm;
    cm.chain.push_back(*cert);
    std::vector<uint8_t> out;
    for (const HandshakeMessage& msg : std::initializer_list<HandshakeMessage>{
             sh, cm, ServerHelloDone{}}) {
      Record rec;
      rec.type = ContentType::kHandshake;
      rec.payload = encode_handshake(msg);
      auto bytes = encode_record(rec);
      out.insert(out.end(), bytes.begin(), bytes.end());
    }
    state_ = State::kClosed;  // the scanner stops here anyway
    return out;
  }

  const auto* client_versions = find_supported_versions(ch.extensions);
  bool offers_13 =
      client_versions &&
      std::find(client_versions->versions.begin(),
                client_versions->versions.end(),
                kVersion13) != client_versions->versions.end();
  if (!offers_13) return alert(AlertDescription::kProtocolVersion);
  const auto* ks = find_key_share(ch.extensions);
  if (!ks || ks->entries.empty())
    return alert(AlertDescription::kMissingExtension);

  std::optional<std::string> selected_alpn;
  const bool skip_alpn = !sni && !config_.alpn_without_sni;
  if (const auto* alpn = find_alpn(ch.extensions); alpn && !skip_alpn) {
    for (const auto& p : alpn->protocols) {
      if (std::find(config_.alpn.begin(), config_.alpn.end(), p) !=
          config_.alpn.end()) {
        selected_alpn = p;
        break;
      }
    }
    if (!selected_alpn)
      return alert(AlertDescription::kNoApplicationProtocol);
  }

  key_schedule_.add_message(raw);
  auto server_pair = crypto::dh_generate(rng_.next());
  ServerHello sh;
  auto random = rng_.bytes(32);
  std::copy(random.begin(), random.end(), sh.random.begin());
  sh.legacy_session_id_echo = ch.legacy_session_id;
  sh.cipher_suite = CipherSuite::kAes128GcmSha256;
  sh.extensions.push_back(SupportedVersionsExtension{{kVersion13}});
  sh.extensions.push_back(KeyShareExtension{
      {{ks->entries[0].group, crypto::dh_encode(server_pair.public_value)}}});
  auto sh_bytes = encode_handshake(sh);
  key_schedule_.add_message(sh_bytes);

  auto shared = crypto::dh_encode(crypto::dh_shared(
      server_pair.secret, crypto::dh_decode(ks->entries[0].key_exchange)));
  key_schedule_.derive_handshake_secrets(shared);
  tx_ = std::make_unique<RecordCrypter>(derive_traffic_keys(
      key_schedule_.server_handshake_secret(), KeyUsage::kTls));
  rx_ = std::make_unique<RecordCrypter>(derive_traffic_keys(
      key_schedule_.client_handshake_secret(), KeyUsage::kTls));

  EncryptedExtensions ee;
  if (selected_alpn) ee.extensions.push_back(AlpnExtension{{*selected_alpn}});
  if (sni && config_.echo_sni) ee.extensions.push_back(SniExtension{});
  auto ee_bytes = encode_handshake(ee);
  key_schedule_.add_message(ee_bytes);

  CertificateMessage cm;
  cm.chain.push_back(*cert);
  auto cm_bytes = encode_handshake(cm);
  key_schedule_.add_message(cm_bytes);

  CertificateVerify cv;
  cv.algorithm = kSigAlgRsaPssSha256;
  auto th = key_schedule_.transcript_hash();
  auto sig = crypto::hmac_sha256(crypto::dh_encode(cert->public_key_id), th);
  cv.signature.assign(sig.begin(), sig.end());
  auto cv_bytes = encode_handshake(cv);
  key_schedule_.add_message(cv_bytes);

  Finished fin;
  auto verify_data = key_schedule_.finished_verify_data(
      key_schedule_.server_handshake_secret());
  fin.verify_data.assign(verify_data.begin(), verify_data.end());
  auto fin_bytes = encode_handshake(fin);
  key_schedule_.add_message(fin_bytes);

  key_schedule_.derive_application_secrets();
  app_tx_ = std::make_unique<RecordCrypter>(derive_traffic_keys(
      key_schedule_.server_application_secret(), KeyUsage::kTls));
  app_rx_ = std::make_unique<RecordCrypter>(derive_traffic_keys(
      key_schedule_.client_application_secret(), KeyUsage::kTls));

  // Flight: plaintext SH record + one encrypted record per message.
  std::vector<uint8_t> out;
  Record sh_rec;
  sh_rec.type = ContentType::kHandshake;
  sh_rec.payload = sh_bytes;
  auto sh_rec_bytes = encode_record(sh_rec);
  out.insert(out.end(), sh_rec_bytes.begin(), sh_rec_bytes.end());
  for (const auto* bytes : {&ee_bytes, &cm_bytes, &cv_bytes, &fin_bytes}) {
    auto sealed = tx_->seal(ContentType::kHandshake, *bytes);
    out.insert(out.end(), sealed.begin(), sealed.end());
  }
  state_ = State::kAwaitFinished;
  return out;
}

/// --- Client ----------------------------------------------------------

TlsClient::TlsClient(crypto::Rng rng, std::optional<std::string> sni,
                     std::vector<std::string> alpn)
    : rng_(std::move(rng)), sni_(std::move(sni)), alpn_(std::move(alpn)) {}

TlsClientResult TlsClient::run(
    const ExchangeFn& exchange,
    const std::optional<std::string>& http_request) {
  TlsClientResult result;
  KeySchedule key_schedule;

  auto key_pair = crypto::dh_generate(rng_.next());
  ClientHello ch;
  auto random = rng_.bytes(32);
  std::copy(random.begin(), random.end(), ch.random.begin());
  ch.cipher_suites = {CipherSuite::kAes128GcmSha256,
                      CipherSuite::kAes256GcmSha384,
                      CipherSuite::kChaCha20Poly1305Sha256};
  if (sni_) ch.extensions.push_back(SniExtension{*sni_});
  if (!alpn_.empty()) ch.extensions.push_back(AlpnExtension{alpn_});
  ch.extensions.push_back(SupportedGroupsExtension{
      {static_cast<uint16_t>(NamedGroup::kX25519),
       static_cast<uint16_t>(NamedGroup::kSecp256r1),
       static_cast<uint16_t>(NamedGroup::kSecp384r1)}});
  ch.extensions.push_back(
      SignatureAlgorithmsExtension{{kSigAlgRsaPssSha256, 0x0403}});
  ch.extensions.push_back(
      SupportedVersionsExtension{{kVersion13, kVersion12}});
  ch.extensions.push_back(KeyShareExtension{
      {{static_cast<uint16_t>(NamedGroup::kX25519),
        crypto::dh_encode(key_pair.public_value)}}});
  auto ch_bytes = encode_handshake(ch);
  key_schedule.add_message(ch_bytes);

  Record ch_rec;
  ch_rec.type = ContentType::kHandshake;
  ch_rec.payload = ch_bytes;
  auto reply = exchange(encode_record(ch_rec));
  std::vector<Record> records;
  try {
    records = decode_records(reply);
  } catch (const wire::DecodeError&) {
    return result;
  }
  if (auto alert = find_alert(records)) {
    result.alert = alert;
    return result;
  }

  // ServerHello is the first plaintext handshake record.
  const ServerHello* sh = nullptr;
  ServerHello sh_storage;
  for (const auto& rec : records) {
    if (rec.type != ContentType::kHandshake) continue;
    try {
      wire::Reader r(rec.payload);
      auto msg = decode_handshake(r);
      if (auto* parsed = std::get_if<ServerHello>(&msg)) {
        sh_storage = *parsed;
        sh = &sh_storage;
        key_schedule.add_message(rec.payload);
        break;
      }
    } catch (const wire::DecodeError&) {
      return result;
    }
  }
  if (!sh) return result;

  result.details.negotiated_version = sh->negotiated_version();
  result.details.cipher_suite = sh->cipher_suite;
  for (const auto& ext : sh->extensions)
    result.details.server_extensions.push_back(extension_type(ext));

  if (result.details.negotiated_version < kVersion13) {
    // Legacy path: certificate arrives in plaintext; record and stop.
    for (const auto& rec : records) {
      if (rec.type != ContentType::kHandshake) continue;
      try {
        wire::Reader r(rec.payload);
        auto msg = decode_handshake(r);
        if (auto* cm = std::get_if<CertificateMessage>(&msg))
          result.details.certificate_chain = cm->chain;
      } catch (const wire::DecodeError&) {
      }
    }
    result.handshake_ok = !result.details.certificate_chain.empty();
    return result;
  }

  const auto* ks = find_key_share(sh->extensions);
  if (!ks || ks->entries.empty()) return result;
  result.details.key_exchange_group = ks->entries[0].group;
  auto shared = crypto::dh_encode(crypto::dh_shared(
      key_pair.secret, crypto::dh_decode(ks->entries[0].key_exchange)));
  key_schedule.derive_handshake_secrets(shared);
  RecordCrypter rx(derive_traffic_keys(key_schedule.server_handshake_secret(),
                                       KeyUsage::kTls));
  RecordCrypter tx(derive_traffic_keys(key_schedule.client_handshake_secret(),
                                       KeyUsage::kTls));

  // Decrypt the EE..Finished flight.
  bool finished_ok = false;
  for (const auto& rec : records) {
    if (rec.type != ContentType::kApplicationData) continue;
    auto opened = rx.open(rec);
    if (!opened || opened->type != ContentType::kHandshake) return result;
    wire::Reader r(opened->payload);
    auto msg = decode_handshake(r);
    if (auto* ee = std::get_if<EncryptedExtensions>(&msg)) {
      if (const auto* alpn = find_alpn(ee->extensions);
          alpn && !alpn->protocols.empty())
        result.details.selected_alpn = alpn->protocols[0];
      result.details.sni_echoed = find_sni(ee->extensions) != nullptr;
      for (const auto& ext : ee->extensions)
        result.details.server_extensions.push_back(extension_type(ext));
    } else if (auto* cm = std::get_if<CertificateMessage>(&msg)) {
      result.details.certificate_chain = cm->chain;
    } else if (auto* fin = std::get_if<Finished>(&msg)) {
      auto expected = key_schedule.finished_verify_data(
          key_schedule.server_handshake_secret());
      if (!std::ranges::equal(fin->verify_data, expected)) return result;
      finished_ok = true;
    }
    key_schedule.add_message(opened->payload);
  }
  if (!finished_ok) return result;
  std::sort(result.details.server_extensions.begin(),
            result.details.server_extensions.end());

  key_schedule.derive_application_secrets();
  RecordCrypter app_tx(derive_traffic_keys(
      key_schedule.client_application_secret(), KeyUsage::kTls));
  RecordCrypter app_rx(derive_traffic_keys(
      key_schedule.server_application_secret(), KeyUsage::kTls));

  // Client Finished.
  Finished fin;
  auto verify_data = key_schedule.finished_verify_data(
      key_schedule.client_handshake_secret());
  fin.verify_data.assign(verify_data.begin(), verify_data.end());
  auto fin_flight = tx.seal(ContentType::kHandshake, encode_handshake(fin));
  exchange(fin_flight);
  result.handshake_ok = true;

  if (http_request) {
    auto request_flight = app_tx.seal(
        ContentType::kApplicationData,
        {reinterpret_cast<const uint8_t*>(http_request->data()),
         http_request->size()});
    auto response_bytes = exchange(request_flight);
    try {
      for (const auto& rec : decode_records(response_bytes)) {
        auto opened = app_rx.open(rec);
        if (opened && opened->type == ContentType::kApplicationData)
          result.http_response.emplace(opened->payload.begin(),
                                       opened->payload.end());
      }
    } catch (const wire::DecodeError&) {
    }
  }
  return result;
}

}  // namespace tls
