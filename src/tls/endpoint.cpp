#include "tls/endpoint.h"

#include <algorithm>

#include "tls/session.h"

namespace tls {

namespace {

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
  const KeyShareEntry* share = usable_key_share(ch.extensions);
  if (!share) return alert(AlertDescription::kMissingExtension);

  std::optional<std::string> selected_alpn;
  const bool skip_alpn = !sni && !config_.alpn_without_sni;
  if (const auto* alpn = find_alpn(ch.extensions); alpn && !skip_alpn) {
    selected_alpn = select_alpn(alpn->protocols, config_.alpn);
    if (!selected_alpn)
      return alert(AlertDescription::kNoApplicationProtocol);
  }

  ServerHandshake handshake(ch, raw, *share, rng_);
  std::vector<Extension> ee;
  if (selected_alpn) ee.push_back(AlpnExtension{{*selected_alpn}});
  if (sni && config_.echo_sni) ee.push_back(SniExtension{});
  const auto flight = handshake.flight(std::move(ee), std::move(*cert));
  const KeySchedule& secrets = handshake.secrets();
  tx_ = std::make_unique<RecordCrypter>(
      derive_traffic_keys(secrets.server_handshake_key(), KeyUsage::kTls));
  rx_ = std::make_unique<RecordCrypter>(
      derive_traffic_keys(secrets.client_handshake_key(), KeyUsage::kTls));
  app_tx_ = std::make_unique<RecordCrypter>(derive_traffic_keys(
      secrets.server_application_secret(), KeyUsage::kTls));
  app_rx_ = std::make_unique<RecordCrypter>(derive_traffic_keys(
      secrets.client_application_secret(), KeyUsage::kTls));

  // Flight: plaintext SH record + one encrypted record per message,
  // each a 5-byte header, the message, its content type and the tag.
  const std::span<const uint8_t> server_hello = handshake.server_hello();
  std::vector<uint8_t> out;
  out.reserve(5 + server_hello.size() + flight.bytes.size() +
              flight.ends.size() * (5 + 1 + crypto::kGcmTagSize));
  encode_record_into(ContentType::kHandshake, server_hello, out);
  size_t begin = 0;
  for (size_t end : flight.ends) {
    tx_->seal_into(ContentType::kHandshake,
                   std::span(flight.bytes).subspan(begin, end - begin), out);
    begin = end;
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
  ClientHandshake handshake(rng_, sni_, alpn_, {kVersion13, kVersion12});

  std::vector<uint8_t> hello_record;
  hello_record.reserve(5 + handshake.client_hello().size());
  encode_record_into(ContentType::kHandshake, handshake.client_hello(),
                     hello_record);
  auto reply = exchange(hello_record);
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
  std::optional<bool> tls13;
  for (const auto& rec : records) {
    if (rec.type != ContentType::kHandshake) continue;
    try {
      wire::Reader r(rec.payload);
      auto msg = decode_handshake(r);
      if (auto* sh = std::get_if<ServerHello>(&msg)) {
        tls13 = handshake.on_server_hello(*sh, rec.payload, result.details);
        break;
      }
    } catch (const wire::DecodeError&) {
      return result;
    }
  }
  if (!tls13) return result;

  if (!*tls13) {
    // A 1.3 answer without a usable key share fails. Below 1.3 (the legacy
    // path) the certificate arrives in plaintext: record it and stop.
    if (result.details.negotiated_version >= kVersion13) return result;
    for (const auto& rec : records) {
      if (rec.type != ContentType::kHandshake) continue;
      try {
        wire::Reader r(rec.payload);
        auto msg = decode_handshake(r);
        if (auto* cm = std::get_if<CertificateMessage>(&msg))
          result.details.certificate_chain = std::move(cm->chain);
      } catch (const wire::DecodeError&) {
      }
    }
    result.handshake_ok = !result.details.certificate_chain.empty();
    return result;
  }

  // Decrypt the EE..Finished flight. A record that fails to open or a
  // message that fails to decode ends the attempt as a failed
  // handshake, without an alert.
  const KeySchedule& secrets = handshake.secrets();
  RecordCrypter rx(
      derive_traffic_keys(secrets.server_handshake_key(), KeyUsage::kTls));
  RecordCrypter tx(
      derive_traffic_keys(secrets.client_handshake_key(), KeyUsage::kTls));
  auto read_flight = [&] {
    for (const auto& rec : records) {
      if (rec.type != ContentType::kApplicationData) continue;
      auto opened = rx.open(rec);
      if (!opened || opened->type != ContentType::kHandshake) return false;
      try {
        wire::Reader r(opened->payload);
        if (!handshake.on_server_message(decode_handshake(r),
                                         opened->payload, result.details))
          return false;
      } catch (const wire::DecodeError&) {
        return false;
      }
    }
    return handshake.complete();
  };
  if (!read_flight()) return result;

  RecordCrypter app_tx(derive_traffic_keys(
      secrets.client_application_secret(), KeyUsage::kTls));
  RecordCrypter app_rx(derive_traffic_keys(
      secrets.server_application_secret(), KeyUsage::kTls));
  exchange(tx.seal(ContentType::kHandshake, handshake.client_finished()));
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
