// TLS stack tests: extension codec, handshake message codec,
// certificates (wildcards, signing, rotation identity), key schedule
// symmetry, record-layer encryption and the TLS-over-TCP client against
// the server session.
#include <gtest/gtest.h>

#include "crypto/dh.h"
#include "tls/endpoint.h"
#include "tls/extensions.h"
#include "tls/handshake.h"
#include "tls/key_schedule.h"
#include "tls/record.h"
#include "crypto/cpu.h"
#include "crypto/rng.h"
#include "wire/buffer.h"

namespace {

using namespace tls;

// A backend that selects each SHA-256 kernel the host offers (portable
// pins the scalar one, aesni selects SHA-NI; see crypto/cpu.h). The
// tests that loop over them build no AEAD context, so forcing aesni
// needs no AES-NI.
std::vector<crypto::Backend> sha256_kernel_backends() {
  std::vector<crypto::Backend> backends = {crypto::Backend::kPortable};
  if (crypto::sha256_hardware_available())
    backends.push_back(crypto::Backend::kAesni);
  return backends;
}

TEST(Extensions, SniRoundTrip) {
  std::vector<Extension> exts{SniExtension{"www.example.com"}};
  wire::Writer w;
  encode_extensions(w, exts, HandshakeContext::kClientHello);
  wire::Reader r(w.span());
  auto decoded = decode_extensions(r, HandshakeContext::kClientHello);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(std::get<SniExtension>(decoded[0]).host_name, "www.example.com");
}

TEST(Extensions, AlpnRoundTrip) {
  std::vector<Extension> exts{AlpnExtension{{"h3", "h3-29", "http/1.1"}}};
  wire::Writer w;
  encode_extensions(w, exts, HandshakeContext::kClientHello);
  wire::Reader r(w.span());
  auto decoded = decode_extensions(r, HandshakeContext::kClientHello);
  EXPECT_EQ(std::get<AlpnExtension>(decoded[0]).protocols,
            (std::vector<std::string>{"h3", "h3-29", "http/1.1"}));
}

TEST(Extensions, SupportedVersionsContextSensitive) {
  // ClientHello: list; ServerHello: single selection.
  std::vector<Extension> ch_exts{
      SupportedVersionsExtension{{kVersion13, kVersion12}}};
  wire::Writer w1;
  encode_extensions(w1, ch_exts, HandshakeContext::kClientHello);
  wire::Reader r1(w1.span());
  auto d1 = decode_extensions(r1, HandshakeContext::kClientHello);
  EXPECT_EQ(std::get<SupportedVersionsExtension>(d1[0]).versions.size(), 2u);

  std::vector<Extension> sh_exts{SupportedVersionsExtension{{kVersion13}}};
  wire::Writer w2;
  encode_extensions(w2, sh_exts, HandshakeContext::kServerHello);
  wire::Reader r2(w2.span());
  auto d2 = decode_extensions(r2, HandshakeContext::kServerHello);
  EXPECT_EQ(std::get<SupportedVersionsExtension>(d2[0]).versions,
            (std::vector<uint16_t>{kVersion13}));
}

TEST(Extensions, TransportParamsCodepointPreserved) {
  for (uint16_t cp : {uint16_t{0x39}, uint16_t{0xffa5}}) {
    std::vector<Extension> exts{
        TransportParametersExtension{cp, {1, 2, 3}}};
    wire::Writer w;
    encode_extensions(w, exts, HandshakeContext::kEncryptedExtensions);
    wire::Reader r(w.span());
    auto decoded = decode_extensions(r, HandshakeContext::kEncryptedExtensions);
    const auto& tp = std::get<TransportParametersExtension>(decoded[0]);
    EXPECT_EQ(tp.codepoint, cp);
    EXPECT_EQ(tp.payload, (std::vector<uint8_t>{1, 2, 3}));
  }
}

TEST(Extensions, UnknownSurvivesAsRaw) {
  std::vector<Extension> exts{RawExtension{0x1234, {0xde, 0xad}}};
  wire::Writer w;
  encode_extensions(w, exts, HandshakeContext::kClientHello);
  wire::Reader r(w.span());
  auto decoded = decode_extensions(r, HandshakeContext::kClientHello);
  const auto& raw = std::get<RawExtension>(decoded[0]);
  EXPECT_EQ(raw.type, 0x1234);
  EXPECT_EQ(raw.data, (std::vector<uint8_t>{0xde, 0xad}));
}

TEST(Handshake, ClientHelloRoundTrip) {
  ClientHello ch;
  ch.random.fill(0x42);
  ch.cipher_suites = {CipherSuite::kAes128GcmSha256,
                      CipherSuite::kChaCha20Poly1305Sha256};
  ch.extensions.push_back(SniExtension{"example.com"});
  ch.extensions.push_back(KeyShareExtension{
      {{static_cast<uint16_t>(NamedGroup::kX25519), {1, 2, 3, 4, 5, 6, 7, 8}}}});
  auto bytes = encode_handshake(ch);
  wire::Reader r(bytes);
  auto msg = decode_handshake(r);
  const auto& decoded = std::get<ClientHello>(msg);
  EXPECT_EQ(decoded.random, ch.random);
  EXPECT_EQ(decoded.cipher_suites, ch.cipher_suites);
  ASSERT_EQ(decoded.extensions.size(), 2u);
  EXPECT_EQ(find_sni(decoded.extensions)->host_name, "example.com");
}

TEST(Handshake, ServerHelloNegotiatedVersion) {
  ServerHello sh;
  EXPECT_EQ(sh.negotiated_version(), kVersion12);  // no extension -> legacy
  sh.extensions.push_back(SupportedVersionsExtension{{kVersion13}});
  EXPECT_EQ(sh.negotiated_version(), kVersion13);
}

TEST(Handshake, FlightRoundTrip) {
  EncryptedExtensions ee;
  ee.extensions.push_back(AlpnExtension{{"h3"}});
  Certificate cert;
  cert.subject_cn = "example.com";
  cert.issuer_cn = "CA";
  CertificateMessage cm;
  cm.chain.push_back(cert);
  Finished fin;
  fin.verify_data.assign(32, 0xaa);

  std::vector<uint8_t> flight;
  for (const HandshakeMessage& msg :
       std::initializer_list<HandshakeMessage>{ee, cm, fin}) {
    auto bytes = encode_handshake(msg);
    flight.insert(flight.end(), bytes.begin(), bytes.end());
  }
  auto decoded = decode_handshake_flight(flight);
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_TRUE(std::holds_alternative<EncryptedExtensions>(decoded[0].message));
  EXPECT_TRUE(std::holds_alternative<CertificateMessage>(decoded[1].message));
  EXPECT_TRUE(std::holds_alternative<Finished>(decoded[2].message));
}

TEST(Certificate, WildcardMatching) {
  EXPECT_TRUE(wildcard_match("example.com", "example.com"));
  EXPECT_FALSE(wildcard_match("example.com", "www.example.com"));
  EXPECT_TRUE(wildcard_match("*.example.com", "www.example.com"));
  EXPECT_FALSE(wildcard_match("*.example.com", "example.com"));
  EXPECT_FALSE(wildcard_match("*.example.com", "a.b.example.com"));
  EXPECT_FALSE(wildcard_match("*.example.com", "wwwexample.com"));
  EXPECT_FALSE(wildcard_match("*", "example.com"));
}

TEST(Certificate, MatchesHostViaSan) {
  Certificate cert;
  cert.subject_cn = "cdn.example";
  cert.san_dns = {"cdn.example", "*.customer.example"};
  EXPECT_TRUE(cert.matches_host("cdn.example"));
  EXPECT_TRUE(cert.matches_host("www.customer.example"));
  EXPECT_FALSE(cert.matches_host("other.example"));
}

TEST(Certificate, SignVerify) {
  Certificate cert;
  cert.subject_cn = "example.com";
  cert.issuer_cn = "Example CA";
  cert.serial = 7;
  std::vector<uint8_t> ca_key{1, 2, 3, 4};
  // The signature is a function of the issuer key and the signed
  // fields: the same inputs sign alike, another key or a changed
  // subject signs differently.
  auto signed_with = [](Certificate c, std::span<const uint8_t> key) {
    sign_certificate(c, key);
    return c.signature;
  };
  sign_certificate(cert, ca_key);
  EXPECT_FALSE(cert.signature.empty());
  EXPECT_EQ(signed_with(cert, ca_key), cert.signature);
  std::vector<uint8_t> other_key{9, 9, 9};
  EXPECT_NE(signed_with(cert, other_key), cert.signature);
  Certificate forged = cert;
  forged.subject_cn = "evil.com";
  EXPECT_TRUE(forged.self_signed() == false);
  EXPECT_NE(signed_with(forged, ca_key), cert.signature);
}

TEST(Certificate, EncodeDecodeFingerprint) {
  Certificate cert;
  cert.subject_cn = "example.com";
  cert.san_dns = {"example.com", "*.example.com"};
  cert.issuer_cn = "Example CA";
  cert.serial = 99;
  cert.not_before_day = 18700;
  cert.not_after_day = 18790;
  cert.public_key_id = 12345;
  sign_certificate(cert, std::vector<uint8_t>{5, 5});
  auto decoded = Certificate::decode(cert.encode());
  EXPECT_EQ(decoded, cert);
  EXPECT_EQ(decoded.fingerprint(), cert.fingerprint());
  // Rotation (new serial/validity) changes the fingerprint -- this is
  // what makes Google's weekly rotation visible in Table 5.
  Certificate rotated = cert;
  rotated.serial = 100;
  rotated.not_before_day += 7;
  rotated.not_after_day += 7;
  sign_certificate(rotated, std::vector<uint8_t>{5, 5});
  EXPECT_NE(rotated.fingerprint(), cert.fingerprint());
}

TEST(Certificate, SelfSigned) {
  Certificate cert;
  cert.subject_cn = "invalid2.invalid";
  cert.issuer_cn = "invalid2.invalid";
  EXPECT_TRUE(cert.self_signed());
}

TEST(KeySchedule, BothSidesDeriveSameSecrets) {
  // Simulate both endpoints feeding identical transcripts.
  std::vector<uint8_t> ch(100, 1), sh(80, 2), ee(60, 3), fin(36, 4);
  std::vector<uint8_t> shared{9, 8, 7, 6, 5, 4, 3, 2};
  KeySchedule client, server;
  for (auto* ks : {&client, &server}) {
    ks->add_message(ch);
    ks->add_message(sh);
    ks->derive_handshake_secrets(shared);
    ks->add_message(ee);
    ks->add_message(fin);
    ks->derive_application_secrets();
  }
  EXPECT_EQ(client.client_handshake_secret(), server.client_handshake_secret());
  EXPECT_EQ(client.server_application_secret(),
            server.server_application_secret());
  EXPECT_NE(client.client_handshake_secret(),
            client.server_handshake_secret());
}

TEST(KeySchedule, TranscriptSensitivity) {
  std::vector<uint8_t> shared{1, 2, 3};
  KeySchedule a, b;
  a.add_message(std::vector<uint8_t>{1, 2, 3});
  b.add_message(std::vector<uint8_t>{1, 2, 4});
  a.derive_handshake_secrets(shared);
  b.derive_handshake_secrets(shared);
  EXPECT_NE(a.client_handshake_secret(), b.client_handshake_secret());
}

TEST(KeySchedule, QuicAndTlsKeysDiffer) {
  std::vector<uint8_t> secret(32, 0x11);
  auto quic_keys = derive_traffic_keys(secret, KeyUsage::kQuic);
  auto tls_keys = derive_traffic_keys(secret, KeyUsage::kTls);
  EXPECT_NE(quic_keys.key, tls_keys.key);
  EXPECT_EQ(quic_keys.key.size(), 16u);
  EXPECT_EQ(quic_keys.iv.size(), 12u);
  ASSERT_TRUE(quic_keys.hp.has_value());
  EXPECT_EQ(quic_keys.hp->size(), 16u);
  EXPECT_FALSE(tls_keys.hp.has_value());  // TLS keys carry no hp
}

TEST(KeySchedule, Rfc8448SimpleHandshakeSecrets) {
  // RFC 8448 section 3 (no PSK): the early secret and its "derived"
  // secret are constants, and the handshake secret follows from the
  // (EC)DHE shared secret.
  const auto shared = wire::from_hex(
      "8bd4054fb55b9d63fdfbacf9f04b9f0d35e6d63f537563efd46272900f89492d");
  const std::vector<uint8_t> zeros(32, 0);
  for (crypto::Backend backend : sha256_kernel_backends()) {
    crypto::ScopedBackendOverride force(backend);
    SCOPED_TRACE(crypto::backend_name(backend));
    auto early = crypto::hkdf_extract({}, zeros);
    EXPECT_EQ(wire::to_hex(early),
              "33ad0a1c607ec03b09e6cd9893680ce210adf300aa1f2660e1b22e10f170f92a");
    auto derived = crypto::hkdf_expand_label(
        early, "derived", crypto::Sha256::hash({}), 32);
    EXPECT_EQ(wire::to_hex(derived),
              "6f2615a108c702c5678f54fc9dbab69716c076189c48250cebeac3576c3611ba");
    EXPECT_EQ(wire::to_hex(crypto::hkdf_extract(derived, shared)),
              "1dc826e93606aa6fdc0aadc12f741b01046aa6b99f691ed221a9f0ca043fbeac");
  }
}

TEST(KeySchedule, MatchesSpanWrapperReferenceOnRandomHandshakes) {
  // KeySchedule derives from cached HMAC keys (process-wide for the
  // early "derived" secret, per schedule for the handshake secret);
  // the reference spells RFC 8446 section 7.1 out with one-off keys.
  const std::vector<uint8_t> zeros(32, 0);
  const auto empty_hash = crypto::Sha256::hash({});
  auto label = [](std::span<const uint8_t> secret, const char* name,
                  std::span<const uint8_t> context) {
    return crypto::hkdf_expand_label(secret, name, context, 32);
  };
  auto finished = [&](std::span<const uint8_t> secret,
                      std::span<const uint8_t> th) {
    return crypto::hmac_sha256(label(secret, "finished", {}), th);
  };
  crypto::Rng rng(0x8446);
  for (crypto::Backend backend : sha256_kernel_backends()) {
    crypto::ScopedBackendOverride force(backend);
    for (int round = 0; round < 16; ++round) {
      SCOPED_TRACE(std::string(crypto::backend_name(backend)) + " round " +
                   std::to_string(round));
      const auto shared = rng.bytes(1 + rng.below(64));
      const auto hello = rng.bytes(rng.below(600));
      const auto server_flight = rng.bytes(rng.below(1500));
      const auto server_fin = rng.bytes(36);

      KeySchedule ks;
      ks.add_message(hello);
      ks.derive_handshake_secrets(shared);
      ks.add_message(server_flight);
      const auto server_finished =
          ks.finished_verify_data(ks.server_handshake_key());
      ks.add_message(server_fin);
      ks.derive_application_secrets();
      const auto client_finished =
          ks.finished_verify_data(ks.client_handshake_key());

      std::vector<uint8_t> transcript = hello;
      const auto th_hello = crypto::Sha256::hash(transcript);
      transcript.insert(transcript.end(), server_flight.begin(),
                        server_flight.end());
      const auto th_flight = crypto::Sha256::hash(transcript);
      transcript.insert(transcript.end(), server_fin.begin(),
                        server_fin.end());
      const auto th_fin = crypto::Sha256::hash(transcript);

      const auto early = crypto::hkdf_extract({}, zeros);
      const auto hs = crypto::hkdf_extract(
          label(early, "derived", empty_hash), shared);
      const auto client_hs = label(hs, "c hs traffic", th_hello);
      const auto server_hs = label(hs, "s hs traffic", th_hello);
      const auto master = crypto::hkdf_extract(
          label(hs, "derived", empty_hash), zeros);
      auto bytes = [](const crypto::Sha256Digest& secret) {
        return std::vector<uint8_t>(secret.begin(), secret.end());
      };
      EXPECT_EQ(bytes(ks.client_handshake_secret()), client_hs);
      EXPECT_EQ(bytes(ks.server_handshake_secret()), server_hs);
      EXPECT_EQ(bytes(ks.client_application_secret()),
                label(master, "c ap traffic", th_fin));
      EXPECT_EQ(bytes(ks.server_application_secret()),
                label(master, "s ap traffic", th_fin));
      EXPECT_EQ(server_finished, finished(server_hs, th_flight));
      EXPECT_EQ(client_finished, finished(client_hs, th_fin));
    }
  }
}

TEST(Record, PlaintextRoundTrip) {
  Record rec;
  rec.type = ContentType::kHandshake;
  rec.payload = {1, 2, 3, 4};
  auto bytes = encode_record(rec);
  auto records = decode_records(bytes);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, ContentType::kHandshake);
  EXPECT_EQ(records[0].payload, rec.payload);
}

TEST(Record, StreamOfRecords) {
  std::vector<uint8_t> stream;
  for (int i = 0; i < 3; ++i) {
    Record rec;
    rec.type = ContentType::kHandshake;
    rec.payload = std::vector<uint8_t>(static_cast<size_t>(i + 1),
                                       static_cast<uint8_t>(i));
    auto bytes = encode_record(rec);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  EXPECT_EQ(decode_records(stream).size(), 3u);
}

TEST(Record, CrypterSealOpen) {
  crypto::Rng rng(3);
  TrafficKeys keys;
  rng.fill(keys.key);
  rng.fill(keys.iv);
  RecordCrypter tx(keys), rx(keys);
  for (int i = 0; i < 5; ++i) {  // sequence numbers advance in step
    auto payload = rng.bytes(50);
    auto bytes = tx.seal(ContentType::kHandshake, payload);
    auto records = decode_records(bytes);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].type, ContentType::kApplicationData);
    auto opened = rx.open(records[0]);
    ASSERT_TRUE(opened.has_value()) << "record " << i;
    EXPECT_EQ(opened->type, ContentType::kHandshake);
    EXPECT_EQ(opened->payload, payload);
  }
}

TEST(Record, CrypterRejectsTampering) {
  crypto::Rng rng(4);
  TrafficKeys keys;
  rng.fill(keys.key);
  rng.fill(keys.iv);
  RecordCrypter tx(keys), rx(keys);
  auto bytes = tx.seal(ContentType::kApplicationData, rng.bytes(20));
  bytes[bytes.size() - 1] ^= 1;
  auto records = decode_records(bytes);
  EXPECT_FALSE(rx.open(records[0]).has_value());
}

TEST(Record, WrongKeysCannotOpen) {
  crypto::Rng rng(5);
  TrafficKeys keys1, keys2;
  rng.fill(keys1.key);
  rng.fill(keys1.iv);
  rng.fill(keys2.key);
  rng.fill(keys2.iv);
  RecordCrypter tx(keys1), rx(keys2);
  auto bytes = tx.seal(ContentType::kApplicationData, rng.bytes(20));
  EXPECT_FALSE(rx.open(decode_records(bytes)[0]).has_value());
}

TEST(Types, AlertAndCipherNames) {
  EXPECT_EQ(alert_name(AlertDescription::kHandshakeFailure),
            "handshake_failure");
  EXPECT_EQ(static_cast<int>(AlertDescription::kHandshakeFailure), 0x28);
  EXPECT_EQ(cipher_suite_name(CipherSuite::kAes128GcmSha256),
            "TLS_AES_128_GCM_SHA256");
  EXPECT_EQ(named_group_name(NamedGroup::kX25519), "x25519");
}

TEST(Record, OutOfOrderSequenceFailsToOpen) {
  crypto::Rng rng(6);
  TrafficKeys keys;
  rng.fill(keys.key);
  rng.fill(keys.iv);
  RecordCrypter tx(keys), rx(keys);
  auto first = tx.seal(ContentType::kApplicationData, rng.bytes(10));
  auto second = tx.seal(ContentType::kApplicationData, rng.bytes(10));
  // Opening the second record first uses the wrong nonce sequence.
  EXPECT_FALSE(rx.open(decode_records(second)[0]).has_value());
  // And the in-order record still opens (failed opens do not advance).
  EXPECT_TRUE(rx.open(decode_records(first)[0]).has_value());
}

TEST(Certificate, EmptySanListStillMatchesCn) {
  Certificate cert;
  cert.subject_cn = "single.example";
  cert.issuer_cn = "CA";
  EXPECT_TRUE(cert.matches_host("single.example"));
  EXPECT_FALSE(cert.matches_host("other.example"));
}

TEST(Handshake, EmptyAlpnListRejectedOnWire) {
  // RFC 7301 forbids empty protocol names; the codec enforces it.
  std::vector<Extension> exts{AlpnExtension{{""}}};
  wire::Writer w;
  EXPECT_THROW(encode_extensions(w, exts, HandshakeContext::kClientHello),
               std::invalid_argument);
}

/// --- TLS-over-TCP: TlsClient against TlsServerSession ----------------

TlsServerConfig tcp_server_config() {
  TlsServerConfig config;
  config.select_certificate =
      [](const std::optional<std::string>&) -> std::optional<Certificate> {
    Certificate cert;
    cert.subject_cn = "example.com";
    cert.san_dns = {"example.com", "*.example.com"};
    cert.issuer_cn = "Example CA";
    cert.public_key_id = 777;
    return cert;
  };
  config.http_responder = [](const std::string& request) {
    return "HTTP/1.1 200 OK\r\nx-request-bytes: " +
           std::to_string(request.size()) + "\r\n\r\n";
  };
  return config;
}

TlsClientResult run_tcp(const TlsServerConfig& config,
                        std::optional<std::string> sni,
                        std::vector<std::string> alpn = {"h2", "http/1.1"},
                        const std::optional<std::string>& request = {}) {
  TlsServerSession server(config, crypto::Rng(2));
  TlsClient client(crypto::Rng(1), std::move(sni), std::move(alpn));
  return client.run(
      [&](std::span<const uint8_t> data) { return server.on_data(data); },
      request);
}

TEST(TlsOverTcp, Tls13WithSniAndHttp) {
  auto result = run_tcp(tcp_server_config(), "www.example.com",
                        {"h2", "http/1.1"}, "GET / HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(result.handshake_ok);
  EXPECT_FALSE(result.alert.has_value());
  EXPECT_EQ(result.details.negotiated_version, 0x0304);
  EXPECT_EQ(result.details.cipher_suite, CipherSuite::kAes128GcmSha256);
  EXPECT_EQ(result.details.key_exchange_group, 0x001d);
  ASSERT_EQ(result.details.certificate_chain.size(), 1u);
  EXPECT_EQ(result.details.certificate_chain[0].subject_cn, "example.com");
  EXPECT_EQ(result.details.selected_alpn, "h2");
  EXPECT_TRUE(result.details.sni_echoed);
  EXPECT_EQ(result.details.server_extensions,
            (std::vector<uint16_t>{0, 16, 43, 51}));
  EXPECT_EQ(result.http_response,
            "HTTP/1.1 200 OK\r\nx-request-bytes: 18\r\n\r\n");
}

TEST(TlsOverTcp, NoCertificateAlertsHandshakeFailure) {
  auto config = tcp_server_config();
  config.select_certificate = [](const std::optional<std::string>&) {
    return std::optional<Certificate>{};
  };
  auto result = run_tcp(config, "www.example.com");
  EXPECT_FALSE(result.handshake_ok);
  EXPECT_EQ(result.alert, AlertDescription::kHandshakeFailure);
}

TEST(TlsOverTcp, AlpnMismatchAlertsNoApplicationProtocol) {
  auto result = run_tcp(tcp_server_config(), "www.example.com", {"h3"});
  EXPECT_FALSE(result.handshake_ok);
  EXPECT_EQ(result.alert, AlertDescription::kNoApplicationProtocol);
}

TEST(TlsOverTcp, Tls12OnlyServerSendsTheLegacyFlight) {
  auto config = tcp_server_config();
  config.max_version = kVersion12;
  auto result = run_tcp(config, "www.example.com");
  EXPECT_TRUE(result.handshake_ok);
  EXPECT_EQ(result.details.negotiated_version, 0x0303);
  EXPECT_EQ(result.details.cipher_suite,
            CipherSuite::kEcdheRsaAes128GcmSha256);
  EXPECT_EQ(result.details.certificate_chain.size(), 1u);
}

TEST(TlsOverTcp, SilentSniLeavesTheServerNameCodepointOut) {
  auto config = tcp_server_config();
  config.echo_sni = false;
  auto result = run_tcp(config, "www.example.com");
  ASSERT_TRUE(result.handshake_ok);
  EXPECT_FALSE(result.details.sni_echoed);
  EXPECT_EQ(result.details.server_extensions,
            (std::vector<uint16_t>{16, 43, 51}));
}

TEST(TlsOverTcp, MalformedEncryptedMessageFailsTheHandshake) {
  // The server answers a real ServerHello, then seals an
  // EncryptedExtensions that claims 5 body bytes and carries 1. The
  // client must record a failed handshake, not throw: one such server
  // would otherwise abort a whole campaign.
  auto exchange = [](std::span<const uint8_t> data) {
    auto records = decode_records(data);
    wire::Reader reader(records.at(0).payload);
    auto ch = std::get<ClientHello>(decode_handshake(reader));
    const KeyShareEntry& share = find_key_share(ch.extensions)->entries.at(0);
    KeySchedule schedule;
    schedule.add_message(records[0].payload);
    auto pair = crypto::dh_generate(42);
    ServerHello sh;
    sh.extensions.push_back(SupportedVersionsExtension{{kVersion13}});
    const auto public_bytes = crypto::dh_encode(pair.public_value);
    sh.extensions.push_back(KeyShareExtension{
        {{share.group, {public_bytes.begin(), public_bytes.end()}}}});
    Record sh_record;
    sh_record.payload = encode_handshake(sh);
    schedule.add_message(sh_record.payload);
    schedule.derive_handshake_secrets(crypto::dh_encode(crypto::dh_shared(
        pair.secret, crypto::dh_decode(share.key_exchange))));
    RecordCrypter tx(derive_traffic_keys(schedule.server_handshake_key(),
                                         KeyUsage::kTls));
    std::vector<uint8_t> flight = encode_record(sh_record);
    const uint8_t truncated_ee[] = {0x08, 0x00, 0x00, 0x05, 0x00};
    tx.seal_into(ContentType::kHandshake, truncated_ee, flight);
    return flight;
  };
  TlsClient client(crypto::Rng(1), "www.example.com", {"h2"});
  TlsClientResult result;
  ASSERT_NO_THROW(result = client.run(exchange, std::nullopt));
  EXPECT_FALSE(result.handshake_ok);
  EXPECT_FALSE(result.alert.has_value());
}

/// Key shares no endpoint can use: short, long, and 8 bytes outside the
/// DH group's range.
std::vector<std::vector<uint8_t>> malformed_key_shares() {
  return {std::vector<uint8_t>(4, 0x42), std::vector<uint8_t>(9, 0x42),
          std::vector<uint8_t>(8, 0x00)};
}

/// An x25519 key_share carrying `share`, or none when nullopt.
void add_key_share(std::vector<Extension>& extensions,
                   const std::optional<std::vector<uint8_t>>& share) {
  if (share)
    extensions.push_back(KeyShareExtension{
        {{static_cast<uint16_t>(NamedGroup::kX25519), *share}}});
}

TEST(TlsOverTcp, ClientTreatsAMalformedServerKeyShareAsMissing) {
  // The share used to reach the DH decoder, whose exception escaped
  // TlsClient::run and ended the scanner's whole campaign chunk.
  auto run = [](const std::optional<std::vector<uint8_t>>& share) {
    auto exchange = [&](std::span<const uint8_t>) {
      ServerHello sh;
      sh.extensions.push_back(SupportedVersionsExtension{{kVersion13}});
      add_key_share(sh.extensions, share);
      Record record;
      record.payload = encode_handshake(sh);
      return encode_record(record);
    };
    TlsClient client(crypto::Rng(1), "www.example.com", {"h2"});
    return client.run(exchange, std::nullopt);
  };
  const TlsClientResult missing = run(std::nullopt);
  EXPECT_FALSE(missing.handshake_ok);
  EXPECT_FALSE(missing.alert.has_value());
  for (const auto& share : malformed_key_shares()) {
    SCOPED_TRACE(wire::to_hex(share));
    TlsClientResult result;
    ASSERT_NO_THROW(result = run(share));
    EXPECT_EQ(result.handshake_ok, missing.handshake_ok);
    EXPECT_EQ(result.alert, missing.alert);
    EXPECT_EQ(result.details.key_exchange_group,
              missing.details.key_exchange_group);
  }
}

TEST(TlsOverTcp, ServerTreatsAMalformedClientKeyShareAsMissing) {
  const auto config = tcp_server_config();
  auto alert = [&](const std::optional<std::vector<uint8_t>>& share) {
    ClientHello ch;
    ch.cipher_suites = {CipherSuite::kAes128GcmSha256};
    ch.extensions.push_back(SupportedVersionsExtension{{kVersion13}});
    add_key_share(ch.extensions, share);
    Record record;
    record.payload = encode_handshake(ch);
    TlsServerSession server(config, crypto::Rng(2));
    const auto reply = decode_records(server.on_data(encode_record(record)));
    EXPECT_EQ(reply.size(), 1u);
    EXPECT_EQ(reply.at(0).type, ContentType::kAlert);
    return reply.at(0).payload;
  };
  const std::vector<uint8_t> missing = alert(std::nullopt);
  EXPECT_EQ(missing,
            (std::vector<uint8_t>{
                2, static_cast<uint8_t>(AlertDescription::kMissingExtension)}));
  for (const auto& share : malformed_key_shares()) {
    SCOPED_TRACE(wire::to_hex(share));
    std::vector<uint8_t> answer;
    ASSERT_NO_THROW(answer = alert(share));
    EXPECT_EQ(answer, missing);
  }
}

}  // namespace
