// End-to-end QUIC handshake tests: ClientConnection <-> ServerConnection
// over a direct loopback, covering the success path and every failure
// mode the paper's Table 3 classifies (version mismatch, crypto error
// 0x128, stall/timeout), plus TLS/transport-parameter extraction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>

#include "crypto/sha256.h"
#include "quic/assembler.h"
#include "quic/connection.h"
#include "tls/endpoint.h"

namespace {

using namespace quic;

tls::Certificate make_cert(const std::string& cn,
                           std::vector<std::string> sans,
                           const std::string& issuer = "Example CA") {
  tls::Certificate cert;
  cert.subject_cn = cn;
  cert.san_dns = std::move(sans);
  cert.issuer_cn = issuer;
  cert.serial = 42;
  cert.not_before_day = 100;
  cert.not_after_day = 190;
  cert.public_key_id = 777;
  std::vector<uint8_t> ca_key{1, 2, 3};
  tls::sign_certificate(cert, ca_key);
  return cert;
}

DeploymentBehavior default_behavior() {
  DeploymentBehavior b;
  b.handshake_versions = {kVersion1, kDraft29};
  b.advertised_versions = {kVersion1, kDraft29};
  b.alpn = {"h3", "h3-29"};
  b.transport_params.initial_max_data = 1048576;
  b.transport_params.initial_max_stream_data_bidi_local = 65536;
  b.transport_params.max_udp_payload_size = 1500;
  auto cert = make_cert("example.com", {"example.com", "*.example.com"});
  b.select_certificate =
      [cert](const std::optional<std::string>&) -> std::optional<tls::Certificate> {
    return cert;
  };
  b.http_responder = [](const std::string&) {
    return "HTTP/1.1 200 OK\r\nserver: testd\r\n\r\n";
  };
  return b;
}

/// Queued loopback harness: datagrams are dispatched from a FIFO pump,
/// never reentrantly, so server sessions can be replaced safely (a new
/// Initial DCID -- version retry or post-Retry -- gets a fresh session,
/// as a real deployment's demultiplexer would provide).
struct Loopback {
  const DeploymentBehavior& behavior;
  uint64_t seed;
  std::unique_ptr<ServerConnection> server;
  ClientConnection* client = nullptr;
  std::vector<uint8_t> session_dcid;
  std::deque<std::pair<bool, std::vector<uint8_t>>> queue;  // to_server?
  std::vector<std::vector<uint8_t>> from_server;  // in delivery order

  explicit Loopback(const DeploymentBehavior& b, uint64_t s)
      : behavior(b), seed(s) {}

  void pump() {
    while (!queue.empty()) {
      auto [to_server, datagram] = std::move(queue.front());
      queue.pop_front();
      if (to_server) {
        auto info = peek_datagram(datagram);
        if (!server || (info && info->long_header &&
                        info->type == PacketType::kInitial &&
                        info->dcid != session_dcid)) {
          if (info) session_dcid = info->dcid;
          server = std::make_unique<ServerConnection>(
              behavior, crypto::Rng(seed + 1),
              [this](std::vector<uint8_t> reply) {
                queue.emplace_back(false, std::move(reply));
              });
        }
        server->on_datagram(datagram);
      } else if (client) {
        from_server.push_back(datagram);
        client->on_datagram(datagram);
      }
    }
  }
};

/// Runs a handshake over a zero-latency loopback; returns the report
/// and, when `from_server` is set, every server datagram in order.
ClientReport run_handshake(
    ClientConfig config, const DeploymentBehavior& behavior,
    uint64_t seed = 1,
    std::vector<std::vector<uint8_t>>* from_server = nullptr) {
  Loopback loopback(behavior, seed);
  ClientConnection client(
      std::move(config), crypto::Rng(seed),
      [&](std::vector<uint8_t> datagram) {
        loopback.queue.emplace_back(true, std::move(datagram));
      },
      /*done=*/nullptr);
  loopback.client = &client;
  client.start();
  loopback.pump();
  if (from_server) *from_server = std::move(loopback.from_server);
  return client.report();
}

/// Key shares no endpoint can use: short, long, and 8 bytes outside the
/// DH group's range.
std::vector<std::vector<uint8_t>> malformed_key_shares() {
  return {std::vector<uint8_t>(4, 0x42), std::vector<uint8_t>(9, 0x42),
          std::vector<uint8_t>(8, 0x00)};
}

/// The client's report once its first Initial is answered by a
/// ServerHello whose x25519 key_share carries `share` (no key_share at
/// all when nullopt).
ClientReport client_meets_server_share(
    std::optional<std::vector<uint8_t>> share) {
  std::vector<uint8_t> first;
  ClientConfig config;
  config.sni = "www.example.com";
  ClientConnection client(
      config, crypto::Rng(3),
      [&](std::vector<uint8_t> datagram) { first = std::move(datagram); },
      nullptr);
  client.start();
  const auto info = peek_datagram(first);
  tls::ServerHello sh;
  sh.extensions.push_back(tls::SupportedVersionsExtension{{tls::kVersion13}});
  if (share)
    sh.extensions.push_back(tls::KeyShareExtension{
        {{static_cast<uint16_t>(tls::NamedGroup::kX25519), *share}}});
  Packet initial;
  initial.type = PacketType::kInitial;
  initial.version = kVersion1;
  initial.dcid = info->scid;
  initial.scid = ConnectionId(8, 0x5e);
  initial.payload = encode_frames({CryptoFrame{0, tls::encode_handshake(sh)}});
  client.on_datagram(
      PacketProtector::for_initial(kVersion1, info->dcid, /*is_server=*/true)
          .protect(initial));
  return client.report();
}

/// The CONNECTION_CLOSE a server answers with when a ClientHello's
/// x25519 key_share carries `share` (no key_share at all when nullopt).
ConnectionCloseFrame server_meets_client_share(
    std::optional<std::vector<uint8_t>> share) {
  tls::ClientHello ch;
  ch.cipher_suites = {tls::CipherSuite::kAes128GcmSha256};
  ch.extensions.push_back(tls::SupportedVersionsExtension{{tls::kVersion13}});
  if (share)
    ch.extensions.push_back(tls::KeyShareExtension{
        {{static_cast<uint16_t>(tls::NamedGroup::kX25519), *share}}});
  const ConnectionId dcid(8, 0xd1);
  Packet initial;
  initial.type = PacketType::kInitial;
  initial.version = kVersion1;
  initial.dcid = dcid;
  initial.scid = ConnectionId(8, 0xc1);
  initial.payload = encode_frames(
      {CryptoFrame{0, tls::encode_handshake(ch)}, PaddingFrame{1100}});
  const auto behavior = default_behavior();
  std::vector<std::vector<uint8_t>> replies;
  ServerConnection server(behavior, crypto::Rng(4),
                          [&](std::vector<uint8_t> datagram) {
                            replies.push_back(std::move(datagram));
                          });
  server.on_datagram(
      PacketProtector::for_initial(kVersion1, dcid, /*is_server=*/false)
          .protect(initial));
  EXPECT_TRUE(server.closed());
  if (replies.size() != 1) return {};
  size_t offset = 0;
  const auto reply =
      PacketProtector::for_initial(kVersion1, dcid, /*is_server=*/true)
          .unprotect(replies[0], offset);
  if (!reply) return {};
  const auto frames = decode_frames(reply->payload);
  const auto* close = find_close(frames);
  return close ? *close : ConnectionCloseFrame{};
}

TEST(Handshake, ClientTreatsAMalformedServerKeyShareAsMissing) {
  // The share used to reach the DH decoder, whose exception escaped
  // on_datagram and ended the scanner's whole campaign chunk.
  const ClientReport missing = client_meets_server_share(std::nullopt);
  EXPECT_EQ(missing.result, ConnectResult::kInternalError);
  for (const auto& share : malformed_key_shares()) {
    SCOPED_TRACE(wire::to_hex(share));
    ClientReport report;
    ASSERT_NO_THROW(report = client_meets_server_share(share));
    EXPECT_EQ(report.result, missing.result);
    EXPECT_EQ(report.tls.key_exchange_group, missing.tls.key_exchange_group);
  }
}

TEST(Handshake, ServerTreatsAMalformedClientKeyShareAsMissing) {
  const ConnectionCloseFrame missing = server_meets_client_share(std::nullopt);
  EXPECT_EQ(missing.error_code,
            crypto_error(static_cast<uint8_t>(
                tls::AlertDescription::kMissingExtension)));
  EXPECT_EQ(missing.reason_phrase, "missing key_share");
  for (const auto& share : malformed_key_shares()) {
    SCOPED_TRACE(wire::to_hex(share));
    ConnectionCloseFrame close;
    ASSERT_NO_THROW(close = server_meets_client_share(share));
    EXPECT_EQ(close, missing);
  }
}

TEST(Handshake, SuccessWithSniAndHttp) {
  ClientConfig config;
  config.version = kVersion1;
  config.sni = "www.example.com";
  config.alpn = {"h3"};
  config.http_request = "HEAD / HTTP/1.1\r\nhost: www.example.com\r\n\r\n";
  auto report = run_handshake(config, default_behavior());
  EXPECT_EQ(report.result, ConnectResult::kSuccess);
  EXPECT_EQ(report.negotiated_version, kVersion1);
  EXPECT_TRUE(report.handshake_done_seen);
  ASSERT_TRUE(report.http_response.has_value());
  EXPECT_NE(report.http_response->find("server: testd"), std::string::npos);
}

TEST(Handshake, TlsDetailsExtracted) {
  ClientConfig config;
  config.version = kVersion1;
  config.sni = "www.example.com";
  config.alpn = {"h3"};
  auto report = run_handshake(config, default_behavior());
  ASSERT_EQ(report.result, ConnectResult::kSuccess);
  EXPECT_EQ(report.tls.negotiated_version, tls::kVersion13);
  EXPECT_EQ(report.tls.cipher_suite, tls::CipherSuite::kAes128GcmSha256);
  EXPECT_EQ(report.tls.key_exchange_group,
            static_cast<uint16_t>(tls::NamedGroup::kX25519));
  ASSERT_EQ(report.tls.certificate_chain.size(), 1u);
  EXPECT_EQ(report.tls.certificate_chain[0].subject_cn, "example.com");
  EXPECT_TRUE(report.tls.certificate_chain[0].matches_host("www.example.com"));
  EXPECT_EQ(report.tls.selected_alpn, "h3");
  EXPECT_TRUE(report.tls.sni_echoed);
}

TEST(Handshake, ServerTransportParamsExtracted) {
  ClientConfig config;
  config.version = kVersion1;
  config.sni = "example.com";
  config.alpn = {"h3"};
  auto behavior = default_behavior();
  auto report = run_handshake(config, behavior);
  ASSERT_EQ(report.result, ConnectResult::kSuccess);
  EXPECT_EQ(report.server_transport_params.initial_max_data, 1048576u);
  EXPECT_EQ(report.server_transport_params.max_udp_payload_size, 1500u);
  // Session-specific parameters were set by the server...
  EXPECT_TRUE(
      report.server_transport_params.stateless_reset_token.has_value());
  EXPECT_TRUE(report.server_transport_params.original_destination_connection_id
                  .has_value());
  // ...but the config key matches the behavior's template.
  EXPECT_EQ(report.server_transport_params.config_key(),
            behavior.transport_params.config_key());
}

TEST(Handshake, SuccessOnDraft29UsesDraftCodepointAndSalt) {
  ClientConfig config;
  config.version = kDraft29;
  config.sni = "example.com";
  config.alpn = {"h3-29"};
  auto report = run_handshake(config, default_behavior());
  EXPECT_EQ(report.result, ConnectResult::kSuccess);
  EXPECT_EQ(report.negotiated_version, kDraft29);
  EXPECT_EQ(report.tls.selected_alpn, "h3-29");
}

TEST(Handshake, NoSniRejectedWhenCertificateRequiresIt) {
  auto behavior = default_behavior();
  behavior.handshake_failure_reason = "tls: no application protocol";
  behavior.select_certificate =
      [](const std::optional<std::string>& sni)
      -> std::optional<tls::Certificate> {
    if (!sni) return std::nullopt;  // SNI required
    return make_cert(*sni, {*sni});
  };
  ClientConfig config;
  config.version = kVersion1;
  config.alpn = {"h3"};
  auto report = run_handshake(config, behavior);
  EXPECT_EQ(report.result, ConnectResult::kCryptoError);
  EXPECT_EQ(report.close_error_code, 0x128u);  // the paper's alert
  EXPECT_EQ(report.close_reason, "tls: no application protocol");
}

TEST(Handshake, AlwaysFailureDeployment) {
  auto behavior = default_behavior();
  behavior.always_handshake_failure = true;
  behavior.handshake_failure_reason = "handshake failure";
  ClientConfig config;
  config.version = kVersion1;
  config.sni = "example.com";
  auto report = run_handshake(config, behavior);
  EXPECT_EQ(report.result, ConnectResult::kCryptoError);
  EXPECT_EQ(report.close_error_code, 0x128u);
}

TEST(Handshake, VersionNegotiationRetrySucceeds) {
  auto behavior = default_behavior();
  behavior.handshake_versions = {kDraft29};
  behavior.advertised_versions = {kDraft29, kQ050, kQ046};
  ClientConfig config;
  config.version = kVersion1;  // not supported; server answers VN
  config.compatible_versions = {kVersion1, kDraft34, kDraft32, kDraft29};
  config.sni = "example.com";
  config.alpn = {"h3-29", "h3"};
  auto report = run_handshake(config, behavior);
  EXPECT_EQ(report.result, ConnectResult::kSuccess);
  EXPECT_EQ(report.negotiated_version, kDraft29);
  EXPECT_EQ(report.version_retries, 1);
  EXPECT_EQ(report.peer_versions,
            (std::vector<Version>{kDraft29, kQ050, kQ046}));
}

TEST(Handshake, GoogleStyleVersionMismatch) {
  // The paper's most unexpected error: the server advertises draft-29 in
  // VN but cannot complete a handshake with it (iterative IETF roll-out
  // at Google, section 5). The client offers draft-29, receives VN
  // listing draft-29 -> mismatch.
  auto behavior = default_behavior();
  behavior.handshake_versions = {kQ050, kQ046, kQ043};  // gQUIC only
  behavior.advertised_versions = {kDraft29, kT051, kQ050, kQ046, kQ043};
  ClientConfig config;
  config.version = kDraft29;
  config.compatible_versions = {kDraft29, kDraft32, kDraft34};
  config.sni = "example.com";
  auto report = run_handshake(config, behavior);
  EXPECT_EQ(report.result, ConnectResult::kVersionMismatch);
  EXPECT_EQ(report.peer_versions.size(), 5u);
}

TEST(Handshake, StallYieldsPending) {
  auto behavior = default_behavior();
  behavior.stall_handshake = true;  // middlebox swallows the Initial
  ClientConfig config;
  config.version = kVersion1;
  config.sni = "example.com";
  auto report = run_handshake(config, behavior);
  EXPECT_EQ(report.result, ConnectResult::kPending);  // caller -> timeout
}

TEST(Handshake, NoCommonAlpnFails) {
  auto behavior = default_behavior();
  behavior.alpn = {"h3-27"};
  ClientConfig config;
  config.version = kVersion1;
  config.sni = "example.com";
  config.alpn = {"h3"};
  auto report = run_handshake(config, behavior);
  EXPECT_EQ(report.result, ConnectResult::kCryptoError);
  EXPECT_EQ(report.close_error_code,
            crypto_error(static_cast<uint8_t>(
                tls::AlertDescription::kNoApplicationProtocol)));
}

TEST(Handshake, CertificateSelectionBySni) {
  auto cert_a = make_cert("a.example", {"a.example"});
  auto cert_b = make_cert("b.example", {"b.example"});
  auto behavior = default_behavior();
  behavior.select_certificate =
      [&](const std::optional<std::string>& sni)
      -> std::optional<tls::Certificate> {
    if (sni == "a.example") return cert_a;
    if (sni == "b.example") return cert_b;
    return std::nullopt;
  };
  ClientConfig config;
  config.version = kVersion1;
  config.alpn = {"h3"};
  config.sni = "b.example";
  auto report = run_handshake(config, behavior);
  ASSERT_EQ(report.result, ConnectResult::kSuccess);
  ASSERT_EQ(report.tls.certificate_chain.size(), 1u);
  EXPECT_EQ(report.tls.certificate_chain[0].subject_cn, "b.example");
}

TEST(Handshake, SuccessWithoutSniWhenDefaultCertExists) {
  ClientConfig config;
  config.version = kVersion1;
  config.alpn = {"h3"};
  auto report = run_handshake(config, default_behavior());
  EXPECT_EQ(report.result, ConnectResult::kSuccess);
  EXPECT_FALSE(report.tls.sni_echoed);
}

class HandshakeVersionMatrix : public ::testing::TestWithParam<Version> {};

TEST_P(HandshakeVersionMatrix, FullHandshakePerVersion) {
  auto behavior = default_behavior();
  behavior.handshake_versions = {GetParam()};
  behavior.advertised_versions = {GetParam()};
  behavior.alpn = {"h3", "h3-29", "h3-32", "h3-34", "h3-27", "h3-28"};
  ClientConfig config;
  config.version = GetParam();
  config.sni = "example.com";
  config.alpn = {"h3", "h3-29", "h3-32", "h3-34", "h3-27", "h3-28"};
  auto report = run_handshake(config, behavior);
  EXPECT_EQ(report.result, ConnectResult::kSuccess)
      << version_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllIetfVersions, HandshakeVersionMatrix,
                         ::testing::Values(kVersion1, kDraft29, kDraft32,
                                           kDraft34, kDraft28, kDraft27));

TEST(Handshake, DistinctSeedsDistinctConnectionIds) {
  // Determinism check: same seed -> same wire bytes; different seed ->
  // different DCIDs (and so different Initial keys).
  std::vector<uint8_t> first_a, first_b, first_c;
  auto capture = [](std::vector<uint8_t>& out) {
    return [&out](std::vector<uint8_t> d) {
      if (out.empty()) out = std::move(d);
    };
  };
  ClientConfig config;
  config.version = kVersion1;
  ClientConnection a(config, crypto::Rng(5), capture(first_a), nullptr);
  ClientConnection b(config, crypto::Rng(5), capture(first_b), nullptr);
  ClientConnection c(config, crypto::Rng(6), capture(first_c), nullptr);
  a.start();
  b.start();
  c.start();
  EXPECT_EQ(first_a, first_b);
  EXPECT_NE(first_a, first_c);
}

TEST(Handshake, RetryAddressValidation) {
  auto behavior = default_behavior();
  behavior.require_retry = true;
  ClientConfig config;
  config.version = kVersion1;
  config.sni = "www.example.com";
  config.alpn = {"h3"};
  config.http_request = "HEAD / HTTP/1.1\r\n\r\n";
  auto report = run_handshake(config, behavior);
  EXPECT_EQ(report.result, ConnectResult::kSuccess);
  EXPECT_TRUE(report.retry_used);
  // RFC 9000 section 7.3: the server authenticates the Retry exchange
  // in its transport parameters.
  EXPECT_TRUE(
      report.server_transport_params.retry_source_connection_id.has_value());
  EXPECT_TRUE(report.server_transport_params.original_destination_connection_id
                  .has_value());
}

TEST(Handshake, RetryOnDraft29UsesDraftIntegrityKeys) {
  auto behavior = default_behavior();
  behavior.require_retry = true;
  behavior.handshake_versions = {kDraft29};
  behavior.advertised_versions = {kDraft29};
  ClientConfig config;
  config.version = kDraft29;
  config.sni = "example.com";
  config.alpn = {"h3-29"};
  auto report = run_handshake(config, behavior);
  EXPECT_EQ(report.result, ConnectResult::kSuccess);
  EXPECT_TRUE(report.retry_used);
}

TEST(Retry, EncodeDecodeRoundTripAndTamperRejection) {
  RetryPacket retry;
  retry.version = kVersion1;
  retry.dcid = {1, 2, 3, 4};
  retry.scid = {5, 6, 7, 8, 9, 10, 11, 12};
  retry.token = {'r', 't', 0xaa, 0xbb};
  std::vector<uint8_t> odcid{9, 9, 9, 9, 9, 9, 9, 9};
  auto bytes = encode_retry(retry, odcid);
  auto decoded = decode_retry(bytes, odcid);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->scid, retry.scid);
  EXPECT_EQ(decoded->token, retry.token);
  // Wrong ODCID -> integrity check fails (off-path spoofing defense).
  std::vector<uint8_t> wrong_odcid{1, 1, 1, 1};
  EXPECT_FALSE(decode_retry(bytes, wrong_odcid).has_value());
  // Flipped token byte -> rejected.
  auto tampered = bytes;
  tampered[10] ^= 1;
  EXPECT_FALSE(decode_retry(tampered, odcid).has_value());
}

TEST(Handshake, SecondRetryIgnored) {
  // A client accepts at most one Retry; a duplicated Retry must not
  // reset connection state (RFC 9000 section 17.2.5.2).
  auto behavior = default_behavior();
  behavior.require_retry = true;
  ClientConfig config;
  config.version = kVersion1;
  config.sni = "example.com";
  config.alpn = {"h3"};
  Loopback loopback(behavior, 77);
  int retries_seen = 0;
  ClientConnection client(
      config, crypto::Rng(77),
      [&](std::vector<uint8_t> datagram) {
        loopback.queue.emplace_back(true, std::move(datagram));
      },
      nullptr);
  loopback.client = &client;
  client.start();
  // Pump manually so Retry packets can be duplicated in flight.
  while (!loopback.queue.empty()) {
    auto [to_server, datagram] = std::move(loopback.queue.front());
    loopback.queue.pop_front();
    if (to_server) {
      auto info = peek_datagram(datagram);
      if (!loopback.server ||
          (info && info->long_header &&
           info->type == PacketType::kInitial &&
           info->dcid != loopback.session_dcid)) {
        if (info) loopback.session_dcid = info->dcid;
        loopback.server = std::make_unique<ServerConnection>(
            behavior, crypto::Rng(78), [&](std::vector<uint8_t> reply) {
              auto rinfo = peek_datagram(reply);
              if (rinfo && rinfo->type == PacketType::kRetry) {
                ++retries_seen;
                loopback.queue.emplace_back(false, reply);  // duplicate
              }
              loopback.queue.emplace_back(false, std::move(reply));
            });
      }
      loopback.server->on_datagram(datagram);
    } else {
      client.on_datagram(datagram);
    }
  }
  EXPECT_EQ(retries_seen, 1);
  EXPECT_EQ(client.report().result, ConnectResult::kSuccess);
  EXPECT_TRUE(client.report().retry_used);
}

TEST(Handshake, VersionInformationAdvertisedAndValidated) {
  ClientConfig config;
  config.version = kVersion1;
  config.sni = "example.com";
  config.alpn = {"h3"};
  auto report = run_handshake(config, default_behavior());
  ASSERT_EQ(report.result, ConnectResult::kSuccess);
  const auto& info = report.server_transport_params.version_information;
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->chosen, kVersion1);
  EXPECT_EQ(info->available, (std::vector<uint32_t>{kVersion1, kDraft29}));
}

TEST(Handshake, QuicAndTcpShowTheSameTlsDetailsForOneServer) {
  // Table 5 compares what one host shows over QUIC and over
  // TLS-over-TCP. With one server configuration behind both carriers,
  // the details must agree but for QUIC's transport-parameters
  // extension, or a Table 5 difference could come from the code.
  const auto example = make_cert("example.com", {"*.example.com"});
  const auto other = make_cert("other.net", {"www.other.net"}, "Other CA");
  auto select = [example, other](const std::optional<std::string>& sni)
      -> std::optional<tls::Certificate> {
    return sni && other.matches_host(*sni) ? other : example;
  };
  DeploymentBehavior quic_server = default_behavior();
  quic_server.select_certificate = select;
  tls::TlsServerConfig tcp_server;
  tcp_server.select_certificate = select;
  tcp_server.alpn = quic_server.alpn;
  tcp_server.echo_sni = true;  // the QUIC server always echoes it

  for (const char* sni : {"www.example.com", "www.other.net"}) {
    ClientConfig config;
    config.version = kVersion1;
    config.sni = sni;
    config.alpn = {"h3"};
    auto report = run_handshake(config, quic_server);
    ASSERT_EQ(report.result, ConnectResult::kSuccess) << sni;

    tls::TlsServerSession session(tcp_server, crypto::Rng(2));
    tls::TlsClient client(crypto::Rng(3), std::string(sni), {"h3"});
    auto tcp = client.run(
        [&](std::span<const uint8_t> data) { return session.on_data(data); },
        std::nullopt);
    ASSERT_TRUE(tcp.handshake_ok) << sni;

    tls::TlsDetails quic_details = report.tls;
    std::erase(quic_details.server_extensions,
               static_cast<uint16_t>(
                   tls::ExtensionType::kQuicTransportParameters));
    EXPECT_EQ(quic_details, tcp.details) << sni;
    ASSERT_EQ(tcp.details.certificate_chain.size(), 1u);
    EXPECT_TRUE(tcp.details.certificate_chain[0].matches_host(sni));
  }
}

std::vector<uint8_t> bytes_of(const char* text) {
  return {reinterpret_cast<const uint8_t*>(text),
          reinterpret_cast<const uint8_t*>(text) + std::strlen(text)};
}

TEST(CryptoAssembler, InOrderAppends) {
  CryptoAssembler assembler;
  EXPECT_TRUE(assembler.offer(0, bytes_of("ab")));
  EXPECT_TRUE(assembler.offer(2, bytes_of("cd")));
  EXPECT_EQ(assembler.assembled(), bytes_of("abcd"));
  EXPECT_EQ(assembler.pending_chunks(), 0u);
}

TEST(CryptoAssembler, OutOfOrderStashesUntilGapCloses) {
  CryptoAssembler assembler;
  EXPECT_FALSE(assembler.offer(2, bytes_of("cd")));
  EXPECT_EQ(assembler.pending_chunks(), 1u);
  EXPECT_EQ(assembler.pending_bytes(), 2u);
  EXPECT_TRUE(assembler.assembled().empty());
  EXPECT_TRUE(assembler.offer(0, bytes_of("ab")));
  EXPECT_EQ(assembler.assembled(), bytes_of("abcd"));
  EXPECT_EQ(assembler.pending_chunks(), 0u);
}

TEST(CryptoAssembler, FullyReversedChunksReassemble) {
  CryptoAssembler assembler;
  EXPECT_FALSE(assembler.offer(4, bytes_of("ef")));
  EXPECT_FALSE(assembler.offer(2, bytes_of("cd")));
  EXPECT_EQ(assembler.pending_chunks(), 2u);
  EXPECT_TRUE(assembler.offer(0, bytes_of("ab")));
  EXPECT_EQ(assembler.assembled(), bytes_of("abcdef"));
  EXPECT_EQ(assembler.pending_chunks(), 0u);
}

TEST(CryptoAssembler, DuplicatesAndStaleRetransmitsIgnored) {
  CryptoAssembler assembler;
  EXPECT_TRUE(assembler.offer(0, bytes_of("abc")));
  EXPECT_FALSE(assembler.offer(0, bytes_of("abc")));  // exact dup
  EXPECT_FALSE(assembler.offer(1, bytes_of("b")));    // stale inner
  EXPECT_EQ(assembler.assembled(), bytes_of("abc"));
}

TEST(CryptoAssembler, OverlappingChunkTrimmedToNewTail) {
  CryptoAssembler assembler;
  EXPECT_TRUE(assembler.offer(0, bytes_of("abcd")));
  EXPECT_TRUE(assembler.offer(2, bytes_of("cdef")));
  EXPECT_EQ(assembler.assembled(), bytes_of("abcdef"));
}

TEST(CryptoAssembler, SameOffsetKeepsLongerPendingChunk) {
  CryptoAssembler assembler;
  EXPECT_FALSE(assembler.offer(2, bytes_of("cd")));
  EXPECT_FALSE(assembler.offer(2, bytes_of("cdef")));
  EXPECT_EQ(assembler.pending_chunks(), 1u);
  EXPECT_TRUE(assembler.offer(0, bytes_of("ab")));
  EXPECT_EQ(assembler.assembled(), bytes_of("abcdef"));
}

TEST(CryptoAssembler, ClearResetsEverything) {
  CryptoAssembler assembler;
  assembler.offer(3, bytes_of("xyz"));
  assembler.offer(0, bytes_of("abc"));
  assembler.clear();
  EXPECT_TRUE(assembler.assembled().empty());
  EXPECT_EQ(assembler.pending_chunks(), 0u);
  EXPECT_TRUE(assembler.offer(0, bytes_of("fresh")));
  EXPECT_EQ(assembler.assembled(), bytes_of("fresh"));
}

TEST(Handshake, SplitFlightInOrderStillSucceeds) {
  // max_crypto_chunk > 0 makes the server ship EE..Finished as several
  // single-packet datagrams instead of one coalesced flight; delivered
  // in order this must be invisible to the client. 80 bytes splits the
  // ~270-byte synthetic flight into four Handshake datagrams.
  auto behavior = default_behavior();
  behavior.max_crypto_chunk = 80;
  ClientConfig config;
  config.version = kVersion1;
  config.sni = "www.example.com";
  config.alpn = {"h3"};
  config.http_request = "HEAD / HTTP/1.1\r\nhost: www.example.com\r\n\r\n";
  auto report = run_handshake(config, behavior);
  EXPECT_EQ(report.result, ConnectResult::kSuccess);
  ASSERT_TRUE(report.http_response.has_value());
}

TEST(Handshake, ServerFlightBytesArePinned) {
  // The first 8 bytes of the SHA-256 of every server datagram, in
  // order, for each shape of the EE..Finished flight: coalesced into the
  // Initial's datagram, split into 200-byte chunks, preceded by a
  // conflicting overlap, truncated, and withheld after the ServerHello.
  // Pins the bytes and the datagram boundaries of each shape.
  struct Shape {
    const char* name;
    void (*apply)(DeploymentBehavior&);
    std::vector<std::string> digests;
  };
  const Shape shapes[] = {
      {"coalesced",
       [](DeploymentBehavior&) {},
       {"3ed5bb6f1efa2733", "36b4f1af7f7d2f38", "6a017b2815a4f6c7"}},
      {"chunked",
       [](DeploymentBehavior& b) { b.max_crypto_chunk = 200; },
       {"d25e8de1873bf2d0", "183b72d480fad0e1", "980b380f74e8df6b",
        "36b4f1af7f7d2f38", "6a017b2815a4f6c7"}},
      {"overlap",
       [](DeploymentBehavior& b) {
         b.adversary.crypto_overlap_conflict = true;
       },
       {"d25e8de1873bf2d0", "ed3314f38f8e4034", "18e9d26cd419b5a2"}},
      {"truncate",
       [](DeploymentBehavior& b) { b.adversary.crypto_truncate = 40; },
       {"c8679f788f375518"}},
      {"stall",
       [](DeploymentBehavior& b) { b.adversary.stall_after_hello = true; },
       {"d25e8de1873bf2d0"}},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    auto behavior = default_behavior();
    shape.apply(behavior);
    ClientConfig config;
    config.sni = "www.example.com";
    config.alpn = {"h3"};
    config.http_request = "HEAD / HTTP/1.1\r\nhost: www.example.com\r\n\r\n";
    std::vector<std::vector<uint8_t>> from_server;
    run_handshake(config, behavior, 7, &from_server);
    std::vector<std::string> digests;
    for (const auto& datagram : from_server) {
      const auto digest = crypto::Sha256::hash(datagram);
      digests.push_back(wire::to_hex({digest.data(), 8}));
    }
    EXPECT_EQ(digests, shape.digests);
  }
}

TEST(Handshake, OutOfOrderCryptoReassembledAcrossDatagrams) {
  // The fabric's reordering regression: the server's split Handshake
  // flight arrives back to front. The client must stash the tail
  // chunks and finish once the gap closes -- the silent-skip that shipped
  // before the assembler turned this exact delivery into a timeout.
  auto behavior = default_behavior();
  behavior.max_crypto_chunk = 80;
  ClientConfig config;
  config.version = kVersion1;
  config.sni = "www.example.com";
  config.alpn = {"h3"};
  Loopback loopback(behavior, 91);
  ClientConnection client(
      config, crypto::Rng(91),
      [&](std::vector<uint8_t> datagram) {
        loopback.queue.emplace_back(true, std::move(datagram));
      },
      nullptr);
  loopback.client = &client;
  client.start();

  auto is_handshake_packet = [](const std::vector<uint8_t>& datagram) {
    auto info = peek_datagram(datagram);
    return info && info->long_header &&
           info->type == PacketType::kHandshake;
  };
  int reversed_flights = 0;
  while (!loopback.queue.empty()) {
    std::vector<std::vector<uint8_t>> to_server, to_client;
    while (!loopback.queue.empty()) {
      auto [server_bound, datagram] = std::move(loopback.queue.front());
      loopback.queue.pop_front();
      (server_bound ? to_server : to_client).push_back(std::move(datagram));
    }
    for (auto& datagram : to_server) {
      auto info = peek_datagram(datagram);
      if (!loopback.server ||
          (info && info->long_header &&
           info->type == PacketType::kInitial &&
           info->dcid != loopback.session_dcid)) {
        if (info) loopback.session_dcid = info->dcid;
        loopback.server = std::make_unique<ServerConnection>(
            behavior, crypto::Rng(92), [&](std::vector<uint8_t> reply) {
              loopback.queue.emplace_back(false, std::move(reply));
            });
      }
      loopback.server->on_datagram(datagram);
    }
    // Reverse the run of Handshake-packet datagrams inside the flight
    // (the Initial must still land first: it carries the ServerHello
    // that yields the handshake keys).
    auto first =
        std::find_if(to_client.begin(), to_client.end(), is_handshake_packet);
    auto last = std::find_if(first, to_client.end(),
                             [&](const std::vector<uint8_t>& datagram) {
                               return !is_handshake_packet(datagram);
                             });
    if (std::distance(first, last) > 1) {
      std::reverse(first, last);
      ++reversed_flights;
    }
    for (auto& datagram : to_client) client.on_datagram(datagram);
  }
  // The flight really was split and really was reversed.
  EXPECT_GE(reversed_flights, 1);
  EXPECT_EQ(client.report().result, ConnectResult::kSuccess);
  EXPECT_EQ(client.hotpath_stats().undecryptable, 0u);
}

TEST(Handshake, UndecryptableDatagramCountedNotFatal) {
  // A corrupted copy of the server's first flight arrives before the
  // genuine one: AEAD open fails, the attempt records it and carries
  // on (impairment-correctness: corruption must never abort a scan).
  auto behavior = default_behavior();
  ClientConfig config;
  config.version = kVersion1;
  config.sni = "example.com";
  config.alpn = {"h3"};
  Loopback loopback(behavior, 55);
  ClientConnection client(
      config, crypto::Rng(55),
      [&](std::vector<uint8_t> datagram) {
        loopback.queue.emplace_back(true, std::move(datagram));
      },
      nullptr);
  loopback.client = &client;
  client.start();
  bool corrupted_once = false;
  while (!loopback.queue.empty()) {
    auto [to_server, datagram] = std::move(loopback.queue.front());
    loopback.queue.pop_front();
    if (to_server) {
      auto info = peek_datagram(datagram);
      if (!loopback.server ||
          (info && info->long_header &&
           info->type == PacketType::kInitial &&
           info->dcid != loopback.session_dcid)) {
        if (info) loopback.session_dcid = info->dcid;
        loopback.server = std::make_unique<ServerConnection>(
            behavior, crypto::Rng(56), [&](std::vector<uint8_t> reply) {
              loopback.queue.emplace_back(false, std::move(reply));
            });
      }
      loopback.server->on_datagram(datagram);
    } else {
      if (!corrupted_once) {
        corrupted_once = true;
        auto mangled = datagram;
        mangled.back() ^= 0x01;  // breaks the AEAD tag
        client.on_datagram(mangled);
        EXPECT_EQ(client.hotpath_stats().undecryptable, 1u);
      }
      client.on_datagram(datagram);
    }
  }
  EXPECT_TRUE(corrupted_once);
  EXPECT_EQ(client.report().result, ConnectResult::kSuccess);
  EXPECT_EQ(client.hotpath_stats().undecryptable, 1u);
}

TEST(TransportParams, VersionInformationRoundTrip) {
  TransportParameters tp;
  TransportParameters::VersionInformation info;
  info.chosen = kVersion1;
  info.available = {kVersion1, kDraft29, kDraft27};
  tp.version_information = info;
  auto decoded = decode_transport_parameters(encode_transport_parameters(tp));
  ASSERT_TRUE(decoded.version_information.has_value());
  EXPECT_EQ(*decoded.version_information, info);
  // Not part of the configuration key (it mirrors the version set, not
  // the performance configuration).
  TransportParameters other;
  EXPECT_EQ(tp.config_key(), other.config_key());
}

}  // namespace
