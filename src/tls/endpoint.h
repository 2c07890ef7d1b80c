// TLS-over-TCP endpoints: a server session and a synchronous client
// driver. This is the Goscanner side of the paper's methodology --
// full TLS 1.3 handshakes on TCP 443 (with and without SNI), an HTTP/1
// request on top, and extraction of the same TlsDetails the QUIC
// scanner produces so the two stacks can be compared (Table 5).
//
// Byte-level contract: each on_data()/exchange step carries one flight
// of TLS records. TLS 1.2-only servers complete a legacy ServerHello /
// Certificate / ServerHelloDone exchange in plaintext, which is as far
// as the scanner needs to see to record version/cipher/certificate.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/rng.h"
#include "tls/handshake.h"
#include "tls/key_schedule.h"
#include "tls/record.h"

namespace tls {

struct TlsServerConfig {
  /// kVersion13 normally; kVersion12 models deployments with TLS 1.3
  /// disabled but QUIC enabled (the Cloudflare quirk in section 5.1).
  uint16_t max_version = kVersion13;
  std::function<std::optional<Certificate>(
      const std::optional<std::string>& sni)>
      select_certificate;
  /// RFC 6066 says the server SHOULD echo an empty SNI extension when it
  /// used the name; some stacks do not (the paper's "uncritical gap").
  bool echo_sni = true;
  /// Google's TCP error path for SNI-less connections skips ALPN
  /// selection entirely (visible as the paper's extension-set mismatch
  /// between QUIC and TCP, Table 5).
  bool alpn_without_sni = true;
  std::vector<std::string> alpn{"h2", "http/1.1"};
  std::function<std::string(const std::string& request)> http_responder;
};

/// One server-side TLS-over-TCP connection.
class TlsServerSession {
 public:
  TlsServerSession(const TlsServerConfig& config, crypto::Rng rng);
  ~TlsServerSession();

  /// Consumes one client flight, returns the server flight (possibly an
  /// alert record).
  std::vector<uint8_t> on_data(std::span<const uint8_t> data);

 private:
  std::vector<uint8_t> handle_client_hello(const ClientHello& ch,
                                           std::span<const uint8_t> raw);
  std::vector<uint8_t> alert(AlertDescription desc);

  const TlsServerConfig& config_;
  crypto::Rng rng_;
  std::unique_ptr<RecordCrypter> tx_, rx_;        // handshake keys
  std::unique_ptr<RecordCrypter> app_tx_, app_rx_;
  enum class State { kAwaitClientHello, kAwaitFinished, kEstablished, kClosed };
  State state_ = State::kAwaitClientHello;
};

/// What the TCP-path scanner records for one attempt.
struct TlsClientResult {
  bool handshake_ok = false;
  std::optional<AlertDescription> alert;
  TlsDetails details;
  std::optional<std::string> http_response;
};

/// Synchronous TLS client: drives a byte-exchange function (one flight
/// in, one flight out) through the handshake and an HTTP request.
class TlsClient {
 public:
  using ExchangeFn =
      std::function<std::vector<uint8_t>(std::span<const uint8_t>)>;

  TlsClient(crypto::Rng rng, std::optional<std::string> sni,
            std::vector<std::string> alpn);

  TlsClientResult run(const ExchangeFn& exchange,
                      const std::optional<std::string>& http_request);

 private:
  crypto::Rng rng_;
  std::optional<std::string> sni_;
  std::vector<std::string> alpn_;
};

}  // namespace tls
