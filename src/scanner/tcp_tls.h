// TLS-over-TCP scanner (section 3.3): the Goscanner analogue. A TCP SYN
// sweep on port 443 followed by stateful TLS 1.3 handshakes -- once
// without and once with SNI -- plus an HTTP request to collect headers,
// most importantly Alt-Svc (the second QUIC-discovery channel) and the
// TLS properties compared against QUIC in Table 5.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "http/alt_svc.h"
#include "http/headers.h"
#include "netsim/network.h"
#include "scanner/resilience.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "tls/endpoint.h"

namespace scanner {

struct TcpTarget {
  netsim::IpAddress address;
  std::optional<std::string> sni;
};

struct TcpTlsResult {
  TcpTarget target;
  bool port_open = false;
  bool handshake_ok = false;
  std::optional<tls::AlertDescription> alert;
  tls::TlsDetails details;
  bool http_ok = false;
  http::Headers response_headers;
  /// Parsed Alt-Svc entries (empty when the header is absent).
  std::vector<http::AltSvcEntry> alt_svc;
};

struct TcpTlsOptions {
  uint64_t seed = 0x7c9;
  /// Optional telemetry; null/empty disables with one check per hook.
  telemetry::MetricsRegistry* metrics = nullptr;
  telemetry::TraceSinkFactory trace_factory;
  /// Shared retry schedule: closed ports (the one transient failure a
  /// SYN-level scan can see) are re-tried with deterministic backoff.
  /// Default = single attempt, byte-identical to the seed scanner.
  RetryPolicy retry;
};

class TcpTlsScanner {
 public:
  TcpTlsScanner(netsim::Network& network, TcpTlsOptions options);

  /// SYN scan: which of `targets` have port 443 open.
  std::vector<netsim::IpAddress> syn_scan(
      std::span<const netsim::IpAddress> targets);

  TcpTlsResult scan_one(const TcpTarget& target);

 private:
  TcpTlsResult attempt_once(const TcpTarget& target);

  netsim::Network& network_;
  TcpTlsOptions options_;
  uint64_t attempts_ = 0;
  telemetry::Counter* metric_attempts_ = nullptr;
  telemetry::Counter* metric_retries_ = nullptr;
  telemetry::Counter* metric_port_open_ = nullptr;
  telemetry::Counter* metric_handshake_ok_ = nullptr;
  telemetry::Counter* metric_alerts_ = nullptr;
  telemetry::Counter* metric_http_ok_ = nullptr;
  telemetry::Counter* metric_alt_svc_ = nullptr;
};

}  // namespace scanner
