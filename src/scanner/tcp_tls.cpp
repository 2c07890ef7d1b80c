#include "scanner/tcp_tls.h"

#include "http/message.h"

namespace scanner {

namespace {

// Scanner source addresses (RFC 5737 / RFC 3849 documentation space).
const netsim::IpAddress kSourceV4 = netsim::IpAddress::v4(0xc0000203);
const netsim::IpAddress kSourceV6 =
    netsim::IpAddress::v6(0x20010db800005ca0ull, 3);

}  // namespace

TcpTlsScanner::TcpTlsScanner(netsim::Network& network, TcpTlsOptions options)
    : network_(network), options_(std::move(options)) {
  auto* metrics = options_.metrics;
  metric_attempts_ = telemetry::maybe_counter(metrics, "tcp.attempts");
  metric_retries_ = telemetry::maybe_counter(metrics, "tcp.retries");
  metric_port_open_ = telemetry::maybe_counter(metrics, "tcp.port_open");
  metric_handshake_ok_ =
      telemetry::maybe_counter(metrics, "tcp.handshake_ok");
  metric_alerts_ = telemetry::maybe_counter(metrics, "tcp.alerts");
  metric_http_ok_ = telemetry::maybe_counter(metrics, "tcp.http_ok");
  metric_alt_svc_ = telemetry::maybe_counter(metrics, "tcp.alt_svc_seen");
}

std::vector<netsim::IpAddress> TcpTlsScanner::syn_scan(
    std::span<const netsim::IpAddress> targets) {
  std::vector<netsim::IpAddress> open;
  for (const auto& addr : targets)
    if (network_.tcp_port_open({addr, 443})) open.push_back(addr);
  return open;
}

TcpTlsResult TcpTlsScanner::attempt_once(const TcpTarget& target) {
  ++attempts_;
  telemetry::add(metric_attempts_);
  TcpTlsResult result;
  result.target = target;
  const auto& source = target.address.is_v4() ? kSourceV4 : kSourceV6;
  uint16_t port = static_cast<uint16_t>(30000 + attempts_ % 30000);

  std::unique_ptr<telemetry::TraceSink> trace_sink;
  if (options_.trace_factory) {
    std::string label = "tcp_attempt" + std::to_string(attempts_) + "_" +
                        target.address.to_string();
    if (target.sni) label += "_" + *target.sni;
    trace_sink = options_.trace_factory(label);
  }
  telemetry::Tracer tracer(trace_sink.get(), &network_.loop());

  auto connection =
      network_.tcp_connect({source, port}, {target.address, 443});
  if (!connection) {
    if (tracer.active())
      tracer.emit(telemetry::EventType::kConnectionClosed,
                  {{"result", "port_closed"}});
    return result;
  }
  result.port_open = true;
  telemetry::add(metric_port_open_);
  if (tracer.active())
    tracer.emit(telemetry::EventType::kTlsMessage,
                {{"message", "client_hello"},
                 {"sni", target.sni.value_or("")},
                 {"sent", true}});

  tls::TlsClient client(
      crypto::Rng(options_.seed ^ attempts_ * 0x9e3779b97f4a7c15ull),
      target.sni, {"h2", "http/1.1"});
  auto request = http::head_request(target.sni.value_or(""));
  request.method = "GET";  // the group's regular scans send GET
  auto outcome = client.run(
      [&](std::span<const uint8_t> data) { return connection->exchange(data); },
      request.serialize());
  result.handshake_ok = outcome.handshake_ok;
  result.alert = outcome.alert;
  result.details = std::move(outcome.details);
  if (result.handshake_ok) telemetry::add(metric_handshake_ok_);
  if (result.alert) telemetry::add(metric_alerts_);
  if (outcome.http_response) {
    if (auto response = http::Response::parse(*outcome.http_response)) {
      result.http_ok = response->status >= 200 && response->status < 400;
      if (auto header = response->headers.get("alt-svc")) {
        if (auto entries = http::parse_alt_svc(*header))
          result.alt_svc = std::move(*entries);
      }
      result.response_headers = std::move(response->headers);
    }
  }
  if (result.http_ok) telemetry::add(metric_http_ok_);
  if (!result.alt_svc.empty()) telemetry::add(metric_alt_svc_);
  if (tracer.active()) {
    if (result.handshake_ok)
      tracer.emit(telemetry::EventType::kTlsMessage,
                  {{"message", "finished"}, {"sent", false}});
    tracer.emit(
        telemetry::EventType::kConnectionClosed,
        {{"result", result.handshake_ok ? "success" : "handshake_failure"},
         {"error_code",
          result.alert ? static_cast<uint64_t>(*result.alert) : 0},
         {"http_ok", result.http_ok}});
  }
  return result;
}

TcpTlsResult TcpTlsScanner::scan_one(const TcpTarget& target) {
  TcpTlsResult result = attempt_once(target);
  // A closed port is the one failure a SYN-level probe cannot tell from
  // transient loss, so that is what the retry budget covers. TLS alerts
  // and HTTP failures are conclusive server statements.
  for (int attempt = 1;
       attempt < options_.retry.max_attempts && !result.port_open;
       ++attempt) {
    auto& loop = network_.loop();
    loop.run_until(loop.now_us() +
                   options_.retry.backoff_us(target.address, attempt));
    telemetry::add(metric_retries_);
    result = attempt_once(target);
  }
  return result;
}

}  // namespace scanner
