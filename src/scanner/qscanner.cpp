#include "scanner/qscanner.h"

#include <algorithm>

#include "http/alpn.h"
#include "http/h3.h"
#include "http/message.h"

namespace scanner {

namespace {

// The first probe timeout, before any RTT sample (RFC 9002 section
// 6.2.1): smoothed_rtt + max(4 * rttvar, granularity) + max_ack_delay
// with the 333 ms initial RTT, rttvar = 166.5 ms and the 25 ms default
// max_ack_delay, i.e. 333 + 666 + 25 ms.
constexpr uint64_t kInitialPtoUs = 1'024'000;

// How long one attempt waits for its handshake to conclude.
constexpr uint64_t kHandshakeTimeoutUs = 3'000'000;

// Scanner source addresses (RFC 5737 / RFC 3849 documentation space).
const netsim::IpAddress kSourceV4 = netsim::IpAddress::v4(0xc0000202);
const netsim::IpAddress kSourceV6 =
    netsim::IpAddress::v6(0x20010db800005ca0ull, 2);

}  // namespace

std::string to_string(QscanOutcome outcome) {
  switch (outcome) {
    case QscanOutcome::kSuccess: return "Success";
    case QscanOutcome::kTimeout: return "Timeout";
    case QscanOutcome::kCryptoError0x128: return "Crypto Error (0x128)";
    case QscanOutcome::kVersionMismatch: return "Version Mismatch";
    case QscanOutcome::kOther: return "Other";
    case QscanOutcome::kRateLimited: return "Rate Limited";
    case QscanOutcome::kDegraded: return "Degraded";
    case QscanOutcome::kProtocolError: return "Protocol Error";
    case QscanOutcome::kStalledMidHandshake: return "Stalled";
    case QscanOutcome::kVersionLoop: return "Version Loop";
    case QscanOutcome::kWatchdog: return "Watchdog";
    case QscanOutcome::kCount: break;  // sentinel, not a class
  }
  return "?";
}

QScanner::QScanner(netsim::Network& network, QscanOptions options)
    : network_(network),
      options_(std::move(options)),
      breaker_(options_.breaker) {
  auto* metrics = options_.metrics;
  metric_attempts_ = telemetry::maybe_counter(metrics, "qscan.attempts");
  for (size_t i = 0; i < kQscanOutcomeCount; ++i)
    metric_outcomes_[i] = telemetry::maybe_counter(
        metrics, "qscan.outcome." + to_string(static_cast<QscanOutcome>(i)));
  metric_retries_ = telemetry::maybe_counter(metrics, "qscan.retries");
  // Cause counters for the violation taxonomy; kNone (index 0) is not
  // a cause, so its slot stays null.
  for (size_t i = 1; i < quic::kProtocolErrorCount; ++i)
    metric_protocol_errors_[i] = telemetry::maybe_counter(
        metrics, "quic.protocol_error." +
                     quic::to_string(static_cast<quic::ProtocolError>(i)));
  metric_watchdog_fired_ =
      telemetry::maybe_counter(metrics, "qscan.watchdog_fired");
  metric_breaker_trips_ =
      telemetry::maybe_counter(metrics, "qscan.breaker_trips");
  // Bucket bounds follow the sim's RTT scale: the fastest handshakes
  // complete in one ~20ms round trip, timeouts sit at 3s.
  metric_handshake_rtt_ = telemetry::maybe_histogram(
      metrics, "qscan.handshake_rtt_us",
      {25'000, 50'000, 100'000, 250'000, 500'000, 1'000'000, 3'000'000});
  metric_packets_per_attempt_ = telemetry::maybe_histogram(
      metrics, "qscan.packets_per_attempt", {2, 4, 6, 8, 12, 16, 32});
  metric_bytes_per_attempt_ = telemetry::maybe_histogram(
      metrics, "qscan.bytes_per_attempt",
      {1'500, 3'000, 6'000, 12'000, 24'000, 48'000});
  metric_hotpath_alloc_bytes_ =
      telemetry::maybe_counter(metrics, "hotpath.alloc_bytes");
  metric_hotpath_aead_reuse_ =
      telemetry::maybe_counter(metrics, "hotpath.aead_ctx_reuse");
  metric_hotpath_undecryptable_ =
      telemetry::maybe_counter(metrics, "hotpath.undecryptable");
}

bool QScanner::compatible(const QscanTarget& target) const {
  if (target.version_hint.empty()) return true;  // no knowledge: try anyway
  for (quic::Version v : options_.supported_versions)
    if (std::find(target.version_hint.begin(), target.version_hint.end(),
                  v) != target.version_hint.end())
      return true;
  return false;
}

quic::Version QScanner::pick_version(const QscanTarget& target) const {
  for (quic::Version v : options_.supported_versions)
    if (std::find(target.version_hint.begin(), target.version_hint.end(),
                  v) != target.version_hint.end())
      return v;
  return options_.supported_versions.front();
}

QscanResult QScanner::attempt_once(const QscanTarget& target) {
  ++attempts_;
  telemetry::add(metric_attempts_);
  // Ephemeral ports and connection entropy are drawn from the
  // scanner's own attempt counter. This used to be a process-wide
  // static (an OS-port-allocator analogy), but a shared mutable
  // counter is exactly what the sharded campaign engine must not have:
  // it made traces depend on every scanner ever constructed in the
  // process and would be a data race across shard threads. Each
  // scanner owns one network's source endpoint, and sockets close at
  // the end of every attempt, so a per-instance counter cannot reuse a
  // live (port, connection-ID) pair.
  uint64_t attempt = attempts_;
  QscanResult result;
  result.target = target;

  auto& loop = network_.loop();
  const auto& source = target.address.is_v4() ? kSourceV4 : kSourceV6;
  uint16_t port = static_cast<uint16_t>(20000 + attempt % 40000);
  auto socket = network_.open_udp({source, port});

  // One qlog trace per attempt, labeled by scan ordinal and target so
  // repeat runs with the same seed produce identical file sets.
  std::unique_ptr<telemetry::TraceSink> trace_sink;
  if (options_.trace_factory) {
    std::string label = "attempt" + std::to_string(attempts_) + "_" +
                        target.address.to_string();
    if (target.sni) label += "_" + *target.sni;
    trace_sink = options_.trace_factory(label);
  }
  telemetry::Tracer tracer(trace_sink.get(), &loop,
                           telemetry::Vantage::kClient);

  const uint64_t start_us = loop.now_us();
  const uint64_t start_datagrams = network_.datagrams_sent();
  const uint64_t start_bytes = network_.bytes_sent();

  quic::ClientConfig config;
  config.version = pick_version(target);
  config.compatible_versions = options_.supported_versions;
  config.sni = target.sni;
  config.alpn.clear();
  if (auto token = http::alpn_for_version(config.version))
    config.alpn.push_back(*token);
  config.alpn.push_back("h3");
  if (options_.send_http_head) {
    // HTTP/3 framing on the QUIC path (RFC 9114); the TCP path keeps
    // HTTP/1.1 text, exactly like the paper's two scanners.
    http::h3::Request request;
    request.method = "HEAD";
    request.authority = target.sni.value_or("");
    request.headers.add("user-agent", "qscanner-repro/1.0");
    auto bytes = http::h3::encode_request(request);
    config.http_request = std::string(bytes.begin(), bytes.end());
  }

  netsim::Endpoint server{target.address, 443};
  config.tracer = tracer;
  uint64_t finish_us = 0;
  quic::ClientConnection connection(
      std::move(config),
      crypto::Rng(options_.seed ^ attempt * 0x9e3779b97f4a7c15ull),
      [&](std::vector<uint8_t> datagram) {
        socket->send(server, std::move(datagram));
      },
      [&loop, &finish_us](const quic::ClientReport&) {
        finish_us = loop.now_us();
      });
  // Per-attempt watchdog: a hostile endpoint can emit unbounded traffic
  // inside the (virtual-time) deadline -- VN ping-pong, garbage floods.
  // The rx budget caps the work one attempt can absorb; once exhausted
  // the rest of the attempt's traffic is dropped on the floor, which is
  // deterministic (datagram arrival order is) where a wall-clock guard
  // would not be.
  uint64_t rx_datagrams = 0;
  bool watchdog_fired = false;
  socket->set_receiver(
      [&](const netsim::Endpoint&, std::span<const uint8_t> data) {
        if (watchdog_fired) return;
        if (options_.watchdog_rx_datagrams > 0 &&
            ++rx_datagrams > options_.watchdog_rx_datagrams) {
          watchdog_fired = true;
          return;
        }
        connection.on_datagram(data);
      });

  connection.start();
  // PTO retransmissions (RFC 9002 section 6.2: the backoff doubles).
  uint64_t pto = kInitialPtoUs;
  uint64_t next_probe = loop.now_us() + pto;
  std::vector<netsim::TimerId> probe_timers;
  for (int probe = 0; probe < options_.max_retransmits; ++probe) {
    probe_timers.push_back(loop.schedule_at(next_probe, [&connection] {
      if (!connection.finished()) connection.retransmit_initial();
    }));
    pto *= 2;
    next_probe += pto;
  }
  loop.run_until(loop.now_us() + kHandshakeTimeoutUs);
  // A probe landing exactly on the deadline stays queued past
  // run_until; cancel the stragglers before `connection` goes out of
  // scope or they would fire into a dead frame during a later scan.
  for (netsim::TimerId id : probe_timers) loop.cancel(id);
  const bool finished = connection.finished();
  result.report = connection.take_report();

  if (!finished && tracer.active()) {
    tracer.emit(telemetry::EventType::kTimeout,
                {{"elapsed_us", loop.now_us() - start_us},
                 {"retransmits", options_.max_retransmits}});
  }

  switch (result.report.result) {
    case quic::ConnectResult::kSuccess:
      result.outcome = QscanOutcome::kSuccess;
      break;
    case quic::ConnectResult::kPending:
      if (watchdog_fired) {
        result.outcome = QscanOutcome::kWatchdog;
        telemetry::add(metric_watchdog_fired_);
        if (tracer.active())
          tracer.emit(telemetry::EventType::kWatchdog,
                      {{"rx_datagrams", rx_datagrams},
                       {"budget", options_.watchdog_rx_datagrams}});
      } else if (result.report.server_hello_seen) {
        // The server answered (we saw its ServerHello) and then went
        // quiet or kept the handshake from completing: distinct from a
        // dead target, and one of the paper's "responds but never
        // finishes" deployment pathologies.
        result.outcome = QscanOutcome::kStalledMidHandshake;
      } else {
        result.outcome = QscanOutcome::kTimeout;
      }
      break;
    case quic::ConnectResult::kVersionMismatch:
      result.outcome = QscanOutcome::kVersionMismatch;
      break;
    case quic::ConnectResult::kProtocolViolation:
      result.outcome = result.report.protocol_error ==
                               quic::ProtocolError::kVnLoop
                           ? QscanOutcome::kVersionLoop
                           : QscanOutcome::kProtocolError;
      telemetry::add(metric_protocol_errors_[static_cast<size_t>(
          result.report.protocol_error)]);
      break;
    case quic::ConnectResult::kCryptoError:
      result.outcome = result.report.close_error_code == 0x128
                           ? QscanOutcome::kCryptoError0x128
                           : QscanOutcome::kOther;
      break;
    default:
      result.outcome = QscanOutcome::kOther;
      break;
  }
  if (result.outcome == QscanOutcome::kSuccess &&
      result.report.http_response) {
    const auto& raw = *result.report.http_response;
    std::span<const uint8_t> bytes{
        reinterpret_cast<const uint8_t*>(raw.data()), raw.size()};
    if (http::h3::looks_like_h3(bytes)) {
      if (auto response = http::h3::decode_response(bytes)) {
        result.http_ok = response->status >= 200 && response->status < 400;
        result.server_header = response->headers.get("server");
      }
    } else if (auto response = http::Response::parse(raw)) {
      // Legacy deployments answering HTTP/1 text over the stream.
      result.http_ok = response->status >= 200 && response->status < 400;
      result.server_header = response->headers.get("server");
    }
  }

  if (result.outcome == QscanOutcome::kSuccess)
    telemetry::observe(metric_handshake_rtt_, finish_us - start_us);
  telemetry::observe(metric_packets_per_attempt_,
                     network_.datagrams_sent() - start_datagrams);
  telemetry::observe(metric_bytes_per_attempt_,
                     network_.bytes_sent() - start_bytes);
  telemetry::add(metric_hotpath_alloc_bytes_,
                 connection.hotpath_stats().alloc_bytes);
  telemetry::add(metric_hotpath_aead_reuse_,
                 connection.hotpath_stats().aead_ctx_reuse);
  telemetry::add(metric_hotpath_undecryptable_,
                 connection.hotpath_stats().undecryptable);
  return result;
}

QscanResult QScanner::scan_one(const QscanTarget& target) {
  const uint32_t asn = options_.asn_of ? options_.asn_of(target.address) : 0;
  const bool was_open = breaker_.is_open(asn);
  if (!breaker_.allow(asn)) {
    // Skip-and-record: no socket, no wire traffic, no virtual time --
    // the campaign keeps its deadline while the provider cools off.
    QscanResult result;
    result.target = target;
    result.outcome = QscanOutcome::kDegraded;
    result.attempts = 0;
    telemetry::add(
        metric_outcomes_[static_cast<size_t>(QscanOutcome::kDegraded)]);
    return result;
  }

  QscanResult result = attempt_once(target);
  int attempts_made = 1;
  // Only timeouts and mid-handshake stalls are retried: every other
  // outcome -- including the protocol-error taxonomy, a VN loop and a
  // tripped watchdog -- is a conclusive server statement, and a later
  // attempt could not improve on it (outcome reconciliation:
  // conclusive beats timeout, first conclusive wins).
  auto retryable = [](QscanOutcome outcome) {
    return outcome == QscanOutcome::kTimeout ||
           outcome == QscanOutcome::kStalledMidHandshake;
  };
  while (attempts_made < options_.retry.max_attempts &&
         retryable(result.outcome)) {
    auto& loop = network_.loop();
    loop.run_until(loop.now_us() +
                   options_.retry.backoff_us(target.address, attempts_made));
    telemetry::add(metric_retries_);
    result = attempt_once(target);
    ++attempts_made;
  }
  result.attempts = attempts_made;

  // A timeout on a half-open probe means the provider is still
  // shedding: classify as rate-limited rather than a plain timeout.
  if (was_open && result.outcome == QscanOutcome::kTimeout)
    result.outcome = QscanOutcome::kRateLimited;
  const bool failure = result.outcome == QscanOutcome::kTimeout ||
                       result.outcome == QscanOutcome::kRateLimited;
  if (breaker_.record(asn, !failure)) telemetry::add(metric_breaker_trips_);

  telemetry::add(metric_outcomes_[static_cast<size_t>(result.outcome)]);
  return result;
}

std::vector<QscanResult> QScanner::scan(
    std::span<const QscanTarget> targets) {
  std::vector<QscanResult> out;
  out.reserve(targets.size());
  for (const auto& target : targets) out.push_back(scan_one(target));
  return out;
}

}  // namespace scanner
