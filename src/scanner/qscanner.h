// QScanner (section 3.4): the stateful QUIC scanner. For each target --
// an address alone or an (address, SNI) pair -- it completes a full
// QUIC + TLS 1.3 handshake, issues an HTTP HEAD request, and records
// TLS properties, the server's transport parameters and HTTP headers.
// Outcomes are classified into the paper's Table 3 rows.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include <functional>

#include "http/headers.h"
#include "netsim/network.h"
#include "quic/connection.h"
#include "scanner/ethics.h"
#include "scanner/resilience.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace scanner {

struct QscanTarget {
  netsim::IpAddress address;
  std::optional<std::string> sni;
  /// Versions the target announced (from ZMap VN or ALPN tokens); the
  /// scanner picks its preferred compatible version from these.
  std::vector<quic::Version> version_hint;
};

/// Table 3 outcome classes, plus the resilience layer's degradation
/// classes. kCount is a sentinel: metric arrays size themselves from it
/// so adding a class can never silently drop a counter.
enum class QscanOutcome {
  kSuccess,
  kTimeout,
  kCryptoError0x128,
  kVersionMismatch,
  kOther,
  /// Timed out while this AS's circuit breaker was open: the provider
  /// is shedding probes and this was the (failed) half-open probe.
  kRateLimited,
  /// Skipped-and-recorded by the open breaker -- no wire traffic, no
  /// virtual time spent, the campaign keeps its deadline.
  kDegraded,
  /// The server violated the protocol (quic::ProtocolError taxonomy,
  /// any cause except kVnLoop); conclusive, never retried.
  kProtocolError,
  /// The server was seen (ServerHello arrived) but the handshake never
  /// completed before the attempt deadline -- a mid-handshake stall or
  /// truncated CRYPTO flight. Retried like a timeout.
  kStalledMidHandshake,
  /// Version-negotiation loop: a VN advertising the very version it
  /// just rejected (quic::ProtocolError::kVnLoop). Conclusive.
  kVersionLoop,
  /// The per-attempt rx-datagram watchdog budget ran out before the
  /// handshake concluded; the rest of the attempt's traffic was
  /// dropped. Conclusive (a looping endpoint would loop again).
  kWatchdog,
  kCount,
};

inline constexpr size_t kQscanOutcomeCount =
    static_cast<size_t>(QscanOutcome::kCount);

std::string to_string(QscanOutcome outcome);

struct QscanResult {
  QscanTarget target;
  QscanOutcome outcome = QscanOutcome::kTimeout;
  quic::ClientReport report;
  /// Parsed from the HTTP response when the HEAD request succeeded.
  std::optional<std::string> server_header;
  bool http_ok = false;
  /// Wire attempts this result consumed (1 without retries; 0 when the
  /// breaker skipped the target).
  int attempts = 1;
};

struct QscanOptions {
  /// Versions this scanner build supports, in preference order. The
  /// paper's scans ran with draft 29/32/34 support; the released tool
  /// added v1.
  std::vector<quic::Version> supported_versions{
      quic::kDraft29, quic::kDraft32, quic::kDraft34};
  /// Per-attempt watchdog: after this many received datagrams the
  /// attempt stops processing input (remaining traffic is dropped) and,
  /// if the handshake has not concluded, classifies as kWatchdog. A
  /// compliant handshake needs well under a dozen datagrams, so the
  /// default only ever trips on hostile or looping endpoints. 0
  /// disables.
  uint64_t watchdog_rx_datagrams = 256;
  /// Probe-timeout retransmissions of the first flight (RFC 9002-style
  /// PTO schedule); 0 disables.
  int max_retransmits = 2;
  bool send_http_head = true;
  uint64_t seed = 0x5ca9;
  /// Optional telemetry: counters/histograms are registered at
  /// construction; when null every hot-path hook is one pointer check.
  telemetry::MetricsRegistry* metrics = nullptr;
  /// Produces one TraceSink per attempt (e.g. telemetry::QlogDir); an
  /// empty factory disables tracing entirely.
  telemetry::TraceSinkFactory trace_factory;
  /// Retry schedule for timed-out targets; the default (one attempt)
  /// keeps campaigns byte-identical to the pre-retry scanner.
  RetryPolicy retry;
  /// Per-AS circuit breaker (disabled by default). Needs `asn_of` to
  /// attribute targets; with no mapping every target lands in AS 0 and
  /// the breaker degrades the whole campaign at once.
  bool breaker = false;
  std::function<uint32_t(const netsim::IpAddress&)> asn_of;
};

class QScanner {
 public:
  QScanner(netsim::Network& network, QscanOptions options);

  /// True if the target announced at least one version this scanner
  /// speaks (the paper pre-filters targets this way).
  bool compatible(const QscanTarget& target) const;

  QscanResult scan_one(const QscanTarget& target);
  std::vector<QscanResult> scan(std::span<const QscanTarget> targets);

  uint64_t attempts() const { return attempts_; }

 private:
  quic::Version pick_version(const QscanTarget& target) const;
  /// One wire attempt (the pre-resilience scan_one); scan_one wraps it
  /// with the retry budget and the circuit breaker.
  QscanResult attempt_once(const QscanTarget& target);

  netsim::Network& network_;
  QscanOptions options_;
  uint64_t attempts_ = 0;
  AsCircuitBreaker breaker_;

  telemetry::Counter* metric_attempts_ = nullptr;
  /// Indexed by QscanOutcome; "qscan.outcome.<name>" counters. Sized by
  /// the enum sentinel so new classes cannot silently drop counters.
  telemetry::Counter* metric_outcomes_[kQscanOutcomeCount] = {};
  telemetry::Counter* metric_retries_ = nullptr;
  /// Indexed by quic::ProtocolError; "quic.protocol_error.<cause>"
  /// counters (index 0 / kNone stays null -- it is not a cause).
  telemetry::Counter* metric_protocol_errors_[quic::kProtocolErrorCount] = {};
  telemetry::Counter* metric_watchdog_fired_ = nullptr;
  telemetry::Counter* metric_breaker_trips_ = nullptr;
  telemetry::Histogram* metric_handshake_rtt_ = nullptr;
  telemetry::Histogram* metric_packets_per_attempt_ = nullptr;
  telemetry::Histogram* metric_bytes_per_attempt_ = nullptr;
  /// Hot-path accounting folded from each attempt's connection (see
  /// quic::HotpathStats): scratch-buffer capacity growth and AEAD
  /// context reuse. alloc_bytes staying flat across attempts means the
  /// packet path runs allocation-free in steady state.
  telemetry::Counter* metric_hotpath_alloc_bytes_ = nullptr;
  telemetry::Counter* metric_hotpath_aead_reuse_ = nullptr;
  telemetry::Counter* metric_hotpath_undecryptable_ = nullptr;
};

}  // namespace scanner
