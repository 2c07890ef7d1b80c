// The ZMap QUIC module (section 3.1): a stateless sweep that sends one
// padded Initial-shaped datagram with a version from the reserved
// 0x?a?a?a?a greasing range, forcing spec-conforming servers to answer
// with a Version Negotiation packet that lists their supported
// versions. The probe carries no ClientHello and nothing is encrypted;
// the responder must process the unknown version first.
#pragma once

#include <optional>
#include <vector>

#include "netsim/network.h"
#include "crypto/rng.h"
#include "quic/packet.h"
#include "scanner/ethics.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace scanner {

struct ZmapOptions {
  quic::Version probe_version = quic::kForceNegotiation;
  /// Pad the probe to 1200 bytes (the section 3.1 ablation turns this
  /// off and observes the response rate collapse).
  bool pad_to_1200 = true;
  uint64_t packets_per_second = 15'000;
  netsim::IpAddress source = netsim::IpAddress::v4(0xc0000201);  // 192.0.2.1
  Blocklist blocklist;
  /// Seed for probe connection-ID entropy (previously hard-coded).
  uint64_t seed = 0x2a9a;
  /// Sweep rounds: after the 2 s response window, non-responders are
  /// re-probed up to probe_rounds - 1 more times (ZMap's classic
  /// loss-recovery move for stateless scans). 1 = the seed behavior.
  int probe_rounds = 1;
  /// Optional telemetry; both may be null/empty for zero-cost scans.
  telemetry::MetricsRegistry* metrics = nullptr;
  /// Single sink for the whole sweep (stateless scan = one trace).
  telemetry::TraceSink* trace_sink = nullptr;
};

struct ZmapHit {
  netsim::IpAddress address;
  std::vector<quic::Version> versions;  // as listed in the VN packet
};

struct ZmapStats {
  uint64_t targets = 0;
  uint64_t probes_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t responses = 0;
  uint64_t malformed = 0;
  uint64_t blocked = 0;
  uint64_t retry_rounds = 0;  // extra rounds actually run
};

class ZmapQuicScanner {
 public:
  ZmapQuicScanner(netsim::Network& network, ZmapOptions options);

  /// Sweeps `targets`; returns one hit per responding address.
  std::vector<ZmapHit> scan(std::span<const netsim::IpAddress> targets);

  const ZmapStats& stats() const { return stats_; }

  /// The raw probe datagram (exposed for tests: wire-format checks):
  /// the prebuilt template with fresh DCID and SCID drawn from `rng`.
  std::vector<uint8_t> build_probe(crypto::Rng& rng) const;

 private:
  netsim::Network& network_;
  ZmapOptions options_;
  /// The padded probe with zeroed connection IDs, built once from
  /// options_ (ZMap's probe modules fill a packet template the same way).
  std::vector<uint8_t> probe_template_;
  ZmapStats stats_;
  telemetry::Counter* metric_probes_ = nullptr;
  telemetry::Counter* metric_bytes_ = nullptr;
  telemetry::Counter* metric_responses_ = nullptr;
  telemetry::Counter* metric_malformed_ = nullptr;
  telemetry::Counter* metric_blocked_ = nullptr;
  telemetry::Counter* metric_retry_rounds_ = nullptr;
};

}  // namespace scanner
