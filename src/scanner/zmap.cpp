#include "scanner/zmap.h"

#include <map>

#include "crypto/rng.h"
#include "wire/buffer.h"

namespace scanner {

namespace {

// Byte offsets of the two 8-byte connection IDs in the probe: after the
// header byte, the 4-byte version and each CID's length byte.
constexpr size_t kCidLength = 8;
constexpr size_t kDcidOffset = 1 + 4 + 1;
constexpr size_t kScidOffset = kDcidOffset + kCidLength + 1;

// Virtual time each sweep round waits for late responses.
constexpr uint64_t kResponseWindowUs = 2'000'000;

}  // namespace

ZmapQuicScanner::ZmapQuicScanner(netsim::Network& network, ZmapOptions options)
    : network_(network), options_(std::move(options)) {
  // Initial-shaped long header with the forcing version. Contents after
  // the connection IDs are unencrypted junk: the server must inspect
  // the version first and answer VN without trying to decrypt.
  wire::Writer w;
  w.u8(0xc0 | 0x00);  // long header, fixed bit, type Initial
  w.u32(options_.probe_version);
  w.u8(kCidLength);
  w.zeros(kCidLength);  // DCID, drawn per probe
  w.u8(kCidLength);
  w.zeros(kCidLength);  // SCID, drawn per probe
  w.u8(0);              // token length
  size_t target = options_.pad_to_1200 ? 1200 : 64;
  w.varint(target - w.size() - 2);  // length field (approximate framing)
  w.zeros(target - w.size());
  probe_template_ = w.take();
  auto* metrics = options_.metrics;
  metric_probes_ = telemetry::maybe_counter(metrics, "zmap.probes_sent");
  metric_bytes_ = telemetry::maybe_counter(metrics, "zmap.bytes_sent");
  metric_responses_ = telemetry::maybe_counter(metrics, "zmap.responses");
  metric_malformed_ = telemetry::maybe_counter(metrics, "zmap.malformed");
  metric_blocked_ = telemetry::maybe_counter(metrics, "zmap.blocked");
  metric_retry_rounds_ =
      telemetry::maybe_counter(metrics, "zmap.retry_rounds");
}

std::vector<uint8_t> ZmapQuicScanner::build_probe(crypto::Rng& rng) const {
  std::vector<uint8_t> probe = probe_template_;
  std::span<uint8_t> bytes(probe);
  rng.fill(bytes.subspan(kDcidOffset, kCidLength));
  rng.fill(bytes.subspan(kScidOffset, kCidLength));
  return probe;
}

std::vector<ZmapHit> ZmapQuicScanner::scan(
    std::span<const netsim::IpAddress> targets) {
  stats_ = ZmapStats{};
  stats_.targets = targets.size();

  auto filtered = options_.blocklist.filter(targets);
  stats_.blocked = targets.size() - filtered.size();
  telemetry::add(metric_blocked_, stats_.blocked);

  auto& loop = network_.loop();
  auto socket = network_.open_udp({options_.source, 50000});
  std::map<netsim::IpAddress, std::vector<quic::Version>> hits;

  telemetry::Tracer tracer(options_.trace_sink, &loop,
                           telemetry::Vantage::kClient);

  socket->set_receiver([&](const netsim::Endpoint& from,
                           std::span<const uint8_t> data) {
    auto vn = quic::decode_version_negotiation(data);
    if (!vn) {
      ++stats_.malformed;
      telemetry::add(metric_malformed_);
      return;
    }
    ++stats_.responses;
    telemetry::add(metric_responses_);
    if (tracer.active()) {
      tracer.emit(telemetry::EventType::kPacketReceived,
                  {{"packet_type", "version_negotiation"},
                   {"peer", from.addr.to_string()},
                   {"size", data.size()}});
      std::string versions;
      for (quic::Version v : vn->supported_versions) {
        if (!versions.empty()) versions += ' ';
        versions += quic::version_name(v);
      }
      tracer.emit(telemetry::EventType::kVersionNegotiation,
                  {{"peer", from.addr.to_string()},
                   {"server_versions", versions}});
    }
    hits.emplace(from.addr, vn->supported_versions);
  });

  crypto::Rng rng(options_.seed);
  RateLimiter limiter(options_.packets_per_second);
  // Round 0 sweeps every filtered target; later rounds (the retry
  // policy for a stateless scan) re-probe only the non-responders, on
  // the same rng stream, so probe_rounds = 1 is byte-identical to the
  // single-sweep scanner.
  std::vector<netsim::IpAddress> pending = std::move(filtered);
  const int rounds = std::max(1, options_.probe_rounds);
  for (int round = 0; round < rounds; ++round) {
    if (round > 0) {
      std::vector<netsim::IpAddress> still_silent;
      still_silent.reserve(pending.size());
      for (const auto& addr : pending)
        if (!hits.contains(addr)) still_silent.push_back(addr);
      pending.swap(still_silent);
      if (pending.empty()) break;
      ++stats_.retry_rounds;
      telemetry::add(metric_retry_rounds_);
    }
    uint64_t base = loop.now_us();
    for (size_t i = 0; i < pending.size(); ++i) {
      auto addr = pending[i];
      loop.schedule_at(base + limiter.send_time_us(i), [this, &rng, addr,
                                                        &socket, &tracer] {
        auto probe = build_probe(rng);
        stats_.bytes_sent += probe.size();
        ++stats_.probes_sent;
        telemetry::add(metric_probes_);
        telemetry::add(metric_bytes_, probe.size());
        if (tracer.active()) {
          tracer.emit(telemetry::EventType::kPacketSent,
                      {{"packet_type", "initial"},
                       {"version", quic::version_name(options_.probe_version)},
                       {"target", addr.to_string()},
                       {"size", probe.size()}});
        }
        socket->send({addr, 443}, std::move(probe));
      });
    }
    loop.run();
    // Allow the response window to elapse (virtual time).
    loop.run_until(loop.now_us() + kResponseWindowUs);
  }

  std::vector<ZmapHit> out;
  out.reserve(hits.size());
  for (auto& [addr, versions] : hits) out.push_back({addr, std::move(versions)});
  return out;
}

}  // namespace scanner
