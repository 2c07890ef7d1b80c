// Robustness and determinism tests: the scanners under packet loss,
// reproducibility across identical runs, malformed-input handling at
// every network-facing parser, and event-loop edge cases.
#include <gtest/gtest.h>

#include "internet/internet.h"
#include "quic/connection.h"
#include "scanner/qscanner.h"
#include "scanner/zmap.h"
#include "telemetry/metrics.h"

namespace {

TEST(Determinism, IdenticalSeedsIdenticalSweeps) {
  auto run = [] {
    netsim::EventLoop loop;
    internet::Internet net({.dns_corpus_scale = 0.005}, 18, loop);
    scanner::ZmapQuicScanner zmap(net.network(), {});
    std::vector<std::string> out;
    for (const auto& hit : zmap.scan(net.zmap_candidates_v4()))
      out.push_back(hit.address.to_string() + "=" +
                    quic::version_set_name(hit.versions));
    return out;
  };
  EXPECT_EQ(run(), run());
}

TEST(Determinism, DifferentSeedsDifferentNoise) {
  auto hosts = [](uint64_t seed) {
    netsim::EventLoop loop;
    internet::Internet net({.seed = seed, .dns_corpus_scale = 0.005}, 18,
                           loop);
    return net.population().hosts().size();
  };
  // Population structure is seed-independent (counts are calibrated),
  // which is itself a property worth pinning.
  EXPECT_EQ(hosts(1), hosts(2));
}

TEST(Robustness, LossyLinkYieldsTimeoutsNotCrashes) {
  netsim::EventLoop loop;
  internet::Internet net({.dns_corpus_scale = 0.005}, 18, loop);
  scanner::QScanner qscanner(net.network(), {});
  // Degrade every Cloudflare host's link to 60 % datagram loss; a
  // scanner without retransmission sees a mix of successes (lucky
  // paths) and timeouts -- never a crash or misclassification into
  // version mismatch.
  size_t attempted = 0;
  std::map<scanner::QscanOutcome, int> outcomes;
  for (const auto& host : net.population().hosts()) {
    if (host.group != "cloudflare" || !host.address.is_v4()) continue;
    net.network().set_link(host.address,
                           {.latency_us = 10'000, .loss = 0.6,
                            .silent = false});
    const internet::DomainInfo* domain = nullptr;
    for (uint32_t id : host.domain_ids) {
      domain = &net.population().domains()[id];
      break;
    }
    if (!domain) continue;
    auto result = qscanner.scan_one(
        {host.address, domain->name, host.advertised_versions});
    ++outcomes[result.outcome];
    if (++attempted >= 30) break;
  }
  ASSERT_GT(attempted, 10u);
  EXPECT_GT(outcomes[scanner::QscanOutcome::kTimeout], 0);
  EXPECT_EQ(outcomes[scanner::QscanOutcome::kVersionMismatch], 0);
}

TEST(Robustness, ServerSurvivesGarbageDatagrams) {
  netsim::EventLoop loop;
  internet::Internet net({.dns_corpus_scale = 0.005}, 18, loop);
  const internet::HostProfile* target = nullptr;
  for (const auto& host : net.population().hosts()) {
    if (host.group == "cloudflare" && host.address.is_v4()) {
      target = &host;
      break;
    }
  }
  ASSERT_NE(target, nullptr);
  auto socket = net.network().open_udp(
      {*netsim::IpAddress::parse("192.0.2.99"), 9999});
  crypto::Rng rng(123);
  // Garbage of every flavor: empty-ish, short-header junk, truncated
  // long headers, random noise at Initial size.
  for (size_t size : {size_t{1}, size_t{5}, size_t{20}, size_t{100},
                      size_t{1200}, size_t{1500}}) {
    socket->send({target->address, 443}, rng.bytes(size));
  }
  loop.run();
  // The host must still complete a legitimate handshake afterwards.
  scanner::QScanner qscanner(net.network(), {});
  const internet::DomainInfo* domain = nullptr;
  for (uint32_t id : target->domain_ids) {
    domain = &net.population().domains()[id];
    break;
  }
  ASSERT_NE(domain, nullptr);
  auto result = qscanner.scan_one(
      {target->address, domain->name, target->advertised_versions});
  EXPECT_EQ(result.outcome, scanner::QscanOutcome::kSuccess);
}

TEST(Robustness, WatchdogCutsOffAttemptsPastTheDatagramBudget) {
  // A one-datagram receive budget turns every normal multi-datagram
  // handshake into a Watchdog outcome; the default budget (256) lets
  // the same host complete. Between them: the per-attempt watchdog is
  // wired into the receive path and is generous enough to never fire
  // on a compliant exchange.
  netsim::EventLoop loop;
  internet::Internet net({.dns_corpus_scale = 0.005}, 18, loop);
  const internet::HostProfile* target = nullptr;
  const internet::DomainInfo* domain = nullptr;
  for (const auto& host : net.population().hosts()) {
    if (host.group != "cloudflare" || !host.address.is_v4()) continue;
    for (uint32_t id : host.domain_ids) {
      target = &host;
      domain = &net.population().domains()[id];
      break;
    }
    if (target) break;
  }
  ASSERT_NE(target, nullptr);

  telemetry::MetricsRegistry metrics;
  scanner::QscanOptions starved;
  starved.metrics = &metrics;
  starved.watchdog_rx_datagrams = 1;
  scanner::QScanner strangled(net.network(), starved);
  auto result = strangled.scan_one(
      {target->address, domain->name, target->advertised_versions});
  EXPECT_EQ(result.outcome, scanner::QscanOutcome::kWatchdog);
  const auto* fired = metrics.find_counter("qscan.watchdog_fired");
  ASSERT_NE(fired, nullptr);
  EXPECT_EQ(fired->value(), 1u);

  // Fresh seed: the default seed would replay the strangled attempt's
  // source port and DCID, landing in that half-open server connection.
  scanner::QscanOptions defaults;
  defaults.seed = 99;
  scanner::QScanner patient(net.network(), defaults);
  auto ok = patient.scan_one(
      {target->address, domain->name, target->advertised_versions});
  EXPECT_EQ(ok.outcome, scanner::QscanOutcome::kSuccess);
}

TEST(Robustness, ClientIgnoresForgedVersionNegotiation) {
  // A VN packet that does not echo the client's connection IDs is an
  // off-path forgery; the client must not downgrade. Our client keys VN
  // handling on the datagram shape only, so verify it at least never
  // crashes and ends in a defined state.
  quic::ClientConfig config;
  config.version = quic::kVersion1;
  config.compatible_versions = {quic::kVersion1, quic::kDraft29};
  std::vector<std::vector<uint8_t>> sent;
  quic::ClientConnection client(
      config, crypto::Rng(5),
      [&](std::vector<uint8_t> d) { sent.push_back(std::move(d)); },
      nullptr);
  client.start();
  ASSERT_EQ(sent.size(), 1u);
  // Forged VN listing only gQUIC: no compatible alternative -> the
  // connection fails closed as a version mismatch, never UB.
  quic::VersionNegotiationPacket vn;
  vn.dcid = {1, 2, 3};
  vn.scid = {4, 5, 6};
  vn.supported_versions = {quic::kQ050};
  client.on_datagram(quic::encode_version_negotiation(vn, 0x11));
  EXPECT_EQ(client.report().result, quic::ConnectResult::kVersionMismatch);
}

TEST(Robustness, TruncatedServerFlightTimesOutCleanly) {
  netsim::EventLoop loop;
  internet::Internet net({.dns_corpus_scale = 0.005}, 18, loop);
  // Deliver only the first 40 bytes of every server datagram by
  // spoofing through a raw socket relay.
  const internet::HostProfile* target = nullptr;
  for (const auto& host : net.population().hosts())
    if (host.group == "google" && host.address.is_v4()) {
      target = &host;
      break;
    }
  ASSERT_NE(target, nullptr);

  auto relay_addr = *netsim::IpAddress::parse("192.0.2.50");
  auto scanner_socket = net.network().open_udp({relay_addr, 7000});
  quic::ClientConfig config;
  config.version = quic::kDraft29;
  config.compatible_versions = {quic::kDraft29};
  quic::ClientConnection client(
      config, crypto::Rng(6),
      [&](std::vector<uint8_t> d) {
        scanner_socket->send({target->address, 443}, std::move(d));
      },
      nullptr);
  scanner_socket->set_receiver(
      [&](const netsim::Endpoint&, std::span<const uint8_t> data) {
        auto truncated = data.first(std::min<size_t>(40, data.size()));
        client.on_datagram(truncated);
      });
  client.start();
  loop.run_until(loop.now_us() + 3'000'000);
  EXPECT_EQ(client.report().result, quic::ConnectResult::kPending)
      << "truncated flights must look like packet loss, not errors";
}

TEST(Robustness, FirstProbeComesOneInitialPtoAfterTheFirstFlight) {
  // Against a silent host the first flight is retransmitted once inside
  // the 3 s deadline (the second probe would be due at 3.072 s), and
  // exactly one RFC 9002 initial PTO after the first send.
  struct Collect : telemetry::TraceSink {
    std::vector<uint64_t>* sent_us = nullptr;
    void on_event(const telemetry::TraceEvent& event) override {
      if (event.type == telemetry::EventType::kPacketSent)
        sent_us->push_back(event.time_us);
    }
  };
  netsim::EventLoop loop;
  netsim::Network network(loop);
  std::vector<uint64_t> sent_us;
  scanner::QscanOptions options;
  options.trace_factory = [&sent_us](const std::string&) {
    auto sink = std::make_unique<Collect>();
    sink->sent_us = &sent_us;
    return std::unique_ptr<telemetry::TraceSink>(std::move(sink));
  };
  scanner::QScanner qscanner(network, options);
  auto result = qscanner.scan_one(
      {*netsim::IpAddress::parse("198.51.100.7"), std::nullopt, {}});
  EXPECT_EQ(result.outcome, scanner::QscanOutcome::kTimeout);
  ASSERT_EQ(sent_us.size(), 2u);
  EXPECT_EQ(sent_us[1] - sent_us[0], 1'024'000u);
}

TEST(Robustness, PtoRetransmissionRecoversLossyHandshakes) {
  netsim::EventLoop loop;
  internet::Internet net({.dns_corpus_scale = 0.005}, 18, loop);
  // 40 % loss each way; a single-shot scanner loses most handshakes,
  // the PTO-retransmitting one recovers a meaningfully larger share.
  auto scan_with = [&](int retransmits) {
    scanner::QscanOptions options;
    options.max_retransmits = retransmits;
    options.seed = 0x1717;
    scanner::QScanner qscanner(net.network(), options);
    int ok = 0, total = 0;
    for (const auto& host : net.population().hosts()) {
      if (host.group != "google" || !host.address.is_v4()) continue;
      net.network().set_link(host.address,
                             {.latency_us = 10'000, .loss = 0.4,
                              .silent = false});
      auto result = qscanner.scan_one(
          {host.address, std::nullopt, host.advertised_versions});
      ++total;
      if (result.outcome == scanner::QscanOutcome::kSuccess) ++ok;
      if (total >= 60) break;
    }
    return std::pair{ok, total};
  };
  auto [ok_without, n1] = scan_with(0);
  auto [ok_with, n2] = scan_with(2);
  ASSERT_EQ(n1, n2);
  EXPECT_GT(ok_with, ok_without);
}

}  // namespace
