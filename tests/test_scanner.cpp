// Scanner integration tests over the full synthetic internet: the ZMap
// module (forced VN, padding ablation, blocklist), QScanner outcome
// classification against ground truth, the TLS-over-TCP scanner
// (Alt-Svc collection, QUIC/TCP certificate agreement), the DNS
// pipeline, and the ethics layer.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "internet/internet.h"
#include "scanner/dns_scan.h"
#include "scanner/ethics.h"
#include "scanner/qscanner.h"
#include "scanner/tcp_tls.h"
#include "scanner/zmap.h"

namespace {

using namespace scanner;

/// Shared week-18 internet (built once; tests are read-only on the
/// population, and scans are independent connections).
struct World {
  netsim::EventLoop loop;
  internet::Internet net{{.dns_corpus_scale = 0.01}, 18, loop};
};

World& world() {
  static World w;
  return w;
}

TEST(Ethics, BlocklistFiltersPrefixes) {
  Blocklist blocklist;
  blocklist.add(*netsim::Prefix::parse("104.16.0.0/12"));
  EXPECT_TRUE(blocklist.blocked(*netsim::IpAddress::parse("104.17.0.1")));
  EXPECT_FALSE(blocklist.blocked(*netsim::IpAddress::parse("8.8.8.8")));
  std::vector<netsim::IpAddress> targets{
      *netsim::IpAddress::parse("104.17.0.1"),
      *netsim::IpAddress::parse("8.8.8.8")};
  EXPECT_EQ(blocklist.filter(targets).size(), 1u);
}

TEST(Ethics, DomainCapLimitsPerAddress) {
  DomainCap cap(3);
  auto addr = *netsim::IpAddress::parse("1.2.3.4");
  auto other = *netsim::IpAddress::parse("1.2.3.5");
  EXPECT_TRUE(cap.accept(addr));
  EXPECT_TRUE(cap.accept(addr));
  EXPECT_TRUE(cap.accept(addr));
  EXPECT_FALSE(cap.accept(addr));
  EXPECT_TRUE(cap.accept(other));
}

TEST(Ethics, RateLimiterSpacing) {
  RateLimiter limiter(15'000);
  EXPECT_EQ(limiter.send_time_us(0), 0u);
  EXPECT_EQ(limiter.send_time_us(15'000), 15'000u * limiter.interval_us());
  EXPECT_NEAR(static_cast<double>(limiter.send_time_us(15'000)), 1e6, 2e4);
}

TEST(Zmap, ProbeIsPaddedAndUsesForcingVersion) {
  ZmapQuicScanner zmap(world().net.network(), {});
  crypto::Rng rng(1);
  auto probe = zmap.build_probe(rng);
  EXPECT_GE(probe.size(), 1200u);
  auto info = quic::peek_datagram(probe);
  ASSERT_TRUE(info.has_value());
  EXPECT_TRUE(info->long_header);
  EXPECT_TRUE(quic::is_force_negotiation(info->version));
}

TEST(Zmap, ProbeTemplateGoldenLayout) {
  struct Case {
    bool pad;
    quic::Version version;
  };
  for (Case c : {Case{true, quic::kForceNegotiation},
                 Case{false, quic::kForceNegotiation},
                 Case{true, 0x1a2a3a4a}}) {
    ZmapOptions options;
    options.pad_to_1200 = c.pad;
    options.probe_version = c.version;
    ZmapQuicScanner zmap(world().net.network(), options);
    const size_t size = c.pad ? 1200 : 64;
    crypto::Rng rng(1), expected(1);
    for (int i = 0; i < 5; ++i) {
      auto probe = zmap.build_probe(rng);
      wire::Writer w;
      w.u8(0xc0);  // long header, Initial
      w.u32(c.version);
      w.u8(8);
      w.bytes(expected.bytes(8));  // DCID
      w.u8(8);
      w.bytes(expected.bytes(8));  // SCID
      w.u8(0);                     // token length
      w.varint(c.pad ? 1174 : 38);
      w.zeros(size - w.size());
      EXPECT_EQ(probe, w.data()) << "pad=" << c.pad << " probe " << i;
    }
    EXPECT_EQ(rng.next(), expected.next());
  }
}

TEST(Zmap, SweepFindsQuicHostsAndOnlyThem) {
  auto& w = world();
  auto candidates = w.net.zmap_candidates_v4();
  ZmapQuicScanner zmap(w.net.network(), {});
  auto hits = zmap.scan(candidates);
  EXPECT_GT(hits.size(), 2000u);
  size_t vn_responders = 0;
  for (const auto& host : w.net.population().hosts()) {
    if (host.address.is_v4() && host.quic_enabled() && host.respond_to_vn &&
        !host.udp_filtered)
      ++vn_responders;
  }
  EXPECT_EQ(hits.size(), vn_responders);
  // Every hit's version list equals the host's advertised set.
  for (const auto& hit : hits) {
    const auto* host = w.net.population().host_by_address(hit.address);
    ASSERT_NE(host, nullptr) << hit.address.to_string();
    EXPECT_EQ(hit.versions, host->advertised_versions);
  }
}

TEST(Zmap, HostingerInvisibleToSweep) {
  auto& w = world();
  ZmapQuicScanner zmap(w.net.network(), {});
  std::vector<netsim::IpAddress> targets;
  for (const auto& host : w.net.population().hosts())
    if (host.group == "hostinger") targets.push_back(host.address);
  ASSERT_FALSE(targets.empty());
  EXPECT_TRUE(zmap.scan(targets).empty());
}

TEST(Zmap, UnpaddedProbesCollapseToOneAs) {
  auto& w = world();
  auto candidates = w.net.zmap_candidates_v4();
  ZmapOptions unpadded;
  unpadded.pad_to_1200 = false;
  ZmapQuicScanner zmap(w.net.network(), unpadded);
  auto hits = zmap.scan(candidates);
  ZmapQuicScanner padded_scan(w.net.network(), {});
  auto padded = padded_scan.scan(candidates);
  ASSERT_GT(padded.size(), 0u);
  double rate = static_cast<double>(hits.size()) /
                static_cast<double>(padded.size());
  EXPECT_GT(rate, 0.05);  // paper: 11.3 %
  EXPECT_LT(rate, 0.20);
  // Dominated by a single AS (paper: 95.4 %).
  std::map<uint32_t, size_t> by_as;
  for (const auto& hit : hits)
    ++by_as[w.net.population().as_registry().asn_for(hit.address)];
  size_t top = 0;
  for (const auto& [asn, count] : by_as) top = std::max(top, count);
  EXPECT_GT(static_cast<double>(top) / static_cast<double>(hits.size()), 0.9);
}

TEST(Zmap, BlocklistReducesProbes) {
  auto& w = world();
  ZmapOptions options;
  options.blocklist.add(*netsim::Prefix::parse("104.16.0.0/12"));
  options.blocklist.add(*netsim::Prefix::parse("172.64.0.0/13"));
  ZmapQuicScanner zmap(w.net.network(), options);
  auto candidates = w.net.zmap_candidates_v4();
  auto hits = zmap.scan(candidates);
  EXPECT_GT(zmap.stats().blocked, 0u);
  for (const auto& hit : hits)
    EXPECT_NE(w.net.population().as_registry().asn_for(hit.address),
              internet::kAsCloudflare);
}

TEST(QScanner, OutcomesMatchGroundTruthPerGroup) {
  auto& w = world();
  QScanner scanner(w.net.network(), {});
  std::map<std::string, QscanOutcome> expectations{
      {"cloudflare-idle", QscanOutcome::kCryptoError0x128},
      {"google-mismatch", QscanOutcome::kVersionMismatch},
      {"google-stall", QscanOutcome::kTimeout},
      {"akamai", QscanOutcome::kTimeout},
      {"google", QscanOutcome::kSuccess},
      {"facebook-pop", QscanOutcome::kSuccess},
      {"broken-tail", QscanOutcome::kOther},
  };
  std::map<std::string, int> tested;
  for (const auto& host : w.net.population().hosts()) {
    auto it = expectations.find(host.group);
    if (it == expectations.end() || !host.address.is_v4()) continue;
    if (tested[host.group] >= 3) continue;
    QscanTarget target{host.address, std::nullopt,
                       host.advertised_versions};
    if (!scanner.compatible(target)) continue;
    auto result = scanner.scan_one(target);
    EXPECT_EQ(result.outcome, it->second)
        << host.group << " @ " << host.address.to_string()
        << " got " << to_string(result.outcome);
    ++tested[host.group];
  }
  for (const auto& [group, expected] : expectations)
    EXPECT_GE(tested[group], 1) << group << " never exercised";
}

TEST(QScanner, SniScanExtractsEverything) {
  auto& w = world();
  const auto& pop = w.net.population();
  QScanner scanner(w.net.network(), {});
  // Pick a Cloudflare-hosted domain.
  const internet::DomainInfo* domain = nullptr;
  for (const auto& d : pop.domains()) {
    if (d.v4_hosts.empty()) continue;
    if (pop.hosts()[d.v4_hosts[0]].group == "cloudflare") {
      domain = &d;
      break;
    }
  }
  ASSERT_NE(domain, nullptr);
  const auto& host = pop.hosts()[domain->v4_hosts[0]];
  auto result = scanner.scan_one(
      {host.address, domain->name, host.advertised_versions});
  ASSERT_EQ(result.outcome, QscanOutcome::kSuccess);
  EXPECT_EQ(result.server_header, "cloudflare");
  EXPECT_TRUE(result.http_ok);
  // Transport parameters identify catalog config 0 (Cloudflare).
  EXPECT_EQ(internet::tp_config_id_for(result.report.server_transport_params),
            internet::kTpConfigCloudflare);
  // Certificate covers the domain.
  ASSERT_FALSE(result.report.tls.certificate_chain.empty());
  EXPECT_TRUE(
      result.report.tls.certificate_chain[0].matches_host(domain->name));
}

TEST(QScanner, MismatchedSniRejected) {
  auto& w = world();
  const auto& pop = w.net.population();
  // Its own seed: a default-seeded scanner draws the same source port
  // and connection IDs as an earlier test's scanner on this shared
  // world, and the server, which still holds that earlier session,
  // would take this Initial for it.
  QscanOptions options;
  options.seed = 0x5e1f;
  QScanner scanner(w.net.network(), options);
  for (const auto& host : pop.hosts()) {
    if (host.group != "cloudflare" || !host.address.is_v4()) continue;
    auto result = scanner.scan_one(
        {host.address, "definitely-not-hosted.example",
         host.advertised_versions});
    EXPECT_EQ(result.outcome, QscanOutcome::kCryptoError0x128);
    EXPECT_EQ(result.report.close_reason, "tls: handshake failure");
    break;
  }
}

TEST(QScanner, CompatibilityFilter) {
  QScanner scanner(world().net.network(), {});
  QscanTarget gquic_only{*netsim::IpAddress::parse("1.2.3.4"), std::nullopt,
                         {quic::kQ050, quic::kQ046}};
  EXPECT_FALSE(scanner.compatible(gquic_only));
  QscanTarget draft29{*netsim::IpAddress::parse("1.2.3.4"), std::nullopt,
                      {quic::kDraft29, quic::kQ050}};
  EXPECT_TRUE(scanner.compatible(draft29));
  QscanTarget unknown{*netsim::IpAddress::parse("1.2.3.4"), std::nullopt, {}};
  EXPECT_TRUE(scanner.compatible(unknown));
}

TEST(TcpTls, AltSvcCollectedFromCloudflare) {
  auto& w = world();
  const auto& pop = w.net.population();
  TcpTlsScanner scanner(w.net.network(), {});
  for (const auto& d : pop.domains()) {
    if (d.v4_hosts.empty()) continue;
    const auto& host = pop.hosts()[d.v4_hosts[0]];
    if (host.group != "cloudflare") continue;
    if (host.tls_max_version != 0x0304) continue;  // skip the 1.2 quirk
    auto result = scanner.scan_one({host.address, d.name});
    ASSERT_TRUE(result.handshake_ok);
    ASSERT_TRUE(result.http_ok);
    ASSERT_EQ(result.alt_svc.size(), 3u);
    EXPECT_EQ(result.alt_svc[0].alpn, "h3-27");
    EXPECT_EQ(result.alt_svc[0].port, 443);
    EXPECT_EQ(result.response_headers.get("server"), "cloudflare");
    break;
  }
}

TEST(TcpTls, GoogleNoSniReturnsSelfSignedButQuicDoesNot) {
  auto& w = world();
  const auto& pop = w.net.population();
  TcpTlsScanner tcp(w.net.network(), {});
  QScanner quic_scan(w.net.network(), {});
  for (const auto& host : pop.hosts()) {
    if (host.group != "google" || !host.address.is_v4()) continue;
    auto tcp_result = tcp.scan_one({host.address, std::nullopt});
    ASSERT_TRUE(tcp_result.handshake_ok);
    ASSERT_FALSE(tcp_result.details.certificate_chain.empty());
    EXPECT_TRUE(tcp_result.details.certificate_chain[0].self_signed());
    EXPECT_EQ(tcp_result.details.certificate_chain[0].subject_cn,
              "invalid2.invalid");
    auto quic_result = quic_scan.scan_one(
        {host.address, std::nullopt, host.advertised_versions});
    ASSERT_EQ(quic_result.outcome, QscanOutcome::kSuccess);
    ASSERT_FALSE(quic_result.report.tls.certificate_chain.empty());
    EXPECT_FALSE(quic_result.report.tls.certificate_chain[0].self_signed());
    break;
  }
}

TEST(TcpTls, SniYieldsSameCertificateAsQuic) {
  auto& w = world();
  const auto& pop = w.net.population();
  TcpTlsScanner tcp(w.net.network(), {});
  QScanner quic_scan(w.net.network(), {});
  size_t compared = 0;
  for (const auto& d : pop.domains()) {
    if (d.v4_hosts.empty() || compared >= 5) continue;
    const auto& host = pop.hosts()[d.v4_hosts[0]];
    if (host.group != "cloudflare") continue;
    auto tcp_result = tcp.scan_one({host.address, d.name});
    auto quic_result = quic_scan.scan_one(
        {host.address, d.name, host.advertised_versions});
    if (!tcp_result.handshake_ok ||
        quic_result.outcome != QscanOutcome::kSuccess)
      continue;
    ASSERT_FALSE(tcp_result.details.certificate_chain.empty());
    ASSERT_FALSE(quic_result.report.tls.certificate_chain.empty());
    EXPECT_EQ(tcp_result.details.certificate_chain[0].fingerprint(),
              quic_result.report.tls.certificate_chain[0].fingerprint());
    ++compared;
  }
  EXPECT_GT(compared, 0u);
}

TEST(TcpTls, Tls12OnlyDeploymentsExist) {
  auto& w = world();
  const auto& pop = w.net.population();
  TcpTlsScanner tcp(w.net.network(), {});
  bool found = false;
  for (const auto& host : pop.hosts()) {
    if (host.tls_max_version != 0x0303 || !host.address.is_v4()) continue;
    // Must be QUIC-enabled: the paper's quirk is TLS 1.3 off, QUIC on.
    ASSERT_TRUE(host.quic_enabled());
    const internet::DomainInfo* domain = nullptr;
    for (uint32_t id : host.domain_ids) {
      domain = &pop.domains()[id];
      break;
    }
    if (!domain) continue;
    auto result = tcp.scan_one({host.address, domain->name});
    ASSERT_TRUE(result.handshake_ok);
    EXPECT_EQ(result.details.negotiated_version, tls::kVersion12);
    found = true;
    break;
  }
  EXPECT_TRUE(found);
}

TEST(DnsScan, HttpsRrRatesOrderedByList) {
  auto& w = world();
  DnsScanner scanner(w.net.zones());
  auto alexa = scanner.scan_list("alexa", w.net.list_corpus("alexa"));
  auto czds = scanner.scan_list("czds", w.net.list_corpus("czds"));
  EXPECT_GT(alexa.https_rr_rate(), czds.https_rr_rate());
  EXPECT_GT(alexa.with_https_rr, 0u);
  EXPECT_GT(alexa.with_a, alexa.with_https_rr);
}

TEST(DnsScan, RecordsCarryAddressesForJoins) {
  auto& w = world();
  DnsScanner scanner(w.net.zones());
  auto scan = scanner.scan_list("alexa", w.net.list_corpus("alexa"));
  size_t verified = 0;
  for (const auto& record : scan.records) {
    const auto* domain = w.net.population().domain_by_name(record.domain);
    ASSERT_NE(domain, nullptr) << record.domain;
    EXPECT_EQ(record.a.size(), domain->v4_hosts.size());
    if (++verified > 50) break;
  }
  EXPECT_GT(verified, 10u);
}

TEST(QScanner, RetryingDeploymentsStillSucceedWithSni) {
  auto& w = world();
  const auto& pop = w.net.population();
  QScanner scanner(w.net.network(), {});
  size_t checked = 0;
  for (const auto& d : pop.domains()) {
    if (d.v4_hosts.empty() || checked >= 3) continue;
    const auto& host = pop.hosts()[d.v4_hosts[0]];
    if (host.group != "fastly" || !host.domain_ids.contains(d.id)) continue;
    auto result = scanner.scan_one(
        {host.address, d.name, host.advertised_versions});
    EXPECT_EQ(result.outcome, QscanOutcome::kSuccess) << d.name;
    EXPECT_TRUE(result.report.retry_used);
    EXPECT_TRUE(result.report.server_transport_params
                    .retry_source_connection_id.has_value());
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(Zmap, RateLimitPacesProbesInVirtualTime) {
  auto& w = world();
  ZmapOptions options;
  options.packets_per_second = 1'000;
  ZmapQuicScanner zmap(w.net.network(), options);
  std::vector<netsim::IpAddress> targets;
  for (const auto& host : w.net.population().hosts()) {
    if (host.group == "cloudflare" && host.address.is_v4())
      targets.push_back(host.address);
    if (targets.size() >= 50) break;
  }
  uint64_t before = w.loop.now_us();
  zmap.scan(targets);
  // 50 probes at 1 kpps must span at least ~49 ms of virtual time
  // (plus the 2 s response window the scanner always waits out).
  EXPECT_GE(w.loop.now_us() - before, 49'000u + 2'000'000u);
}

TEST(Zmap, StatsAccountProbesAndBytes) {
  auto& w = world();
  ZmapQuicScanner zmap(w.net.network(), {});
  std::vector<netsim::IpAddress> targets{
      *netsim::IpAddress::parse("198.51.100.1"),  // dud
      *netsim::IpAddress::parse("198.51.100.2"),
  };
  zmap.scan(targets);
  EXPECT_EQ(zmap.stats().probes_sent, 2u);
  EXPECT_GE(zmap.stats().bytes_sent, 2u * 1200u);
  EXPECT_EQ(zmap.stats().responses, 0u);
}

TEST(TcpTls, SynScanSeparatesOpenAndClosed) {
  auto& w = world();
  TcpTlsScanner tcp(w.net.network(), {});
  std::vector<netsim::IpAddress> targets;
  const internet::HostProfile* open_host = nullptr;
  for (const auto& host : w.net.population().hosts()) {
    if (host.address.is_v4()) {
      open_host = &host;
      break;
    }
  }
  ASSERT_NE(open_host, nullptr);
  targets.push_back(open_host->address);
  targets.push_back(*netsim::IpAddress::parse("198.51.100.77"));  // dud
  auto open = tcp.syn_scan(targets);
  ASSERT_EQ(open.size(), 1u);
  EXPECT_EQ(open[0], open_host->address);
}

TEST(DnsScan, SyntheticFillersResolveNxdomain) {
  auto& w = world();
  dns::Resolver resolver(w.net.zones());
  auto name = internet::Population::synthetic_domain("alexa", 3);
  EXPECT_EQ(resolver.resolve(name, dns::RRType::kA).rcode,
            dns::RCode::kNxDomain);
  EXPECT_EQ(resolver.resolve(name, dns::RRType::kHttps).rcode,
            dns::RCode::kNxDomain);
}

}  // namespace
