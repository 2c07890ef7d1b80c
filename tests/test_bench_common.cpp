// Tests for the bench orchestration layer: the address -> domains DNS
// join, and the discovery pipeline and target assembly every
// table/figure binary is built on. Runs on a shrunken corpus for speed.
#include <gtest/gtest.h>

#include "common.h"
#include "http/alpn.h"

namespace {

const bench::Discovery& discovery() {
  static bench::Discovery d = [] {
    bench::DiscoveryOptions options;
    options.dns_corpus_scale = 0.01;
    options.tcp_domain_stride = 3;
    return bench::run_discovery(18, options);
  }();
  return d;
}

dns::BulkRecord record(const std::string& domain,
                       std::vector<const char*> v4) {
  dns::BulkRecord r;
  r.domain = domain;
  for (const char* addr : v4) r.a.push_back(*netsim::IpAddress::parse(addr));
  return r;
}

TEST(DnsJoin, MapsAddressesToDomains) {
  using netsim::IpAddress;
  bench::DnsJoin join;
  join.add(record("a.example", {"1.1.1.1", "1.1.1.2"}));
  join.add(record("b.example", {"1.1.1.1"}));
  EXPECT_EQ(join.domain_count(*IpAddress::parse("1.1.1.1")), 2u);
  EXPECT_EQ(join.domain_count(*IpAddress::parse("1.1.1.2")), 1u);
  EXPECT_EQ(join.domain_count(*IpAddress::parse("9.9.9.9")), 0u);
  EXPECT_EQ(join.total_pairs(), 3u);
  EXPECT_EQ(join.distinct_domains({*IpAddress::parse("1.1.1.1"),
                                   *IpAddress::parse("1.1.1.2")}),
            2u);
}

TEST(Discovery, AllChannelsProduceFindings) {
  const auto& d = discovery();
  EXPECT_GT(d.zmap_v4.size(), 1000u);
  EXPECT_GT(d.zmap_v6.size(), 100u);
  EXPECT_GT(d.alt_svc.size(), 100u);
  EXPECT_GT(d.https_rr.size(), 100u);
  EXPECT_EQ(d.week, 18);
}

TEST(Discovery, AddressSetsRespectFamilies) {
  const auto& d = discovery();
  for (const auto& addr : d.zmap_addrs(false)) EXPECT_TRUE(addr.is_v4());
  for (const auto& addr : d.zmap_addrs(true)) EXPECT_TRUE(addr.is_v6());
  for (const auto& addr : d.alt_svc_addrs(false)) EXPECT_TRUE(addr.is_v4());
  for (const auto& addr : d.https_rr_addrs(true)) EXPECT_TRUE(addr.is_v6());
}

TEST(Discovery, AltSvcFindingsOnlyCarryQuicTokens) {
  for (const auto& finding : discovery().alt_svc) {
    ASSERT_FALSE(finding.alpn_tokens.empty());
    for (const auto& token : finding.alpn_tokens)
      EXPECT_TRUE(http::alpn_implies_quic(token)) << token;
  }
}

TEST(SniTargets, CombinedIsDedupedUnionOfSources) {
  auto targets = bench::assemble_sni_targets(discovery(), /*v6=*/false);
  EXPECT_FALSE(targets.from_zmap_dns.empty());
  EXPECT_FALSE(targets.from_alt_svc.empty());
  EXPECT_FALSE(targets.from_https_rr.empty());
  // No duplicate (address, sni) pairs in the union.
  std::set<std::pair<std::string, std::string>> seen;
  for (const auto& target : targets.combined) {
    EXPECT_TRUE(seen.insert({target.address.to_string(),
                             target.sni.value_or("")})
                    .second);
    EXPECT_TRUE(target.sni.has_value());
    EXPECT_TRUE(target.address.is_v4());
  }
  // The union is at most the sum and at least the largest source.
  size_t sum = targets.from_zmap_dns.size() + targets.from_alt_svc.size() +
               targets.from_https_rr.size();
  EXPECT_LE(targets.combined.size(), sum);
  EXPECT_GE(targets.combined.size(),
            std::max({targets.from_zmap_dns.size(),
                      targets.from_alt_svc.size(),
                      targets.from_https_rr.size()}));
}

TEST(SniTargets, ZmapDnsTargetsCarryVersionHints) {
  auto targets = bench::assemble_sni_targets(discovery(), false);
  for (const auto& target : targets.from_zmap_dns)
    EXPECT_FALSE(target.version_hint.empty());
}

TEST(NoSniTargets, OnePerZmapAddress) {
  auto targets = bench::assemble_no_sni_targets(discovery(), false);
  EXPECT_EQ(targets.size(), discovery().zmap_v4.size());
  for (const auto& target : targets) EXPECT_FALSE(target.sni.has_value());
}

TEST(Tally, SharesSumToHundred) {
  std::vector<scanner::QscanResult> results(10);
  results[0].outcome = scanner::QscanOutcome::kSuccess;
  results[1].outcome = scanner::QscanOutcome::kSuccess;
  results[2].outcome = scanner::QscanOutcome::kTimeout;
  for (size_t i = 3; i < 10; ++i)
    results[i].outcome = scanner::QscanOutcome::kCryptoError0x128;
  auto shares = bench::tally(results);
  EXPECT_EQ(shares.total, 10u);
  EXPECT_DOUBLE_EQ(shares.share(scanner::QscanOutcome::kSuccess), 20.0);
  EXPECT_DOUBLE_EQ(shares.share(scanner::QscanOutcome::kTimeout), 10.0);
  EXPECT_DOUBLE_EQ(shares.share(scanner::QscanOutcome::kCryptoError0x128),
                   70.0);
  EXPECT_DOUBLE_EQ(shares.share(scanner::QscanOutcome::kVersionMismatch),
                   0.0);
}

TEST(Discovery, TcpStrideScalesWorkNotShape) {
  // A strided TCP pass must still find the dominant Alt-Svc set.
  analysis::SetCounter sets;
  for (const auto& finding : discovery().alt_svc) {
    if (finding.address.is_v6()) continue;
    sets.add(http::alpn_set_name(finding.alpn_tokens));
  }
  auto ranked = sets.ranked();
  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(ranked[0].key, "h3-27,h3-28,h3-29");  // Cloudflare's set
}

}  // namespace
