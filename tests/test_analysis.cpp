// Analysis-layer tests: AS rank CDFs, set counters with "Other"
// folding, the Table-5 TLS comparison semantics, source overlap and the
// table renderer.
#include <gtest/gtest.h>

#include "analysis/stats.h"
#include "analysis/table.h"

namespace {

using namespace analysis;
using netsim::IpAddress;

TEST(AsDistribution, RankingAndCdf) {
  auto registry = internet::AsRegistry::standard(4);
  AsDistribution dist(registry);
  // 6 Cloudflare addresses, 3 Google, 1 tail.
  for (uint64_t i = 0; i < 6; ++i)
    dist.add(registry.allocate(internet::kAsCloudflare,
                               netsim::Family::kIpv4, i));
  for (uint64_t i = 0; i < 3; ++i)
    dist.add(registry.allocate(internet::kAsGoogle, netsim::Family::kIpv4, i));
  dist.add(registry.allocate(registry.tail_asn(0), netsim::Family::kIpv4, 0));

  EXPECT_EQ(dist.total(), 10u);
  EXPECT_EQ(dist.distinct_as(), 3u);
  auto ranked = dist.ranked();
  EXPECT_EQ(ranked[0].name, "Cloudflare, Inc.");
  EXPECT_EQ(ranked[0].count, 6u);
  EXPECT_DOUBLE_EQ(dist.top_share(1), 0.6);
  EXPECT_DOUBLE_EQ(dist.top_share(2), 0.9);
  EXPECT_EQ(dist.ases_to_cover(0.8), 2u);
  EXPECT_EQ(dist.ases_to_cover(0.95), 3u);
  auto cdf = dist.rank_cdf();
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf.back(), 1.0);
}

TEST(SetCounter, RankedWithOtherFoldsRareKeys) {
  SetCounter counter;
  counter.add("big", 97);
  counter.add("rare-a", 2);
  counter.add("rare-b", 1);
  auto entries = counter.ranked_with_other(0.05);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].key, "big");
  EXPECT_EQ(entries[1].key, "Other");
  EXPECT_EQ(entries[1].count, 3u);
  EXPECT_EQ(counter.distinct(), 3u);
  EXPECT_EQ(counter.count("rare-a"), 2u);
}

TEST(SetCounter, NoOtherBucketWhenAllAboveThreshold) {
  SetCounter counter;
  counter.add("a", 50);
  counter.add("b", 50);
  auto entries = counter.ranked_with_other(0.01);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_NE(entries[0].key, "Other");
  EXPECT_NE(entries[1].key, "Other");
}

tls::TlsDetails details(uint16_t version, const char* cert_cn,
                        uint64_t serial,
                        std::vector<uint16_t> extensions) {
  tls::TlsDetails d;
  d.negotiated_version = version;
  d.cipher_suite = tls::CipherSuite::kAes128GcmSha256;
  d.key_exchange_group = 0x1d;
  tls::Certificate cert;
  cert.subject_cn = cert_cn;
  cert.issuer_cn = "CA";
  cert.serial = serial;
  d.certificate_chain.push_back(cert);
  d.server_extensions = std::move(extensions);
  return d;
}

TEST(TlsComparison, AgreementAndVersionConditioning) {
  TlsComparison comparison;
  // Pair 1: identical TLS 1.3 deployments.
  comparison.add(details(0x0304, "a.example", 1, {16, 43, 51}),
                 details(0x0304, "a.example", 1, {16, 43, 51}));
  // Pair 2: TCP side is TLS 1.2 -- version differs, and the pair is
  // excluded from the group/cipher/extension denominators.
  comparison.add(details(0x0304, "b.example", 2, {16, 43, 51}),
                 details(0x0303, "b.example", 2, {16}));
  // Pair 3: different certificate (rotation), same everything else.
  comparison.add(details(0x0304, "c.example", 3, {16, 43, 51}),
                 details(0x0304, "c.example", 99, {16, 43, 51}));
  EXPECT_EQ(comparison.pairs(), 3u);
  EXPECT_NEAR(comparison.same_certificate(), 100.0 * 2 / 3, 0.01);
  EXPECT_NEAR(comparison.same_version(), 100.0 * 2 / 3, 0.01);
  EXPECT_DOUBLE_EQ(comparison.same_cipher(), 100.0);      // of 2 TLS1.3 pairs
  EXPECT_DOUBLE_EQ(comparison.same_extensions(), 100.0);
}

TEST(TlsComparison, TransportParameterExtensionExcluded) {
  // The QUIC side necessarily carries the TP extension (0x39/0xffa5);
  // the comparison must ignore it (paper's methodology).
  auto quic_details = details(0x0304, "a", 1, {16, 43, 51, 0x39});
  auto tcp_details = details(0x0304, "a", 1, {16, 43, 51});
  TlsComparison comparison;
  comparison.add(quic_details, tcp_details);
  EXPECT_DOUBLE_EQ(comparison.same_extensions(), 100.0);
  auto comparable = comparable_extensions(quic_details);
  EXPECT_EQ(comparable, (std::vector<uint16_t>{16, 43, 51}));
  auto draft = details(0x0304, "a", 1, {16, 0xffa5});
  EXPECT_EQ(comparable_extensions(draft), (std::vector<uint16_t>{16}));
}

TEST(SourceOverlap, CommonAndUniqueCounts) {
  auto a1 = *IpAddress::parse("1.0.0.1");
  auto a2 = *IpAddress::parse("1.0.0.2");
  auto a3 = *IpAddress::parse("1.0.0.3");
  auto a4 = *IpAddress::parse("1.0.0.4");
  std::map<std::string, std::set<IpAddress>> sources{
      {"zmap", {a1, a2, a3}},
      {"alt", {a1, a4}},
      {"https", {a1, a2}},
  };
  auto overlap = compute_overlap(sources);
  EXPECT_EQ(overlap.common_all, 1u);
  EXPECT_EQ(overlap.unique["zmap"], 1u);   // a3
  EXPECT_EQ(overlap.unique["alt"], 1u);    // a4
  EXPECT_EQ(overlap.unique["https"], 0u);
}

TEST(Table, RendersAlignedColumns) {
  Table table({"Name", "Count"});
  table.row({"cloudflare", "123"});
  table.row({"g", "4"});
  auto text = table.render();
  EXPECT_NE(text.find("Name"), std::string::npos);
  EXPECT_NE(text.find("cloudflare  123"), std::string::npos);
  // Separator line present.
  EXPECT_NE(text.find("-----"), std::string::npos);
}

TEST(Table, ShortRowsPadded) {
  Table table({"A", "B", "C"});
  table.row({"x"});
  EXPECT_NO_THROW(table.render());
}

TEST(Format, PctAndNum) {
  EXPECT_EQ(pct(12.345, 2), "12.35 %");
  EXPECT_EQ(pct(7.0, 1), "7.0 %");
  EXPECT_EQ(num(0), "0");
  EXPECT_EQ(num(999), "999");
  EXPECT_EQ(num(2134964), "2 134 964");
}

}  // namespace
