// Synthetic-internet model tests: AS registry attribution, the TP
// catalog invariants the paper states, population structure and weekly
// evolution rules, and the lazy world that builds a server host on
// first contact.
#include <gtest/gtest.h>

#include <random>
#include <set>

#include "internet/internet.h"
#include "netsim/impairment.h"
#include "scanner/qscanner.h"
#include "scanner/zmap.h"

namespace {

using namespace internet;

TEST(AsRegistry, Table7AsesPresent) {
  auto reg = AsRegistry::standard(10);
  EXPECT_EQ(reg.name(kAsCloudflare), "Cloudflare, Inc.");
  EXPECT_EQ(reg.name(kAsGoogle), "Google LLC");
  EXPECT_EQ(reg.name(kAsFastly), "Fastly");
  EXPECT_EQ(reg.name(kAsHostinger), "Hostinger International Limited");
  EXPECT_EQ(reg.name(999999), "AS999999");
}

TEST(AsRegistry, LongestPrefixAttribution) {
  auto reg = AsRegistry::standard(10);
  auto addr = reg.allocate(kAsCloudflare, netsim::Family::kIpv4, 0);
  EXPECT_EQ(reg.asn_for(addr), kAsCloudflare);
  auto addr6 = reg.allocate(kAsGoogle, netsim::Family::kIpv6, 5);
  EXPECT_EQ(reg.asn_for(addr6), kAsGoogle);
  EXPECT_EQ(reg.asn_for(netsim::IpAddress::v4(0x08080808)), 0u);
}

// The first (last = false) or last address of a prefix.
netsim::IpAddress prefix_edge(const netsim::Prefix& prefix, bool last) {
  const int length = prefix.length();
  if (prefix.family() == netsim::Family::kIpv4) {
    const uint32_t mask = length == 0 ? 0 : ~0u << (32 - length);
    const uint32_t v = prefix.base().v4_value();
    return netsim::IpAddress::v4(last ? v | ~mask : v & mask);
  }
  auto top = [](int n) -> uint64_t {
    return n <= 0 ? 0 : n >= 64 ? ~0ull : ~(~0ull >> n);
  };
  const uint64_t hi = prefix.base().v6_hi(), lo = prefix.base().v6_lo();
  const uint64_t mhi = top(length), mlo = top(length - 64);
  return last ? netsim::IpAddress::v6(hi | ~mhi, lo | ~mlo)
              : netsim::IpAddress::v6(hi & mhi, lo & mlo);
}

// The per-length route tables against the linear scan they replaced:
// the longest routed prefix that contains the address, or 0. Probed at
// every route's first and last address, just outside each end, a random
// address inside each route, and random v4 and v6 addresses.
TEST(AsRegistry, LongestPrefixMatchAgreesWithLinearScan) {
  const AsRegistry& reg = campaign_as_registry();
  std::vector<std::pair<netsim::Prefix, uint32_t>> routes;
  for (const auto& [asn, info] : reg.ases()) {
    for (const auto& prefix : info.prefixes_v4)
      routes.emplace_back(prefix, asn);
    for (const auto& prefix : info.prefixes_v6)
      routes.emplace_back(prefix, asn);
  }
  ASSERT_GT(routes.size(), 500u);
  auto linear = [&](const netsim::IpAddress& addr) {
    int best = -1;
    uint32_t asn = 0;
    for (const auto& [prefix, owner] : routes) {
      if (prefix.length() > best && prefix.contains(addr)) {
        best = prefix.length();
        asn = owner;
      }
    }
    return asn;
  };
  std::mt19937_64 rng(0x1f0c);
  std::vector<netsim::IpAddress> probes;
  for (const auto& [prefix, asn] : routes) {
    const auto first = prefix_edge(prefix, false);
    const auto last = prefix_edge(prefix, true);
    probes.push_back(first);
    probes.push_back(last);
    if (first.is_v4()) {
      probes.push_back(netsim::IpAddress::v4(first.v4_value() - 1));
      probes.push_back(netsim::IpAddress::v4(last.v4_value() + 1));
      const uint64_t width = uint64_t{last.v4_value()} - first.v4_value() + 1;
      probes.push_back(netsim::IpAddress::v4(
          first.v4_value() + static_cast<uint32_t>(rng() % width)));
    } else {
      probes.push_back(netsim::IpAddress::v6(first.v6_hi() - 1, first.v6_lo()));
      probes.push_back(netsim::IpAddress::v6(last.v6_hi() + 1, last.v6_lo()));
      probes.push_back(netsim::IpAddress::v6(
          first.v6_hi() | (rng() & (last.v6_hi() ^ first.v6_hi())), rng()));
    }
  }
  for (int i = 0; i < 4000; ++i) {
    probes.push_back(netsim::IpAddress::v4(static_cast<uint32_t>(rng())));
    const uint64_t hi = rng();
    probes.push_back(netsim::IpAddress::v6(hi, rng()));
  }
  size_t routed = 0;
  for (const auto& addr : probes) {
    const uint32_t want = linear(addr);
    routed += want != 0;
    EXPECT_EQ(reg.asn_for(addr), want) << addr.to_string();
  }
  EXPECT_GT(routed, routes.size() * 3);
}

// Overlapping routes: the longest prefix wins whatever the order the
// ASes were added in, and a prefix routed twice keeps its first AS.
TEST(AsRegistry, NestedPrefixesAttributeToTheLongest) {
  auto p = [](const char* text) { return *netsim::Prefix::parse(text); };
  for (bool wide_first : {true, false}) {
    AsRegistry reg;
    const AsInfo wide{1, "wide", {p("10.0.0.0/8")}, {p("2001:db8::/32")}};
    const AsInfo narrow{2, "narrow", {p("10.1.0.0/16"), p("10.1.2.0/24")},
                        {p("2001:db8:1::/48")}};
    if (wide_first) {
      reg.add(wide);
      reg.add(narrow);
    } else {
      reg.add(narrow);
      reg.add(wide);
    }
    reg.add({3, "duplicate", {p("10.1.0.0/16")}, {}});
    auto asn = [&](const char* text) {
      return reg.asn_for(*netsim::IpAddress::parse(text));
    };
    EXPECT_EQ(asn("10.0.0.1"), 1u);
    EXPECT_EQ(asn("10.1.0.1"), 2u);
    EXPECT_EQ(asn("10.1.2.3"), 2u);
    EXPECT_EQ(asn("10.2.0.1"), 1u);
    EXPECT_EQ(asn("11.0.0.1"), 0u);
    EXPECT_EQ(asn("2001:db8:1::5"), 2u);
    EXPECT_EQ(asn("2001:db8:2::5"), 1u);
    EXPECT_EQ(asn("2001:db9::1"), 0u);
    EXPECT_EQ(asn("::a01:1"), 0u);  // IPv4's bits as IPv6: another family
  }
}

TEST(AsRegistry, AllocationsAreDistinctAndStable) {
  auto reg = AsRegistry::standard(10);
  std::set<netsim::IpAddress> seen;
  for (uint64_t i = 0; i < 100; ++i) {
    auto addr = reg.allocate(kAsCloudflare, netsim::Family::kIpv4, i);
    EXPECT_TRUE(seen.insert(addr).second) << i;
    EXPECT_EQ(addr, reg.allocate(kAsCloudflare, netsim::Family::kIpv4, i));
  }
}

TEST(TpCatalog, ExactlyFortyFiveDistinctConfigs) {
  const auto& catalog = tp_catalog();
  ASSERT_EQ(catalog.size(), 45u);
  std::set<std::string> keys;
  for (const auto& entry : catalog)
    EXPECT_TRUE(keys.insert(entry.params.config_key()).second)
        << "duplicate config " << entry.id;
}

TEST(TpCatalog, PaperStatedConstraints) {
  const auto& catalog = tp_catalog();
  // Cloudflare: 1 MiB stream data, 10x initial max data.
  const auto& cf = catalog[kTpConfigCloudflare].params;
  EXPECT_EQ(cf.initial_max_stream_data_bidi_local, 1048576u);
  EXPECT_EQ(cf.initial_max_data, 10485760u);
  // Facebook AS vs POP configs differ only in udp payload / stream data.
  EXPECT_EQ(catalog[kTpConfigMvfstAs1500].params.max_udp_payload_size, 1500u);
  EXPECT_EQ(catalog[kTpConfigMvfstAs1404].params.max_udp_payload_size, 1404u);
  EXPECT_EQ(catalog[kTpConfigMvfstPop1500]
                .params.initial_max_stream_data_bidi_local,
            67584u);
  // 12 configs at the 65527 default, 12 at 1500, 10 distinct values.
  int defaults = 0, at_1500 = 0;
  std::set<uint64_t> distinct;
  for (const auto& entry : catalog) {
    uint64_t effective = entry.params.effective_max_udp_payload_size();
    distinct.insert(effective);
    if (effective == 65527) ++defaults;
    if (effective == 1500) ++at_1500;
  }
  EXPECT_EQ(defaults, 12);
  EXPECT_EQ(at_1500, 12);
  EXPECT_EQ(distinct.size(), 10u);
  // Ranges: data 8 KiB .. 16 MiB, stream data 32 KiB .. 10 MiB.
  uint64_t min_data = UINT64_MAX, max_data = 0, min_stream = UINT64_MAX,
           max_stream = 0;
  for (const auto& entry : catalog) {
    if (entry.params.initial_max_data) {
      min_data = std::min(min_data, *entry.params.initial_max_data);
      max_data = std::max(max_data, *entry.params.initial_max_data);
    }
    if (entry.params.initial_max_stream_data_bidi_local) {
      min_stream =
          std::min(min_stream, *entry.params.initial_max_stream_data_bidi_local);
      max_stream =
          std::max(max_stream, *entry.params.initial_max_stream_data_bidi_local);
    }
  }
  EXPECT_EQ(min_data, 8192u);
  EXPECT_EQ(max_data, 16777216u);
  EXPECT_EQ(min_stream, 32768u);
  EXPECT_EQ(max_stream, 10485760u);
}

TEST(TpCatalog, RoundTripThroughWireFormatPreservesConfigId) {
  for (const auto& entry : tp_catalog()) {
    auto decoded = quic::decode_transport_parameters(
        quic::encode_transport_parameters(entry.params));
    EXPECT_EQ(tp_config_id_for(decoded), entry.id);
  }
}

class PopulationTest : public ::testing::Test {
 protected:
  static const Population& week18() {
    static Population population({.dns_corpus_scale = 0.01}, 18);
    return population;
  }
};

TEST_F(PopulationTest, AddressesUniqueAndAttributable) {
  std::set<netsim::IpAddress> seen;
  for (const auto& host : week18().hosts()) {
    EXPECT_TRUE(seen.insert(host.address).second)
        << host.address.to_string();
    EXPECT_EQ(week18().as_registry().asn_for(host.address), host.asn)
        << host.address.to_string();
  }
}

TEST_F(PopulationTest, GroupBehaviorsMatchDesign) {
  size_t cf = 0, mismatch = 0, stall = 0, vn_silent_v6 = 0;
  for (const auto& host : week18().hosts()) {
    if (host.group == "cloudflare") {
      ++cf;
      // Week 18: v1 deployed (Figure 5's flip).
      EXPECT_TRUE(std::find(host.handshake_versions.begin(),
                            host.handshake_versions.end(),
                            quic::kVersion1) != host.handshake_versions.end());
    }
    if (host.group == "google-mismatch") {
      ++mismatch;
      // Advertises draft-29 but cannot handshake it.
      EXPECT_TRUE(std::find(host.advertised_versions.begin(),
                            host.advertised_versions.end(),
                            quic::kDraft29) != host.advertised_versions.end());
      EXPECT_TRUE(std::find(host.handshake_versions.begin(),
                            host.handshake_versions.end(),
                            quic::kDraft29) == host.handshake_versions.end());
    }
    if (host.group == "akamai") {
      ++stall;
      EXPECT_TRUE(host.stall_handshake);
    }
    if (host.group == "hostinger" && host.address.is_v6()) {
      ++vn_silent_v6;
      EXPECT_FALSE(host.respond_to_vn);
    }
  }
  EXPECT_GT(cf, 0u);
  EXPECT_GT(mismatch, 0u);
  EXPECT_GT(stall, 0u);
  EXPECT_GT(vn_silent_v6, 100u);  // the Alt-Svc-only v6 fleet
}

TEST_F(PopulationTest, DomainsPointAtTheirHosts) {
  const auto& pop = week18();
  size_t stale_records = 0, registered = 0;
  for (const auto& domain : pop.domains()) {
    ASSERT_FALSE(domain.v4_hosts.empty() && domain.v6_hosts.empty())
        << domain.name;
    // The primary record always serves the domain; later records may be
    // stale (intentionally unregistered -- the paper's SNI failures).
    if (!domain.v4_hosts.empty()) {
      uint32_t first = domain.v4_hosts[0];
      ASSERT_LT(first, pop.hosts().size());
      EXPECT_TRUE(pop.serves(first, domain)) << domain.name;
    }
    for (uint32_t h : domain.v4_hosts) {
      ASSERT_LT(h, pop.hosts().size());
      EXPECT_TRUE(pop.hosts()[h].address.is_v4());
      if (pop.serves(h, domain))
        ++registered;
      else
        ++stale_records;
    }
    for (uint32_t h : domain.v6_hosts)
      EXPECT_TRUE(pop.hosts()[h].address.is_v6());
  }
  // Stale records exist but stay a small minority.
  EXPECT_GT(stale_records, 0u);
  EXPECT_LT(stale_records, registered / 5);
}

TEST_F(PopulationTest, AllTpConfigsRepresented) {
  std::set<int> used;
  for (const auto& host : week18().hosts())
    if (host.quic_enabled()) used.insert(host.tp_config);
  // Figure 9 needs all 45 configurations observable.
  EXPECT_EQ(used.size(), 45u);
}

TEST(PopulationEvolution, GrowsAcrossWeeks) {
  Population early({.dns_corpus_scale = 0.01}, 5);
  Population late({.dns_corpus_scale = 0.01}, 18);
  EXPECT_LT(early.hosts().size(), late.hosts().size());
  EXPECT_LT(early.domains().size(), late.domains().size());
}

TEST(PopulationEvolution, CloudflareVersionFlipAtWeek16) {
  Population before({.dns_corpus_scale = 0.01}, 15);
  for (const auto& host : before.hosts()) {
    if (host.group != "cloudflare") continue;
    EXPECT_TRUE(std::find(host.handshake_versions.begin(),
                          host.handshake_versions.end(),
                          quic::kVersion1) == host.handshake_versions.end());
  }
}

TEST(PopulationEvolution, HttpsRrAdoptionGrows) {
  auto count_https = [](const Population& pop) {
    size_t n = 0;
    for (const auto& d : pop.domains())
      if (d.https_rr_since_week > 0 && d.https_rr_since_week <= pop.week())
        ++n;
    return n;
  };
  Population w10({.dns_corpus_scale = 0.01}, 10);
  Population w14({.dns_corpus_scale = 0.01}, 14);
  Population w18({.dns_corpus_scale = 0.01}, 18);
  size_t c10 = count_https(w10), c14 = count_https(w14),
         c18 = count_https(w18);
  EXPECT_LT(c10, c14);
  EXPECT_LT(c14, c18);
}

TEST(PopulationEvolution, AddressesStableAcrossWeeks) {
  // A host that exists in week 10 keeps its address in week 18 --
  // longitudinal joins depend on this.
  Population w10({.dns_corpus_scale = 0.01}, 10);
  Population w18({.dns_corpus_scale = 0.01}, 18);
  size_t checked = 0;
  for (const auto& host : w10.hosts()) {
    const auto* later = w18.host_by_address(host.address);
    if (!later) continue;
    EXPECT_EQ(later->group, host.group);
    ++checked;
  }
  // The overwhelming majority must carry over.
  EXPECT_GT(checked, w10.hosts().size() * 9 / 10);
}

TEST(InternetFacade, ZonesServeHostsAndHttpsRrs) {
  netsim::EventLoop loop;
  Internet internet({.dns_corpus_scale = 0.01}, 18, loop);
  const auto& pop = internet.population();
  // Find a domain with an HTTPS RR and check the zone data matches.
  size_t checked = 0;
  dns::Resolver resolver(internet.zones());
  for (const auto& domain : pop.domains()) {
    if (domain.https_rr_since_week == 0 || domain.v4_hosts.empty()) continue;
    auto result = resolver.resolve(domain.name, dns::RRType::kHttps);
    auto svcb = result.svcb();
    ASSERT_EQ(svcb.size(), 1u) << domain.name;
    EXPECT_FALSE(svcb[0].alpn.empty());
    ASSERT_FALSE(svcb[0].ipv4_hints.empty());
    EXPECT_EQ(svcb[0].ipv4_hints[0],
              pop.hosts()[domain.v4_hosts[0]].address);
    if (++checked >= 25) break;
  }
  EXPECT_GT(checked, 0u);
}

TEST(InternetFacade, ListCorpusSizesMatchSpecs) {
  netsim::EventLoop loop;
  Internet internet({.dns_corpus_scale = 1.0}, 18, loop);
  EXPECT_EQ(internet.list_corpus("alexa").size(), 1000u);
  EXPECT_EQ(internet.list_corpus("majestic").size(), 1000u);
  EXPECT_EQ(internet.list_corpus("umbrella").size(), 1000u);
  EXPECT_EQ(internet.list_corpus("czds").size(), 31000u);
  // com/net/org additionally absorbs every stored domain the striding
  // skipped (zone files cover all registered names).
  EXPECT_GE(internet.list_corpus("comnetorg").size(), 180000u);
  EXPECT_LE(internet.list_corpus("comnetorg").size(), 260000u);
  EXPECT_THROW(internet.list_corpus("nosuch"), std::invalid_argument);
}

TEST(PopulationEvolution, EveryWeekBuildsConsistently) {
  size_t previous_hosts = 0;
  for (int week = 5; week <= 18; ++week) {
    Population population({.dns_corpus_scale = 0.005}, week);
    // Monotone growth week over week.
    EXPECT_GE(population.hosts().size(), previous_hosts) << "week " << week;
    previous_hosts = population.hosts().size();
    // Structural invariants hold at every snapshot.
    std::set<netsim::IpAddress> addresses;
    for (const auto& host : population.hosts()) {
      EXPECT_TRUE(addresses.insert(host.address).second)
          << "duplicate address in week " << week;
      EXPECT_GE(host.tp_config, 0);
      EXPECT_LT(host.tp_config, kTpConfigCount);
      if (host.quic_enabled() && !host.stall_handshake &&
          !host.handshake_versions.empty()) {
        // A deployment that can handshake must offer at least one ALPN.
        EXPECT_FALSE(host.quic_alpn.empty()) << host.group;
      }
    }
  }
}

TEST(PopulationEvolution, VersionSetsOnlyEverGainVersions) {
  // Per group, the advertised version set at week 18 is a superset of
  // week 5's (deployments upgraded; nobody removed support mid-window).
  Population early({.dns_corpus_scale = 0.005}, 5);
  Population late({.dns_corpus_scale = 0.005}, 18);
  std::map<std::string, std::set<quic::Version>> early_sets, late_sets;
  for (const auto& host : early.hosts())
    early_sets[host.group].insert(host.advertised_versions.begin(),
                                  host.advertised_versions.end());
  for (const auto& host : late.hosts())
    late_sets[host.group].insert(host.advertised_versions.begin(),
                                 host.advertised_versions.end());
  for (const auto& [group, versions] : early_sets) {
    for (quic::Version v : versions)
      EXPECT_TRUE(late_sets[group].contains(v))
          << group << " dropped " << quic::version_name(v);
  }
}

TEST(InternetFacade, ZmapCandidatesIncludeDudsButNoDuplicates) {
  netsim::EventLoop loop;
  Internet internet({.dns_corpus_scale = 0.005}, 18, loop);
  auto candidates = internet.zmap_candidates_v4();
  std::set<netsim::IpAddress> unique(candidates.begin(), candidates.end());
  EXPECT_EQ(unique.size(), candidates.size());
  size_t v4_hosts = 0;
  for (const auto& host : internet.population().hosts())
    if (host.address.is_v4()) ++v4_hosts;
  EXPECT_EQ(candidates.size(), v4_hosts * 3);  // host + 2 duds each
}

TEST(InternetFacade, HostLookupMatchesPopulation) {
  netsim::EventLoop loop;
  Internet internet({.dns_corpus_scale = 0.005}, 18, loop);
  size_t checked = 0;
  for (const auto& host : internet.population().hosts()) {
    const auto* server = internet.host_for(host.address);
    ASSERT_NE(server, nullptr);
    EXPECT_EQ(server->profile().id, host.id);
    if (++checked > 200) break;
  }
}

// --- Lazy world: a server host is built on first contact ----------------

constexpr PopulationParams kLazyParams{.dns_corpus_scale = 0.005};

// The first `count` v4 hosts that answer a ZMap probe and TCP/443.
std::vector<const HostProfile*> dual_stack_hosts(const Internet& internet,
                                                 size_t count) {
  std::vector<const HostProfile*> hosts;
  for (const auto& host : internet.population().hosts()) {
    if (hosts.size() == count) break;
    if (host.address.is_v4() && host.quic_enabled() && !host.udp_filtered &&
        host.respond_to_vn)
      hosts.push_back(&host);
  }
  return hosts;
}

const netsim::Endpoint kClient{netsim::IpAddress::v4(0xc0000201), 40000};

TEST(LazyWorld, FreshWorldBuildsNoHosts) {
  netsim::EventLoop loop;
  Internet internet(kLazyParams, 18, loop);
  EXPECT_EQ(internet.hosts_built(), 0u);
  // Scan inputs and overlays read the snapshot; none of them builds a
  // server.
  internet.zmap_candidates_v4();
  internet.ipv6_hitlist();
  internet.list_corpus("alexa");
  internet.apply_impairment(*netsim::find_impairment_profile("hostile"));
  internet.apply_adversary(*find_adversary_profile("malicious"));
  EXPECT_EQ(internet.hosts_built(), 0u);
}

TEST(LazyWorld, FirstContactBuildsExactlyThatHost) {
  enum class Contact { kZmapProbe, kTcpConnect, kTcpPortOpen };
  for (Contact contact :
       {Contact::kZmapProbe, Contact::kTcpConnect, Contact::kTcpPortOpen}) {
    SCOPED_TRACE(static_cast<int>(contact));
    netsim::EventLoop loop;
    Internet internet(kLazyParams, 18, loop);
    const auto hosts = dual_stack_hosts(internet, 1);
    ASSERT_EQ(hosts.size(), 1u);
    const HostProfile& target = *hosts[0];
    const netsim::Endpoint at{target.address, kQuicPort};
    for (int round = 0; round < 2; ++round) {
      switch (contact) {
        case Contact::kZmapProbe: {
          scanner::ZmapQuicScanner zmap(internet.network(), {});
          const std::vector<netsim::IpAddress> one{target.address};
          EXPECT_EQ(zmap.scan(one).size(), 1u);
          break;
        }
        case Contact::kTcpConnect:
          EXPECT_TRUE(internet.network().tcp_connect(kClient, at).has_value());
          break;
        case Contact::kTcpPortOpen:
          EXPECT_TRUE(internet.network().tcp_port_open(at));
          break;
      }
      // The second contact finds the host already built.
      EXPECT_EQ(internet.hosts_built(), 1u);
    }
    ServerHost* host = internet.host_for(target.address);
    ASSERT_NE(host, nullptr);
    EXPECT_EQ(host->profile().id, target.id);
    EXPECT_EQ(internet.hosts_built(), 1u);
  }
}

TEST(LazyWorld, DudsAndUnknownAddressesBuildNothing) {
  netsim::EventLoop loop;
  Internet internet(kLazyParams, 18, loop);
  std::vector<netsim::IpAddress> duds;
  for (const auto& addr : internet.zmap_candidates_v4())
    if (!internet.population().host_by_address(addr)) duds.push_back(addr);
  ASSERT_FALSE(duds.empty());
  duds.resize(std::min<size_t>(duds.size(), 64));

  scanner::ZmapQuicScanner zmap(internet.network(), {});
  EXPECT_TRUE(zmap.scan(duds).empty());
  for (const auto& addr : duds) {
    EXPECT_FALSE(internet.network().tcp_port_open({addr, kTlsPort}));
    EXPECT_FALSE(
        internet.network().tcp_connect(kClient, {addr, kTlsPort}).has_value());
    EXPECT_EQ(internet.host_for(addr), nullptr);
  }
  EXPECT_EQ(internet.hosts_built(), 0u);
}

TEST(LazyWorld, OverlaysBeforeOrAfterFirstContactAgree) {
  // One world applies hostile + malicious and then touches its hosts,
  // the other touches them first: every link and every host's
  // misbehavior plan must come out the same, which the handshakes
  // observe outcome by outcome.
  const auto& hostile = *netsim::find_impairment_profile("hostile");
  const auto& malicious = *find_adversary_profile("malicious");
  struct World {
    netsim::EventLoop loop;
    Internet internet{kLazyParams, 18, loop};
  };
  World before, after;
  before.internet.apply_impairment(hostile);
  before.internet.apply_adversary(malicious);

  std::vector<const HostProfile*> targets;
  for (const auto& host : before.internet.population().hosts()) {
    if (!host.address.is_v4() || !host.quic_enabled()) continue;
    targets.push_back(&host);
    if (targets.size() >= 40) break;
  }
  for (World* world : {&before, &after})
    for (const auto* host : targets)
      world->internet.network().tcp_port_open({host->address, kTlsPort});
  after.internet.apply_impairment(hostile);
  after.internet.apply_adversary(malicious);
  EXPECT_EQ(before.internet.hosts_built(), targets.size());
  EXPECT_EQ(after.internet.hosts_built(), targets.size());

  for (const auto* host : targets) {
    EXPECT_EQ(before.internet.network().link(host->address),
              after.internet.network().link(host->address));
    EXPECT_TRUE(
        after.internet.network().link(host->address).impairment.active());
  }

  size_t protocol_errors = 0;
  auto handshake_rows = [&](World& world) {
    scanner::QscanOptions options;
    options.seed = 0x1a2b;
    scanner::QScanner qscanner(world.internet.network(), options);
    std::vector<std::string> rows;
    for (const auto* host : targets) {
      auto result = qscanner.scan_one(
          {host->address, std::nullopt, host->advertised_versions});
      if (result.report.protocol_error != quic::ProtocolError::kNone)
        ++protocol_errors;
      rows.push_back(scanner::to_string(result.outcome) + "," +
                     quic::to_string(result.report.protocol_error));
    }
    return rows;
  };
  EXPECT_EQ(handshake_rows(before), handshake_rows(after));
  // The malicious plans fired, so the rows can tell plans apart.
  EXPECT_GT(protocol_errors, 0u);
}

TEST(LazyWorld, BuildOrderLeavesWireBytesUnchanged) {
  // Every datagram the fabric carries -- server connection IDs, key
  // shares and ciphertext included -- is the same whether the hosts
  // are built at first contact or up front in reverse order: a host's
  // stream forks from a parent that building never advances.
  auto wire_bytes = [](bool prebuild_reversed) {
    netsim::EventLoop loop;
    Internet internet(kLazyParams, 18, loop);
    internet.apply_adversary(*find_adversary_profile("sloppy"));
    std::vector<const HostProfile*> targets;
    for (const auto& host : internet.population().hosts()) {
      if (!host.address.is_v4() || !host.quic_enabled()) continue;
      targets.push_back(&host);
      if (targets.size() >= 24) break;
    }
    if (prebuild_reversed)
      for (auto it = targets.rbegin(); it != targets.rend(); ++it)
        internet.host_for((*it)->address);
    std::vector<uint8_t> bytes;
    internet.network().set_tap([&](const netsim::Endpoint&,
                                   const netsim::Endpoint&,
                                   std::span<const uint8_t> payload) {
      bytes.insert(bytes.end(), payload.begin(), payload.end());
    });
    scanner::QScanner qscanner(internet.network(), {});
    for (const auto* host : targets)
      qscanner.scan_one(
          {host->address, std::nullopt, host->advertised_versions});
    return bytes;
  };
  auto lazy = wire_bytes(false);
  EXPECT_FALSE(lazy.empty());
  EXPECT_EQ(lazy, wire_bytes(true));
}

TEST(LazyWorld, ExplicitRegistrationsLayerOnTop) {
  // Explicit state on a population address builds the host first and
  // then overrides it, as if every host had been built up front.
  struct Sink : netsim::UdpService {
    int received = 0;
    void on_datagram(const netsim::Endpoint&, std::span<const uint8_t>,
                     const Transmit&) override {
      ++received;
    }
  };
  netsim::EventLoop loop;
  Internet internet(kLazyParams, 18, loop);
  const auto targets = dual_stack_hosts(internet, 2);
  ASSERT_EQ(targets.size(), 2u);

  // A service replaces the host's UDP side and leaves its TCP side.
  const netsim::Endpoint first{targets[0]->address, kQuicPort};
  Sink sink;
  internet.network().add_udp_service(first, &sink);
  EXPECT_EQ(internet.hosts_built(), 1u);
  internet.network().send_datagram(kClient, first, {1, 2, 3});
  loop.run();
  EXPECT_EQ(sink.received, 1);
  EXPECT_TRUE(internet.network().tcp_port_open(first));

  // A link replaces the overlay the host was built with.
  internet.apply_impairment(*netsim::find_impairment_profile("hostile"));
  const netsim::LinkProperties plain{.latency_us = 1'000};
  internet.network().set_link(targets[1]->address, plain);
  EXPECT_EQ(internet.hosts_built(), 2u);
  EXPECT_TRUE(
      internet.network().tcp_port_open({targets[1]->address, kTlsPort}));
  EXPECT_EQ(internet.network().link(targets[1]->address), plain);
}

TEST(LazyWorld, EveryPopulationAddressNamesOneHost) {
  // Lazy routing builds the host host_by_address names. An eager build
  // of every host would have let a later duplicate take the address,
  // so the two agree only because addresses are unique.
  for (int week : {5, 18}) {
    SCOPED_TRACE(week);
    Population population(kLazyParams, week);
    for (const auto& host : population.hosts()) {
      const auto* indexed = population.host_by_address(host.address);
      ASSERT_NE(indexed, nullptr);
      EXPECT_EQ(indexed->id, host.id);
    }
  }
}

}  // namespace
