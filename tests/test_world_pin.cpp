// Output pin for a week's world: what its DNS zone serves and what its
// population says about domains and input lists, for weeks 5, 12 and 18
// at two corpus scales. The population ignores PopulationParams::seed,
// so the corpus scale is the second axis. Each case hashes, with
// SHA-256:
//   - zone: the wire response of zones().serve() to A, AAAA, HTTPS,
//     CNAME and TXT queries for every domain (every other query spells
//     the name in upper case with a trailing dot), then the same for the
//     first 500 filler names of each list, one unknown name, and one
//     query with no question and one with two;
//   - domains: every DomainInfo -- name, lists, the addresses of its v4
//     and v6 hosts in order, which of those entries serve the domain,
//     https_rr_since_week and https_rr_eventually;
//   - lists: every ListCorpus;
//   - hosts: every HostProfile field of every host, in id order;
//   - corpus: the full Internet::list_corpus output of every list, the
//     names the DNS scanners are handed.
// The digests are constants, like test_trace_pin's: a change that
// moves any record, any response byte, any hosting or any list member
// of these weeks fails here. A digest is meant to change only with a
// deliberate change of the synthetic world; record the new value in the
// same change and say why.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "crypto/sha256.h"
#include "dns/wire.h"
#include "internet/internet.h"

namespace {

class Digest {
 public:
  void add(std::span<const uint8_t> bytes) {
    // Length-prefixed, so no two different inputs share a stream.
    const std::string length = std::to_string(bytes.size()) + ':';
    sha_.update({reinterpret_cast<const uint8_t*>(length.data()),
                 length.size()});
    sha_.update(bytes);
  }
  void add(const std::string& text) {
    add({reinterpret_cast<const uint8_t*>(text.data()), text.size()});
  }
  void add(uint64_t value) { add(std::to_string(value)); }
  std::string hex() {
    static const char kHex[] = "0123456789abcdef";
    std::string out;
    for (uint8_t b : sha_.final()) {
      out += kHex[b >> 4];
      out += kHex[b & 0xf];
    }
    return out;
  }

 private:
  crypto::Sha256 sha_;
};

/// `name` in upper case with a trailing dot: the same DNS name.
std::string respelled(const std::string& name) {
  std::string out = name;
  for (char& c : out)
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
  return out + '.';
}

std::string zone_digest(const internet::Snapshot& snapshot) {
  const auto& pop = snapshot.population();
  Digest digest;
  uint16_t id = 0;
  auto serve = [&](const dns::Message& query) {
    digest.add(snapshot.zones().serve(dns::encode_message(query)));
  };
  auto query_all_types = [&](const std::string& name) {
    for (dns::RRType type : {dns::RRType::kA, dns::RRType::kAaaa,
                             dns::RRType::kHttps, dns::RRType::kCname,
                             dns::RRType::kTxt}) {
      dns::Message query;
      query.id = ++id;
      query.questions.push_back({id % 2 ? name : respelled(name), type});
      serve(query);
    }
  };
  for (const auto& domain : pop.domains()) query_all_types(domain.name);
  for (const auto& list : pop.lists())
    for (size_t i = 0; i < std::min<size_t>(list.synthetic_count, 500); ++i)
      query_all_types(internet::Population::synthetic_domain(list.name, i));
  query_all_types("unknown.example");
  dns::Message none;
  none.id = ++id;
  serve(none);
  dns::Message two;
  two.id = ++id;
  two.questions.push_back({pop.domains()[0].name, dns::RRType::kA});
  two.questions.push_back({pop.domains()[1].name, dns::RRType::kHttps});
  serve(two);
  return digest.hex();
}

std::string domains_digest(const internet::Population& pop) {
  Digest digest;
  for (const auto& domain : pop.domains()) {
    digest.add(domain.name);
    digest.add(domain.lists);
    for (const auto* hosts : {&domain.v4_hosts, &domain.v6_hosts}) {
      digest.add(hosts->size());
      for (uint32_t h : *hosts) {
        digest.add(pop.hosts()[h].address.to_string());
        digest.add(pop.serves(h, domain));
      }
    }
    digest.add(static_cast<uint64_t>(domain.https_rr_since_week));
    digest.add(domain.https_rr_eventually);
  }
  return digest.hex();
}

template <typename T>
void add_all(Digest& digest, const std::vector<T>& values) {
  digest.add(values.size());
  for (const auto& value : values) digest.add(value);
}

std::string hosts_digest(const internet::Population& pop) {
  Digest digest;
  for (const auto& host : pop.hosts()) {
    digest.add(host.id);
    digest.add(host.address.to_string());
    digest.add(host.asn);
    digest.add(host.group);
    digest.add(host.server_value);
    digest.add(static_cast<uint64_t>(host.tp_config));
    add_all(digest, host.handshake_versions);
    add_all(digest, host.advertised_versions);
    digest.add(host.respond_to_vn);
    digest.add(host.require_padding);
    digest.add(host.stall_handshake);
    digest.add(host.stall_without_sni);
    digest.add(host.require_retry);
    digest.add(static_cast<uint64_t>(host.sni_policy));
    digest.add(host.alert_message);
    add_all(digest, host.quic_alpn);
    digest.add(host.broken_transport);
    digest.add(host.default_domain);
    digest.add(static_cast<uint64_t>(host.tcp_no_sni_cert));
    digest.add(host.cert_rotates_weekly);
    digest.add(host.cert_skew);
    digest.add(host.tls_max_version);
    digest.add(host.tcp_echo_sni);
    digest.add(host.tcp_alpn_without_sni);
    digest.add(host.udp_filtered);
    add_all(digest, host.alt_svc_alpn);
  }
  return digest.hex();
}

std::string corpus_digest(const internet::Internet& net) {
  Digest digest;
  for (const auto& list : net.population().lists()) {
    digest.add(list.name);
    add_all(digest, net.list_corpus(list.name));
  }
  return digest.hex();
}

std::string lists_digest(const internet::Population& pop) {
  Digest digest;
  for (const auto& list : pop.lists()) {
    digest.add(list.name);
    digest.add(list.members.size());
    for (uint32_t id : list.members) digest.add(id);
    digest.add(list.synthetic_count);
  }
  return digest.hex();
}

struct Pin {
  int week;
  double scale;
  const char* zone;
  const char* domains;
  const char* lists;
  const char* hosts;
  const char* corpus;
};

void PrintTo(const Pin& pin, std::ostream* os) {
  *os << "week " << pin.week << " scale " << pin.scale;
}

// zone, domains and lists: recorded before DNS was served from the
// population. hosts and corpus: recorded before the week build and the
// list corpora stopped copying per entry.
constexpr Pin kPins[] = {
    {5, 0.01,
     "a5f09c3d87e8086fc7deaaa94e3f9679ff8b7dc50297d4ccd4c6c3d198c81ba6",
     "b532028c4a9c7d2a45cf72c9c55c411a3417f296de9150c5d524b73bbf6616e7",
     "c812a8c166b44d9574ec41eb392d3391bd9693296f0c51038eb3d098948b0441",
     "b62cbb5aa93f7c82d9fa57324b323487063b7a01ee24b2b564e11234958be5a4",
     "49f54eb33acfa2ce63d1cde97c8918af7f8d0cb6a8ed4dcd099c05d4999dde7e"},
    {5, 1.0,
     "b43753b2ca14ec3916104a11210e1ec5ea2345e59a5061d11651d41efcffe70d",
     "141829f9c1006053b2a77712b9de7c69e24c72b31b05ff086c58460fb4f474aa",
     "c2a1316d37144c2043a0c188f0dbea8ad1e3c8ff7d09aed3e2ad2834c0d78950",
     "b62cbb5aa93f7c82d9fa57324b323487063b7a01ee24b2b564e11234958be5a4",
     "a4d51866668e94a35e713ec06bd71d621b7beb0b980e22f12c3307d9fc8ec24a"},
    {12, 0.01,
     "0b1a85e6b4e88ff60205e2211a107f8bc6eed7fe2572c65a749ae1f07705cfa8",
     "674b614439bb082cd13250b2a88fd63f198eb86eab166a7d015c8d74fe8b3f67",
     "fc647bf858ba8140e055899ae56a472529d76db146c0bcbe9ae1c10297cd1448",
     "d88f400c9a5f08432629a3e768c7f16084987aee405d47805643b2275bc3649f",
     "62bb6d460ac90bdd24a6a3715c63d62514bbedb5b9061af30059e21537ba5a73"},
    {12, 1.0,
     "457b0531bd7dcd605600694bfb2f8350ed175ae41162fb66dfcdfb9a109b4dcf",
     "3e6668a9e2b6675e5bf74f417274ffdb1cac70b65ef12d6a16c567dc056d669c",
     "c2d43fff6cc5d1db30bbbb48c0fd127794179c1eb87d1d0f68b02169b164cc35",
     "d88f400c9a5f08432629a3e768c7f16084987aee405d47805643b2275bc3649f",
     "0c9b13f16276ffe552291339a1d10fa0aa6dafc53ee8f01398fdda3f23ffbee8"},
    {18, 0.01,
     "eaf8934538ae9d775894abdcb54997609d952a17a1cf597411b951c98f31909e",
     "25721c063a96c18dcb4f2ec6350cb7e3b75c2ed6da258acd1197c3bb6471464e",
     "9b22998d9250e8a21b4d9d87f43711e76947c0dfac76f01323bfac5986c2774c",
     "3619a4eb7d2721ada8a43b728c509da19433d1d3c4195338e4f21d4672f0b93c",
     "607d4109f093a7658eafa0c3ba209b540f9201d8e5d0fd00e93647e78b42c063"},
    {18, 1.0,
     "2f6e720b1b51e167bb2cffae1cdaff3211f006cbc56bb732307a0e9dd0d87911",
     "dd1ef72ac82808008de98f9db4a0bad832fda99d7f27dcec484b078dba66b9c2",
     "9e132cb90599fa313258985c9a869cce273fe899eb4f0906e0f7602f3adf1da4",
     "3619a4eb7d2721ada8a43b728c509da19433d1d3c4195338e4f21d4672f0b93c",
     "480a0991c5ee02a6756b19d2e1cad7625a4265318848af605053cb8691de010b"},
};

class WorldPin : public ::testing::TestWithParam<Pin> {};

TEST_P(WorldPin, ZoneDomainsAndListsMatchRecordedDigests) {
  const Pin& pin = GetParam();
  const internet::Snapshot snapshot({.dns_corpus_scale = pin.scale},
                                    pin.week);
  const auto& pop = snapshot.population();
  EXPECT_EQ(zone_digest(snapshot), pin.zone);
  EXPECT_EQ(domains_digest(pop), pin.domains);
  EXPECT_EQ(lists_digest(pop), pin.lists);
}

TEST_P(WorldPin, HostsAndListCorporaMatchRecordedDigests) {
  const Pin& pin = GetParam();
  netsim::EventLoop loop;
  const internet::Internet net({.dns_corpus_scale = pin.scale}, pin.week,
                               loop);
  EXPECT_EQ(hosts_digest(net.population()), pin.hosts);
  EXPECT_EQ(corpus_digest(net), pin.corpus);
}

// What serving DNS straight from the population relies on: every
// domain is one distinct normalized zone name that owns at least one
// record, and a domain's serving hosts come before its stale records.
TEST_P(WorldPin, DomainsAreDistinctZoneNamesWithServingHostsFirst) {
  const Pin& pin = GetParam();
  const internet::Population pop({.dns_corpus_scale = pin.scale}, pin.week);
  std::set<std::string> names;
  for (const auto& domain : pop.domains()) {
    EXPECT_TRUE(dns::is_normalized(domain.name)) << domain.name;
    EXPECT_TRUE(names.insert(domain.name).second) << domain.name;
    EXPECT_FALSE(domain.v4_hosts.empty() && domain.v6_hosts.empty())
        << domain.name;
    size_t serving = 0;
    for (const auto* hosts : {&domain.v4_hosts, &domain.v6_hosts}) {
      bool stale_seen = false;
      for (uint32_t h : *hosts) {
        if (pop.serves(h, domain)) {
          EXPECT_FALSE(stale_seen) << domain.name;
          ++serving;
        } else {
          stale_seen = true;
        }
      }
    }
    if (pin.week == 18) {
      EXPECT_GE(serving, 2u) << domain.name;
      EXPECT_LE(serving, 4u) << domain.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Weeks, WorldPin, ::testing::ValuesIn(kPins),
    [](const ::testing::TestParamInfo<Pin>& info) {
      return "Week" + std::to_string(info.param.week) +
             (info.param.scale < 1.0 ? "Scale1pct" : "Scale100pct");
    });

}  // namespace
