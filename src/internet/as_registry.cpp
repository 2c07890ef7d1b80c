#include "internet/as_registry.h"

#include <algorithm>
#include <stdexcept>

namespace internet {

namespace {

netsim::Prefix p4(const char* text) { return *netsim::Prefix::parse(text); }
netsim::Prefix p6(const char* text) { return *netsim::Prefix::parse(text); }

}  // namespace

AsRegistry AsRegistry::standard(int tail_count) {
  AsRegistry reg;
  reg.tail_count_ = tail_count;
  // Address space is synthetic but shaped like the real allocations:
  // large CDNs get wide prefixes, hosters medium, tail ASes a /24 + /48.
  reg.add({kAsCloudflare, "Cloudflare, Inc.",
           {p4("104.16.0.0/12"), p4("172.64.0.0/13")},
           {p6("2606:4700::/32")}});
  reg.add({kAsGoogle, "Google LLC",
           {p4("142.250.0.0/15"), p4("172.217.0.0/16"), p4("216.58.192.0/19")},
           {p6("2607:f8b0::/32")}});
  reg.add({kAsGoogleCloud, "Google Services (AS396982)",
           {p4("34.64.0.0/10")},
           {p6("2600:1900::/28")}});
  reg.add({kAsAkamai, "Akamai International B.V.",
           {p4("23.32.0.0/11"), p4("184.24.0.0/13")},
           {p6("2a02:26f0::/29")}});
  reg.add({kAsFastly, "Fastly",
           {p4("151.101.0.0/16"), p4("199.232.0.0/16")},
           {p6("2a04:4e40::/32")}});
  reg.add({kAsCloudflareLondon, "Cloudflare London, LLC",
           {p4("141.101.64.0/18")},
           {p6("2a06:98c0::/29")}});
  reg.add({kAsDigitalOcean, "DigitalOcean, LLC",
           {p4("164.90.0.0/16"), p4("167.99.0.0/16")},
           {p6("2604:a880::/32")}});
  reg.add({kAsOvh, "OVH SAS",
           {p4("51.68.0.0/14"), p4("145.239.0.0/16")},
           {p6("2001:41d0::/32")}});
  reg.add({kAsAmazon, "Amazon.com, Inc.",
           {p4("52.0.0.0/11"), p4("3.208.0.0/12")},
           {p6("2600:1f00::/24")}});
  reg.add({kAsGtsTelecom, "GTS Telecom SRL",
           {p4("89.34.0.0/16")},
           {p6("2a01:90::/32")}});
  reg.add({kAsA2Hosting, "A2 Hosting, Inc.",
           {p4("68.66.192.0/18")},
           {p6("2605:de00::/32")}});
  reg.add({kAsHostinger, "Hostinger International Limited",
           {p4("145.14.144.0/20")},
           {p6("2a02:4780::/32")}});
  reg.add({kAsIonos, "1&1 IONOS SE",
           {p4("82.165.0.0/16")},
           {p6("2001:8d8::/32")}});
  reg.add({kAsSynergy, "SYNERGY WHOLESALE PTY LTD",
           {p4("119.81.0.0/16")},
           {p6("2401:fc00::/32")}});
  reg.add({kAsJio, "Reliance Jio Infocomm Limited",
           {p4("49.36.0.0/14")},
           {p6("2409:4000::/22")}});
  reg.add({kAsPrivateSystems, "PrivateSystems Networks",
           {p4("198.55.96.0/19")},
           {p6("2602:ffc5::/36")}});
  reg.add({kAsLinode, "Linode, LLC",
           {p4("172.104.0.0/15")},
           {p6("2600:3c00::/27")}});
  reg.add({kAsEuroByte, "EuroByte LLC",
           {p4("95.167.32.0/19")},
           {p6("2a03:6f00::/32")}});
  reg.add({kAsFacebook, "Facebook, Inc.",
           {p4("157.240.0.0/16"), p4("31.13.24.0/21")},
           {p6("2a03:2880::/32")}});

  // Synthetic tail: eyeball ISPs, small hosters and universities that
  // host edge POPs or individual deployments. 10.x is avoided; the
  // 100.64/10 CGN block is carved into /24s purely for simulation use.
  for (int i = 0; i < tail_count; ++i) {
    uint32_t base4 = (100u << 24) | (64u << 16) | (static_cast<uint32_t>(i) << 8);
    AsInfo info;
    info.asn = kTailAsBase + static_cast<uint32_t>(i);
    info.name = "TailNet-" + std::to_string(i);
    info.prefixes_v4 = {netsim::Prefix(netsim::IpAddress::v4(base4), 24)};
    info.prefixes_v6 = {netsim::Prefix(
        netsim::IpAddress::v6(0x2a10000000000000ull |
                                  (static_cast<uint64_t>(i) << 16),
                              0),
        48)};
    reg.add(std::move(info));
  }
  return reg;
}

AsRegistry::Key AsRegistry::key_of(const netsim::IpAddress& addr) {
  if (addr.is_v4()) return {0, addr.v4_value()};
  return {addr.v6_hi(), addr.v6_lo()};
}

void AsRegistry::route(const netsim::Prefix& prefix, uint32_t asn) {
  auto& levels = levels_[prefix.family() == netsim::Family::kIpv4 ? 0 : 1];
  const int length = prefix.length();
  auto level = std::find_if(levels.begin(), levels.end(), [&](const Level& l) {
    return l.length <= length;
  });
  if (level == levels.end() || level->length != length) {
    // The top n bits of a word; the mask keeps the top `length` bits of
    // the address (of its low 32 bits for IPv4).
    auto top = [](int n) {
      return n <= 0 ? 0 : n >= 64 ? ~0ull : ~(~0ull >> n);
    };
    Level fresh;
    fresh.length = length;
    fresh.mask = prefix.family() == netsim::Family::kIpv4
                     ? Key{0, top(length) >> 32}
                     : Key{top(length), top(length - 64)};
    level = levels.insert(level, std::move(fresh));
  }
  const Key base = key_of(prefix.base());
  const Key network{base.hi & level->mask.hi, base.lo & level->mask.lo};
  auto& routes = level->routes;
  auto at = std::lower_bound(
      routes.begin(), routes.end(), network,
      [](const auto& entry, const Key& key) { return entry.first < key; });
  if (at == routes.end() || at->first != network)
    routes.insert(at, {network, asn});
}

void AsRegistry::add(AsInfo info) {
  for (const auto& prefix : info.prefixes_v4) route(prefix, info.asn);
  for (const auto& prefix : info.prefixes_v6) route(prefix, info.asn);
  infos_.emplace(info.asn, std::move(info));
}

const AsInfo* AsRegistry::find(uint32_t asn) const {
  auto it = infos_.find(asn);
  return it == infos_.end() ? nullptr : &it->second;
}

std::string AsRegistry::name(uint32_t asn) const {
  const auto* info = find(asn);
  return info ? info->name : "AS" + std::to_string(asn);
}

uint32_t AsRegistry::asn_for(const netsim::IpAddress& addr) const {
  const Key key = key_of(addr);
  for (const auto& level : levels_[addr.is_v4() ? 0 : 1]) {
    const Key network{key.hi & level.mask.hi, key.lo & level.mask.lo};
    auto at = std::lower_bound(
        level.routes.begin(), level.routes.end(), network,
        [](const auto& entry, const Key& k) { return entry.first < k; });
    if (at != level.routes.end() && at->first == network) return at->second;
  }
  return 0;
}

netsim::IpAddress AsRegistry::allocate(uint32_t asn, netsim::Family family,
                                       uint64_t index) const {
  const auto* info = find(asn);
  if (!info) throw std::invalid_argument("unknown AS " + std::to_string(asn));
  const auto& prefixes = family == netsim::Family::kIpv4 ? info->prefixes_v4
                                                         : info->prefixes_v6;
  if (prefixes.empty())
    throw std::invalid_argument("AS has no prefix in family");
  // Spread across the AS's prefixes round-robin, offset past the base
  // address (+1 so .0 is never used).
  size_t which = index % prefixes.size();
  uint64_t offset = index / prefixes.size() + 1;
  return prefixes[which].host_at(offset);
}

}  // namespace internet
