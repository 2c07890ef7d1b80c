// Autonomous-system registry for the synthetic Internet: the paper's
// Table 7 ASes with plausible address space, plus a synthetic tail of
// small ASes hosting edge POPs and individual deployments. Provides the
// longest-prefix-match address->AS attribution every per-AS analysis
// (Tables 1/2/6, Figures 4/8) relies on.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "netsim/address.h"

namespace internet {

// Paper Table 7 AS numbers.
inline constexpr uint32_t kAsCloudflare = 13335;
inline constexpr uint32_t kAsGoogle = 15169;
inline constexpr uint32_t kAsGoogleCloud = 396982;
inline constexpr uint32_t kAsAkamai = 20940;
inline constexpr uint32_t kAsFastly = 54113;
inline constexpr uint32_t kAsCloudflareLondon = 209242;
inline constexpr uint32_t kAsDigitalOcean = 14061;
inline constexpr uint32_t kAsOvh = 16276;
inline constexpr uint32_t kAsAmazon = 16509;
inline constexpr uint32_t kAsGtsTelecom = 5606;
inline constexpr uint32_t kAsA2Hosting = 55293;
inline constexpr uint32_t kAsHostinger = 47583;
inline constexpr uint32_t kAsIonos = 8560;
inline constexpr uint32_t kAsSynergy = 45638;
inline constexpr uint32_t kAsJio = 55836;
inline constexpr uint32_t kAsPrivateSystems = 63410;
inline constexpr uint32_t kAsLinode = 63949;
inline constexpr uint32_t kAsEuroByte = 210079;
inline constexpr uint32_t kAsFacebook = 32934;
/// Synthetic tail ASes are numbered kTailAsBase + i.
inline constexpr uint32_t kTailAsBase = 64512;

struct AsInfo {
  uint32_t asn = 0;
  std::string name;
  std::vector<netsim::Prefix> prefixes_v4;
  std::vector<netsim::Prefix> prefixes_v6;
};

class AsRegistry {
 public:
  /// Builds the registry: Table 7 ASes + `tail_count` synthetic ASes.
  static AsRegistry standard(int tail_count);

  /// Registers an AS and routes its prefixes. A prefix already routed
  /// (same network and length) keeps the AS it was first routed to.
  void add(AsInfo info);

  const AsInfo* find(uint32_t asn) const;
  std::string name(uint32_t asn) const;

  /// Longest-prefix-match attribution; 0 when unrouted. One lookup per
  /// prefix length routed in the address's family, longest first.
  uint32_t asn_for(const netsim::IpAddress& addr) const;

  /// Deterministic address allocation: the `index`-th host address of
  /// an AS in the given family. Throws if the AS has no such prefix.
  netsim::IpAddress allocate(uint32_t asn, netsim::Family family,
                             uint64_t index) const;

  uint32_t tail_asn(int i) const { return kTailAsBase + static_cast<uint32_t>(i); }
  int tail_count() const { return tail_count_; }
  size_t size() const { return infos_.size(); }
  /// Every registered AS, by number.
  const std::map<uint32_t, AsInfo>& ases() const { return infos_; }

 private:
  /// An address as two 64-bit words (IPv4 in the low word), which a
  /// prefix length masks in one AND each.
  struct Key {
    uint64_t hi = 0;
    uint64_t lo = 0;
    auto operator<=>(const Key&) const = default;
  };
  /// The routes of one prefix length, sorted by masked network.
  struct Level {
    int length = 0;
    Key mask;
    std::vector<std::pair<Key, uint32_t>> routes;
  };
  static Key key_of(const netsim::IpAddress& addr);
  void route(const netsim::Prefix& prefix, uint32_t asn);

  std::map<uint32_t, AsInfo> infos_;
  // Per family (IPv4, IPv6), one Level per routed prefix length, longest
  // first: the first level holding an address's masked network is its
  // longest match.
  std::array<std::vector<Level>, 2> levels_;
  int tail_count_ = 0;
};

}  // namespace internet
