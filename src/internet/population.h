// The synthetic deployment population. Every table and figure in the
// paper is a statistic over (a) who deploys QUIC where, (b) how those
// deployments behave on the wire, and (c) how that changed over weeks
// 5-18 of 2021. This module encodes that ground truth as data:
// provider groups with host counts, wire behaviors (version sets, SNI
// policy, failure modes), transport-parameter configs, HTTP Server
// values, Alt-Svc/HTTPS-RR publication, domain hosting and weekly
// evolution rules. See DESIGN.md section 7 for the calibration and
// scaling rules (1:1000 for host/domain masses, compressed AS tail).
// The tables are the only store of who hosts what: the DNS zone
// (internet::Snapshot) and the servers' certificate choice both read a
// domain's own host lists.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "internet/as_registry.h"
#include "internet/tp_catalog.h"
#include "netsim/address.h"
#include "quic/version.h"

namespace internet {

/// How a deployment treats the TLS SNI on the QUIC path.
enum class SniPolicy {
  /// Serves a default certificate to any client (Google frontends,
  /// Facebook POPs): no-SNI handshakes succeed.
  kDefaultCert,
  /// Requires an SNI it hosts; otherwise alert 0x128 (Cloudflare,
  /// LiteSpeed virtual hosting).
  kKnownOnly,
  /// Fails every handshake with 0x128 (Cloudflare addresses answering
  /// version negotiation without an actual QUIC service behind them).
  kAlwaysFail,
};

/// What a no-SNI TLS-over-TCP handshake returns.
enum class TcpNoSniCert {
  kSameDefault,   // same default certificate as QUIC
  kSelfSigned,    // Google's "missing SNI" placeholder
};

struct HostProfile {
  uint32_t id = 0;
  netsim::IpAddress address;
  uint32_t asn = 0;
  std::string group;         // provider/profile tag, e.g. "cloudflare"
  std::string server_value;  // HTTP Server header ("" = no HTTP)
  int tp_config = kTpConfigCloudflare;

  // --- QUIC wire behavior ---
  std::vector<quic::Version> handshake_versions;
  std::vector<quic::Version> advertised_versions;
  bool respond_to_vn = true;
  bool require_padding = true;
  bool stall_handshake = false;
  bool stall_without_sni = false;
  /// Demand stateless address validation via Retry before handshaking.
  bool require_retry = false;
  SniPolicy sni_policy = SniPolicy::kKnownOnly;
  std::string alert_message = "handshake failure";
  std::vector<std::string> quic_alpn{"h3-29"};
  /// Responds to any frame with a transport-level PROTOCOL_VIOLATION
  /// (the paper's "Other" outcome class).
  bool broken_transport = false;

  // --- TLS / certificates ---
  std::string default_domain;  // subject of the no-SNI default cert
  TcpNoSniCert tcp_no_sni_cert = TcpNoSniCert::kSameDefault;
  bool cert_rotates_weekly = false;  // Google-style rotation
  /// TCP-path certificate lags one rotation behind (scan-delay skew).
  bool cert_skew = false;
  uint16_t tls_max_version = 0x0304;  // 0x0303: TLS 1.3 off, QUIC on
  bool tcp_echo_sni = true;
  /// Google's TCP error path for SNI-less connections skips ALPN.
  bool tcp_alpn_without_sni = true;

  // --- TCP/HTTP surface (TCP/443 is always open) ---
  /// UDP/443 dropped by a middlebox: Alt-Svc still advertises h3, but
  /// QUIC connection attempts time out (a classic enterprise-firewall
  /// pattern; contributes the paper's ALT-SVC-only addresses and the
  /// sub-100 %% per-source success in Table 4).
  bool udp_filtered = false;
  /// ALPN tokens advertised via Alt-Svc ("" = no Alt-Svc header).
  std::vector<std::string> alt_svc_alpn;

  bool quic_enabled() const { return !handshake_versions.empty() ||
                                     !advertised_versions.empty() ||
                                     stall_handshake; }
};

/// Input-list membership bits for domains (the paper's DNS sources).
enum DomainList : uint8_t {
  kListAlexa = 1,
  kListMajestic = 2,
  kListUmbrella = 4,
  kListCzds = 8,        // CZDS zones other than com/net/org
  kListComNetOrg = 16,  // com/net/org zone files
};

struct DomainInfo {
  uint32_t id = 0;
  std::string name;
  uint8_t lists = 0;
  /// How many leading v4_hosts / v6_hosts entries serve the domain. The
  /// entries after them are stale records: DNS still points at hosts
  /// that no longer serve it (see Population::serves).
  uint16_t v4_serving = 0;
  uint16_t v6_serving = 0;
  std::vector<uint32_t> v4_hosts;  // host ids the A records point to
  std::vector<uint32_t> v6_hosts;  // host ids the AAAA records point to
  /// First calendar week an HTTPS RR is published (0 = not yet as of
  /// this snapshot's week).
  int https_rr_since_week = 0;
  /// True if the domain publishes an HTTPS RR by week 18 (used for
  /// week-independent list membership, so Figure 3's rates grow as
  /// publication catches up with membership).
  bool https_rr_eventually = false;
};

/// Per-list scan corpus: the domains actually resolved every week.
/// `members` are ids of stored (QUIC-relevant) domains; `synthetic`
/// names resolve NXDOMAIN and model the non-QUIC bulk of each list.
struct ListCorpus {
  std::string name;
  std::vector<uint32_t> members;
  size_t synthetic_count = 0;
};

struct PopulationParams {
  /// The population itself draws nothing at random: the same week gives
  /// the same hosts, domains and lists at any seed. The seed keys what
  /// a world adds on top of it -- the network fabric (seed ^ 0x105e)
  /// and the adversary plans (seed ^ 0xad7e).
  uint64_t seed = 0x9000;
  /// Scales the synthetic (non-QUIC) share of the DNS corpora; 1.0
  /// models com/net/org at 1:1000 of the paper (180 k names).
  double dns_corpus_scale = 1.0;
};

/// The AS registry every campaign population routes through:
/// AsRegistry::standard with 240 tail ASes plus the population-specific
/// ASes (the padding-lax open CDN of section 3.1). It depends on
/// nothing, so it is built once per process, on first use, and every
/// Population shares it read-only. Exposed so offline tooling
/// (qreport_cli) can attribute saved-CSV addresses identically to the
/// in-engine report without rebuilding a population.
const AsRegistry& campaign_as_registry();

class Population {
 public:
  /// Builds the population snapshot for a calendar week (5..18).
  Population(const PopulationParams& params, int week);

  int week() const { return week_; }
  const AsRegistry& as_registry() const { return *as_registry_; }
  const std::vector<HostProfile>& hosts() const { return hosts_; }
  const std::vector<DomainInfo>& domains() const { return domains_; }
  const std::vector<ListCorpus>& lists() const { return lists_; }

  /// The first host with address `addr`, or nullptr.
  const HostProfile* host_by_address(const netsim::IpAddress& addr) const;
  /// The first domain named `name` (normalized), or nullptr.
  const DomainInfo* domain_by_name(std::string_view name) const;

  /// True when host `host` serves `domain`: it is one of the domain's
  /// serving A or AAAA hosts, not the target of a stale record.
  static bool serves(uint32_t host, const DomainInfo& domain);

  /// Deterministic synthetic list-member name (resolves NXDOMAIN),
  /// "<list>-filler-<i>.com", formatted into one string sized once.
  static std::string synthetic_domain(std::string_view list, size_t i);

 private:
  friend class PopulationBuilder;

  /// A flat open-addressing index over the ids 0..n-1 of one of the
  /// tables above. A slot holds an id and a tag (the high half of the
  /// key's 64-bit hash), never the key: a lookup compares the table's
  /// own entry, so the index keeps no second copy of a name or an
  /// address, and it is built once, after the table is complete.
  class IdIndex {
   public:
    static constexpr uint32_t kNone = UINT32_MAX;
    /// Indexes ids 0..n-1. `hash(id)` hashes id's key; `same(a, b)`
    /// says whether ids a and b share a key. The first id of a key
    /// wins.
    template <typename Hash, typename Same>
    void build(uint32_t n, Hash hash, Same same);
    /// The indexed id whose key hashes to `hash` and satisfies
    /// `is_key(id)`, or kNone.
    template <typename IsKey>
    uint32_t find(uint64_t hash, IsKey is_key) const;

   private:
    struct Slot {
      uint32_t tag = 0;
      uint32_t id = kNone;
    };
    std::vector<Slot> slots_;  // a power of two, at most 3/4 full
  };

  int week_;
  const AsRegistry* as_registry_;
  std::vector<HostProfile> hosts_;
  std::vector<DomainInfo> domains_;
  std::vector<ListCorpus> lists_;
  IdIndex host_index_;
  IdIndex domain_index_;
};

}  // namespace internet
