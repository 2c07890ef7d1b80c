// The synthetic deployment population. Every table and figure in the
// paper is a statistic over (a) who deploys QUIC where, (b) how those
// deployments behave on the wire, and (c) how that changed over weeks
// 5-18 of 2021. This module encodes that ground truth as data:
// provider groups with host counts, wire behaviors (version sets, SNI
// policy, failure modes), transport-parameter configs, HTTP Server
// values, Alt-Svc/HTTPS-RR publication, domain hosting and weekly
// evolution rules. See DESIGN.md section 7 for the calibration and
// scaling rules (1:1000 for host/domain masses, compressed AS tail).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
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

  // --- hosting ---
  std::unordered_set<uint32_t> domain_ids;

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
  uint64_t seed = 0x9000;
  /// Scales the synthetic (non-QUIC) share of the DNS corpora; 1.0
  /// models com/net/org at 1:1000 of the paper (180 k names).
  double dns_corpus_scale = 1.0;
};

/// The AS registry every campaign population routes through:
/// AsRegistry::standard with 240 tail ASes plus the population-specific
/// ASes (the padding-lax open CDN of section 3.1). Exposed so offline
/// tooling (qreport_cli) can attribute saved-CSV addresses identically
/// to the in-engine report without rebuilding a population.
AsRegistry campaign_as_registry();

class Population {
 public:
  /// Builds the population snapshot for a calendar week (5..18).
  Population(const PopulationParams& params, int week);

  int week() const { return week_; }
  const AsRegistry& as_registry() const { return as_registry_; }
  const std::vector<HostProfile>& hosts() const { return hosts_; }
  const std::vector<DomainInfo>& domains() const { return domains_; }
  const std::vector<ListCorpus>& lists() const { return lists_; }

  const HostProfile* host_by_address(const netsim::IpAddress& addr) const;
  const DomainInfo* domain_by_name(const std::string& name) const;

  /// Deterministic synthetic list-member name (resolves NXDOMAIN).
  static std::string synthetic_domain(const std::string& list, size_t i);

 private:
  friend class PopulationBuilder;
  int week_;
  AsRegistry as_registry_;
  std::vector<HostProfile> hosts_;
  std::vector<DomainInfo> domains_;
  std::vector<ListCorpus> lists_;
  std::unordered_map<netsim::IpAddress, uint32_t, netsim::IpAddressHash>
      host_index_;
  std::unordered_map<std::string, uint32_t> domain_index_;
};

}  // namespace internet
