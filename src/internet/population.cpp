#include "internet/population.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "http/alpn.h"

namespace internet {

namespace {

using quic::Version;
using namespace quic;  // version constants

// Extra AS used by the padding experiment (section 3.1): 95.4 % of the
// hosts answering unpadded probes sit in one AS.
constexpr uint32_t kAsOpenCdn = 60068;

/// Weekly population growth: ZMap-visible addresses grew from ~1.55 M
/// (week 5) to ~2.13 M (week 18) in the paper (Figure 5, right axis).
double growth(int week) {
  double w = std::clamp(week, 5, 18);
  return (1.55 + (2.13 - 1.55) * (w - 5) / 13.0) / 2.13;
}

/// Akamai's share of hosts announcing draft-29 alongside gQUIC grew
/// from ~10 % to ~95 % across the measurement period (Figure 5).
double akamai_draft29_share(int week) {
  double w = std::clamp(week, 5, 18);
  return 0.10 + (0.95 - 0.10) * (w - 5) / 13.0;
}

/// Google Alt-Svc sets: share of hosts that moved to the newer
/// "h3-27,h3-29,h3-34,..." set (appears around week 14, Figure 7).
double google_new_altsvc_share(int week) {
  if (week < 14) return 0.0;
  return std::min(1.0, 0.15 * (week - 13));
}

/// Share of the 2 900 (scaled) Cloudflare HTTPS-RR domains already
/// published by `week` (Figure 3 growth).
double https_rr_progress(int week) {
  double w = std::clamp(week, 9, 18);
  return 0.45 + 0.55 * (w - 9) / 9.0;
}

const std::vector<Version> kGoogleSet{kDraft29, kT051, kQ050, kQ046, kQ043};
const std::vector<Version> kGoogleLegacySet{kQ099, kQ048, kQ046, kQ043,
                                            kQ039, kDraft28, kT048};
const std::vector<Version> kMvfstSet{kMvfst2, kMvfst1, kMvfstE, kDraft29,
                                     kDraft27};
const std::vector<Version> kCfOld{kDraft29, kDraft28, kDraft27};
const std::vector<Version> kCfNew{kVersion1, kDraft29, kDraft28, kDraft27};
const std::vector<Version> kFastlySet{kDraft29, kDraft27};
const std::vector<Version> kAkamaiOld{kQ050, kQ046, kQ043};
const std::vector<Version> kAkamaiNew{kDraft29, kQ050, kQ046, kQ043};

const std::vector<std::string> kIetfAlpns{"h3",    "h3-34", "h3-32",
                                          "h3-29", "h3-28", "h3-27"};

// Alt-Svc token sets from Figure 7.
const std::vector<std::string> kAltSvcCf{"h3-27", "h3-28", "h3-29"};
const std::vector<std::string> kAltSvcGoogleOld{"h3-25",    "h3-27",
                                                "h3-Q043",  "h3-Q046",
                                                "h3-Q050",  "quic"};
const std::vector<std::string> kAltSvcGoogleNew{
    "h3-27", "h3-29", "h3-34", "h3-Q043", "h3-Q046", "h3-Q050", "quic"};
const std::vector<std::string> kAltSvcQuicOnly{"quic"};

}  // namespace

std::string Population::synthetic_domain(const std::string& list, size_t i) {
  return list + "-filler-" + std::to_string(i) + ".com";
}

const HostProfile* Population::host_by_address(
    const netsim::IpAddress& addr) const {
  auto it = host_index_.find(addr);
  return it == host_index_.end() ? nullptr : &hosts_[it->second];
}

const DomainInfo* Population::domain_by_name(const std::string& name) const {
  auto it = domain_index_.find(name);
  return it == domain_index_.end() ? nullptr : &domains_[it->second];
}

bool Population::serves(uint32_t host, const DomainInfo& domain) {
  auto serving = [host](const std::vector<uint32_t>& hosts, size_t n) {
    const auto end = hosts.begin() + static_cast<std::ptrdiff_t>(n);
    return std::find(hosts.begin(), end, host) != end;
  };
  return serving(domain.v4_hosts, domain.v4_serving) ||
         serving(domain.v6_hosts, domain.v6_serving);
}

/// Builder: allocates hosts group by group, then domains, then lists.
class PopulationBuilder {
 public:
  PopulationBuilder(Population& pop, const PopulationParams& params)
      : pop_(pop), params_(params) {}

  void build();

 private:
  struct GroupSpec {
    std::string group;
    uint32_t asn;       // 0 = spread over tail ASes (one host per AS)
    int count_v4;       // week-18 size; scaled by growth(week)
    int count_v6;
    std::function<void(HostProfile&)> configure;
    bool grows = true;  // false: constant across weeks
    // Tail groups land in [tail_lo, tail_hi) of the tail-AS range;
    // failure-heavy groups are packed into a reserved slice so that
    // most ASes retain at least one working deployment (the paper's
    // 93 % success coverage, Figure 8).
    int tail_lo = 40;
    int tail_hi = -1;  // -1: up to tail_count
  };

  void add_group(const GroupSpec& spec);
  void add_host(const GroupSpec& spec, netsim::Family family, bool active);
  uint32_t add_domain(std::string name, std::vector<uint32_t> v4_hosts,
                      std::vector<uint32_t> v6_hosts, int https_since,
                      std::vector<uint32_t> stale_v4 = {},
                      std::vector<uint32_t> stale_v6 = {});
  void build_hosts();
  void build_domains();
  void build_lists();

  Population& pop_;
  const PopulationParams& params_;
  int next_tail_as_ = 0;
  std::unordered_map<uint64_t, uint64_t> alloc_count_;  // per-(AS, family)
  std::unordered_map<std::string, std::vector<uint32_t>> group_v4_,
      group_v6_;
};

void PopulationBuilder::add_group(const GroupSpec& spec) {
  // The address cursor always walks the full week-18 layout; weeks
  // before 18 simply skip the not-yet-deployed tail of each group.
  // This keeps every host's address identical across weekly snapshots
  // (longitudinal joins depend on it).
  double m = spec.grows ? growth(pop_.week_) : 1.0;
  int n4 = static_cast<int>(std::lround(spec.count_v4 * m));
  int n6 = static_cast<int>(std::lround(spec.count_v6 * m));
  for (int i = 0; i < spec.count_v4; ++i)
    add_host(spec, netsim::Family::kIpv4, /*active=*/i < n4);
  for (int i = 0; i < spec.count_v6; ++i)
    add_host(spec, netsim::Family::kIpv6, /*active=*/i < n6);
}

void PopulationBuilder::add_host(const GroupSpec& spec, netsim::Family family,
                                 bool active) {
  // The cursor advances whether or not the host is instantiated this
  // week; see add_group.
  uint32_t asn = spec.asn;
  if (asn == 0) {
    int lo = spec.tail_lo;
    int hi = spec.tail_hi < 0 ? pop_.as_registry_.tail_count() : spec.tail_hi;
    asn = pop_.as_registry_.tail_asn(lo + next_tail_as_ % (hi - lo));
    ++next_tail_as_;
  }
  uint64_t cursor = alloc_count_[uint64_t{asn} * 2 +
                                 (family == netsim::Family::kIpv6 ? 1 : 0)]++;
  if (!active) return;

  HostProfile host;
  host.id = static_cast<uint32_t>(pop_.hosts_.size());
  host.group = spec.group;
  host.asn = asn;
  host.address = pop_.as_registry_.allocate(asn, family, cursor);
  spec.configure(host);
  auto& bucket = family == netsim::Family::kIpv4 ? group_v4_[spec.group]
                                                 : group_v6_[spec.group];
  bucket.push_back(host.id);
  pop_.host_index_.emplace(host.address, host.id);
  pop_.hosts_.push_back(std::move(host));
}

uint32_t PopulationBuilder::add_domain(std::string name,
                                       std::vector<uint32_t> v4_hosts,
                                       std::vector<uint32_t> v6_hosts,
                                       int https_since,
                                       std::vector<uint32_t> stale_v4,
                                       std::vector<uint32_t> stale_v6) {
  DomainInfo d;
  d.id = static_cast<uint32_t>(pop_.domains_.size());
  d.name = std::move(name);
  d.v4_hosts = std::move(v4_hosts);
  d.v6_hosts = std::move(v6_hosts);
  d.https_rr_since_week = https_since;
  // Registered hosts actually serve the domain; stale records after
  // them model DNS pointing at an address that no longer does
  // (load-balancer rotation, provider migration, ZMap-to-scan delay) --
  // the paper's SNI-scan 0x128s and timeouts (Table 3).
  d.v4_serving = static_cast<uint16_t>(d.v4_hosts.size());
  d.v6_serving = static_cast<uint16_t>(d.v6_hosts.size());
  d.v4_hosts.insert(d.v4_hosts.end(), stale_v4.begin(), stale_v4.end());
  d.v6_hosts.insert(d.v6_hosts.end(), stale_v6.begin(), stale_v6.end());
  pop_.domain_index_.emplace(d.name, d.id);
  pop_.domains_.push_back(std::move(d));
  return pop_.domains_.back().id;
}

void PopulationBuilder::build() {
  build_hosts();
  build_domains();
  build_lists();
}

void PopulationBuilder::build_hosts() {
  const int week = pop_.week_;

  // --- Cloudflare ---
  auto cf_common = [week](HostProfile& h) {
    h.server_value = "cloudflare";
    h.tp_config = kTpConfigCloudflare;
    h.handshake_versions = week >= 16 ? kCfNew : kCfOld;
    h.advertised_versions = h.handshake_versions;
    // The v1 flip also accepts the final "h3" token, even though the
    // Alt-Svc header never advertised it during the window (the
    // paper's Figure 5 vs Figure 7 discrepancy).
    h.quic_alpn = week >= 16
                      ? std::vector<std::string>{"h3", "h3-29", "h3-28",
                                                 "h3-27"}
                      : std::vector<std::string>{"h3-29", "h3-28", "h3-27"};
    h.alert_message = "tls: handshake failure";  // quiche wording
    h.alt_svc_alpn = kAltSvcCf;
    h.sni_policy = SniPolicy::kKnownOnly;
  };
  add_group({"cloudflare", kAsCloudflare, 68, 40,
             [&, i = 0](HostProfile& h) mutable {
               cf_common(h);
               // A handful of accounts disable TLS 1.3 on TCP but
               // keep QUIC on (section 5.1): rare, like the paper's
               // sub-percent "single most contributor" share.
               if (i == 5) h.tls_max_version = 0x0303;
               if (i == 7) h.tcp_echo_sni = false;  // RFC 6066 gap
               ++i;
             }});
  add_group({"cloudflare-idle", kAsCloudflare, 640, 70,
             [&, i = 0](HostProfile& h) mutable {
               cf_common(h);
               h.sni_policy = SniPolicy::kAlwaysFail;
               h.alt_svc_alpn.clear();  // no service behind the address
               // A quarter still terminate TLS-over-TCP with a default
               // certificate: the paper's "TCP succeeds, QUIC returns
               // 0x128" Cloudflare share (section 5.1).
               if (i % 4 == 0) h.default_domain = "origin.cloudflare.example";
               ++i;
             }});
  add_group({"cloudflare-london", kAsCloudflareLondon, 23, 3, cf_common});

  // --- Google ---
  auto google_common = [](HostProfile& h) {
    h.advertised_versions = kGoogleSet;
    h.quic_alpn = kIetfAlpns;
    h.sni_policy = SniPolicy::kDefaultCert;
    h.default_domain = "www.google.example";
    h.tcp_no_sni_cert = TcpNoSniCert::kSelfSigned;
    h.tcp_alpn_without_sni = false;  // no ALPN on the TCP error path
    h.cert_rotates_weekly = true;
    h.tp_config = kTpConfigGoogleFrontend;
    h.alert_message = "TLS handshake failure (ENCRYPTION_HANDSHAKE) 40: "
                      "handshake failure";  // Google wording
  };
  add_group({"google", kAsGoogle, 60, 27,
             [&, i = 0](HostProfile& h) mutable {
               google_common(h);
               h.handshake_versions = {kDraft29};
               static const char* kServers[] = {"gws", "sffe", "ESF",
                                                "Google Frontend"};
               h.server_value = kServers[i % 4];
               if (i % 9 == 0) h.cert_skew = true;  // scan-delay artifact
               h.alt_svc_alpn = google_new_altsvc_share(week) * 4 > (i % 4)
                                    ? kAltSvcGoogleNew
                                    : kAltSvcGoogleOld;
               ++i;
             }});
  // The iterative IETF roll-out (section 5): VN advertises draft-29 but
  // the handshake only speaks gQUIC -> version mismatch.
  add_group({"google-mismatch", kAsGoogle, 182, 2,
             [&](HostProfile& h) {
               google_common(h);
               h.server_value = "gws";
               h.handshake_versions = {kQ050, kQ046, kQ043};
             }});
  add_group({"google-mismatch-cloud", kAsGoogleCloud, 32, 0,
             [&](HostProfile& h) {
               google_common(h);
               h.server_value = "gws";
               h.handshake_versions = {kQ050, kQ046, kQ043};
             }});
  // Frontends not yet rolled out at all: answer VN, swallow Initials.
  add_group({"google-stall", kAsGoogle, 266, 8,
             [&](HostProfile& h) {
               google_common(h);
               h.server_value = "gws";
               h.handshake_versions.clear();
               h.stall_handshake = true;
             }});
  // A residue of ancient gQUIC experiments (Figure 5's rarest set).
  add_group({"google-legacy", kAsGoogle, 34, 0,
             [&](HostProfile& h) {
               google_common(h);
               h.server_value = "gws";
               h.advertised_versions = kGoogleLegacySet;
               h.handshake_versions = {kDraft28};
             }});

  // --- Akamai: VN answered (version set evolving), handshake stalls ---
  add_group({"akamai", kAsAkamai, 320, 24,
             [&, i = 0](HostProfile& h) mutable {
               h.server_value = "AkamaiGHost";
               h.default_domain = "a248.akamai.example";
               h.alt_svc_alpn = {"h3-29"};
               double share = akamai_draft29_share(week);
               h.advertised_versions =
                   (i % 100) < share * 100 ? kAkamaiNew : kAkamaiOld;
               h.handshake_versions.clear();
               h.stall_handshake = true;
               h.tp_config = 27;
               h.sni_policy = SniPolicy::kKnownOnly;
               ++i;
             }});

  // --- Fastly: needs SNI to route; stalls without it (section 5.1) ---
  add_group({"fastly", kAsFastly, 232, 6,
             [&](HostProfile& h) {
               h.server_value = "Fastly";
               h.default_domain = "fastly.example";
               h.advertised_versions = kFastlySet;
               h.handshake_versions = kFastlySet;
               h.quic_alpn = kIetfAlpns;
               h.sni_policy = SniPolicy::kKnownOnly;
               h.stall_handshake = false;
               h.alert_message = "fastly: no service matched";
               h.alt_svc_alpn = {"h3-29", "h3-27"};
               h.tp_config = 28;
               // Fastly-style stateless address validation: every
               // handshake pays a Retry round trip.
               h.require_retry = true;
               // No SNI -> the load balancer cannot route and the
               // connection is silently dropped (section 5.1 timeouts).
               h.stall_without_sni = true;
             }});

  // --- Facebook ---
  auto fb_common = [](HostProfile& h) {
    h.server_value = "proxygen-bolt";
    h.advertised_versions = kMvfstSet;
    h.handshake_versions = kMvfstSet;
    h.quic_alpn = kIetfAlpns;
    h.sni_policy = SniPolicy::kDefaultCert;
    h.default_domain = "static.fbcdn.example";
    h.alt_svc_alpn = {"h3-29"};
  };
  add_group({"facebook", kAsFacebook, 8, 4,
             [&, i = 0](HostProfile& h) mutable {
               fb_common(h);
               h.tp_config = i % 2 ? kTpConfigMvfstAs1404 : kTpConfigMvfstAs1500;
               ++i;
             }});
  add_group({"facebook-pop", 0, 60, 10,
             [&, i = 0](HostProfile& h) mutable {
               fb_common(h);
               h.tp_config =
                   i % 2 ? kTpConfigMvfstPop1404 : kTpConfigMvfstPop1500;
               ++i;
             }});

  // --- Google video edge POPs (gvs 1.0) ---
  auto gvs_common = [&](HostProfile& h) {
    google_common(h);
    h.server_value = "gvs 1.0";
    h.handshake_versions = {kDraft29};
    h.tp_config = kTpConfigGvs;
    h.default_domain = "r1.googlevideo.example";
  };
  add_group({"gvs", kAsGoogle, 6, 2, gvs_common});
  add_group({"gvs-pop", 0, 34, 4, gvs_common});

  // --- LiteSpeed fleets at hosters ---
  auto litespeed_common = [&](HostProfile& h) {
    h.server_value = "LiteSpeed";
    h.handshake_versions = kCfOld;
    h.advertised_versions = kCfOld;
    h.quic_alpn = kIetfAlpns;
    h.sni_policy = SniPolicy::kKnownOnly;
    h.alert_message = "lsquic: no matching vhost";
    h.alt_svc_alpn = {"h3-29", "h3-28", "h3-27"};
    h.tp_config = kTpConfigLiteSpeed;
  };
  // Hostinger: Alt-Svc-visible fleet that does NOT answer version
  // negotiation -> invisible to the ZMap module (section 4 "Overlap").
  add_group({"hostinger", kAsHostinger, 20, 195,
             [&](HostProfile& h) {
               litespeed_common(h);
               h.respond_to_vn = false;
             }});
  add_group({"ovh", kAsOvh, 30, 4,
             [&, i = 0](HostProfile& h) mutable {
               litespeed_common(h);
               if (i % 4 == 3) h.udp_filtered = true;
               ++i;
             }});
  add_group({"a2hosting", kAsA2Hosting, 15, 2, litespeed_common});
  add_group({"gts", kAsGtsTelecom, 10, 2, litespeed_common});
  add_group({"synergy", kAsSynergy, 2, 3, litespeed_common});
  add_group({"litespeed-tail", 0, 20, 2,
             [&, i = 0](HostProfile& h) mutable {
               litespeed_common(h);
               if (i % 3 == 0) h.tp_config = kTpConfigLiteSpeedAlt;
               // Standalone servers answer SNI-less handshakes with
               // their default virtual host.
               h.sni_policy = SniPolicy::kDefaultCert;
               h.default_domain = "ls-default-" + std::to_string(i) +
                                  ".example";
               ++i;
             }});

  // --- Cloud providers: individual customer setups ---
  static const char* kNginxServers[] = {
      "nginx",         "nginx/1.13.12", "nginx/1.16.1", "nginx/1.19.6",
      "nginx/1.20.0",  "yunjiasu-nginx", "openresty"};
  auto nginx_common = [&](HostProfile& h, int i) {
    h.server_value = kNginxServers[i % 7];
    h.handshake_versions = {kDraft29};
    h.advertised_versions = {kDraft29};
    h.quic_alpn = kIetfAlpns;
    h.sni_policy = SniPolicy::kKnownOnly;
    h.alert_message = "nginx-quic: handshake failed";
    h.alt_svc_alpn = {"h3-29"};
    h.tp_config = kTpConfigNginxBase + i % 17;
  };
  add_group({"digitalocean", kAsDigitalOcean, 20, 3,
             [&, i = 0](HostProfile& h) mutable {
               if (i % 4 == 3) {
                 litespeed_common(h);
               } else if (i % 4 == 2) {
                 h.server_value = "Caddy";
                 h.handshake_versions = {kDraft29, kDraft32, kDraft34};
                 h.advertised_versions = h.handshake_versions;
                 h.quic_alpn = kIetfAlpns;
                 h.sni_policy = SniPolicy::kKnownOnly;
                 h.alert_message = "quic-go: no certificate for server name";
                 h.alt_svc_alpn = {"h3-29"};
                 h.tp_config = kTpConfigCaddy;
               } else {
                 nginx_common(h, i);
               }
               ++i;
             }});
  add_group({"amazon", kAsAmazon, 15, 3,
             [&, i = 0](HostProfile& h) mutable {
               nginx_common(h, i);
               if (i % 5 == 4) {
                 h.server_value = "Python/3.7 aiohttp/3.7.2";
                 h.tp_config = 29;
               }
               ++i;
             }});
  add_group({"linode", kAsLinode, 8, 2,
             [&, i = 0](HostProfile& h) mutable { nginx_common(h, i++); }});
  add_group({"ionos", kAsIonos, 6, 2,
             [&, i = 0](HostProfile& h) mutable { nginx_common(h, i++); }});
  add_group({"eurobyte", kAsEuroByte, 2, 4, litespeed_common});
  add_group({"privatesystems", kAsPrivateSystems, 2, 6, litespeed_common});
  add_group({"jio", kAsJio, 2, 2,
             [&, i = 0](HostProfile& h) mutable { nginx_common(h, i++); }});
  // Customer diversity inside Google's AS (44 Server values, sec. 5.2).
  add_group({"google-cloud-misc", kAsGoogle, 12, 0,
             [&, i = 0](HostProfile& h) mutable {
               nginx_common(h, i);
               static const char* kMisc[] = {"Python/3.7 aiohttp/3.7.2",
                                             "h2o/2.3.0-beta2",
                                             "envoy", "Caddy"};
               if (i % 3 == 2) h.server_value = kMisc[i % 4];
               ++i;
             }});

  // --- Independent tails ---
  add_group({"nginx-tail", 0, 28, 4,
             [&, i = 0](HostProfile& h) mutable {
               nginx_common(h, i);
               // Standalone servers: default vhost on QUIC, but the TCP
               // default server block still serves the snake-oil cert.
               h.sni_policy = SniPolicy::kDefaultCert;
               h.default_domain =
                   "ngx-default-" + std::to_string(i) + ".example";
               h.tcp_no_sni_cert = TcpNoSniCert::kSelfSigned;
               ++i;
             }});
  add_group({"caddy-tail", 0, 10, 2,
             [&, i = 0](HostProfile& h) mutable {
               h.server_value = "Caddy";
               h.handshake_versions = {kDraft29, kDraft32, kDraft34};
               h.advertised_versions = h.handshake_versions;
               h.quic_alpn = kIetfAlpns;
               h.alert_message = "quic-go: no certificate for server name";
               h.alt_svc_alpn = {"h3-29"};
               h.tp_config = kTpConfigCaddy;
               h.sni_policy = SniPolicy::kDefaultCert;
               h.default_domain =
                   "caddy-default-" + std::to_string(i) + ".example";
               ++i;
             }});
  add_group({"h2o", 0, 2, 0,
             [&, i = 0](HostProfile& h) mutable {
               h.server_value =
                   i == 0 ? "h2o/2.3.0-DEV@abc1234" : "h2o/2.3.0-DEV@def5678";
               h.handshake_versions = {kDraft29};
               h.advertised_versions = {kDraft29};
               h.quic_alpn = kIetfAlpns;
               h.sni_policy = SniPolicy::kDefaultCert;
               h.default_domain = "h2o-default-" + std::to_string(i) +
                                  ".example";
               h.tcp_no_sni_cert = TcpNoSniCert::kSelfSigned;
               h.tp_config = 30;
               ++i;
             }});

  // An open CDN whose fleet answers even unpadded probes -- the single
  // AS behind 95 % of the paper's unpadded responses (section 3.1).
  // Its AS entry is part of campaign_as_registry().
  add_group({"opencdn", kAsOpenCdn, 280, 6,
             [&](HostProfile& h) {
               h.server_value = "opencdn";
               h.handshake_versions = kCfOld;
               h.advertised_versions = kCfOld;
               h.require_padding = false;
               h.sni_policy = SniPolicy::kAlwaysFail;
               h.alert_message = "tls: handshake failure";
               h.tp_config = 31;
             }});

  // Individual deployments whose domains our corpus does not know:
  // no-SNI handshakes fail with 0x128, never scanned with SNI.
  add_group({"unknown-vhost-tail", 0, 102, 10,
             [&, i = 0](HostProfile& h) mutable {
               litespeed_common(h);
               h.server_value = i % 2 ? "LiteSpeed" : "nginx";
               h.tp_config = 32 + i % 6;
               if (i % 11 == 0) h.require_padding = false;
               h.alt_svc_alpn.clear();
               ++i;
             },
             /*grows=*/true, /*tail_lo=*/0, /*tail_hi=*/40});
  // Stalling middleboxes in front of dead endpoints.
  add_group({"stall-tail", 0, 80, 6,
             [&](HostProfile& h) {
               h.server_value = "";
               h.advertised_versions = kCfOld;
               h.handshake_versions.clear();
               h.stall_handshake = true;
               h.tp_config = 38;
             },
             /*grows=*/true, /*tail_lo=*/0, /*tail_hi=*/40});
  // Broken implementations: the Table 3 "Other" row.
  add_group({"broken-tail", 0, 30, 2,
             [&](HostProfile& h) {
               h.server_value = "";
               h.advertised_versions = {kDraft29};
               h.handshake_versions = {kDraft29};
               h.broken_transport = true;
               h.tp_config = 39;
             },
             /*grows=*/true, /*tail_lo=*/0, /*tail_hi=*/40});
  // Individually run, correctly configured servers with known domains.
  add_group({"indie", 0, 20, 20,
             [&, i = 0](HostProfile& h) mutable {
               nginx_common(h, i);
               h.sni_policy = SniPolicy::kDefaultCert;
               h.default_domain = "indie-" + std::to_string(i) + ".example";
               if (i % 2 == 0)
                 h.tcp_no_sni_cert = TcpNoSniCert::kSelfSigned;
               // Early gQUIC-era configs still served the bare "quic"
               // Alt-Svc token; most were reconfigured by ~week 14
               // (Figure 7's fading set).
               if (i % 3 == 0 && week < 11 + i % 6)
                 h.alt_svc_alpn = kAltSvcQuicOnly;
               h.tp_config = 40 + i % 5;
               ++i;
             }});

  // Cloudflare-fronted sites whose networks filter UDP/443: the TCP
  // side advertises h3 via Alt-Svc, but QUIC never connects.
  add_group({"cloudflare-udp-filtered", kAsCloudflare, 60, 12,
             [&](HostProfile& h) {
               cf_common(h);
               h.udp_filtered = true;
             }});

  // Cloudflare addresses only surfaced through HTTPS-RR ipv4/ipv6
  // hints: DNS load balancing rotated them out of the ZMap snapshot
  // (the paper's 12 k HTTPS-unique IPv4 / 855 IPv6 addresses).
  add_group({"cloudflare-dnslb", kAsCloudflare, 12, 4,
             [&](HostProfile& h) {
               cf_common(h);
               h.respond_to_vn = false;
               h.alt_svc_alpn.clear();  // unique to the HTTPS-RR channel
             }});

  // Plain TLS-over-TCP web servers without QUIC (Alt-Svc-free): the
  // bulk of port-443 hosts any TCP scan wades through.
  add_group({"tcp-only", 0, 300, 40,
             [&, i = 0](HostProfile& h) mutable {
               h.server_value = i % 2 ? "nginx" : "Apache";
               h.handshake_versions.clear();
               h.advertised_versions.clear();
               h.respond_to_vn = false;
               h.sni_policy = SniPolicy::kDefaultCert;
               h.default_domain = "web-" + std::to_string(i) + ".example";
               ++i;
             }});
}

void PopulationBuilder::build_domains() {
  const int week = pop_.week_;
  auto pick_hosts = [&](const std::vector<uint32_t>& bucket, size_t i,
                        int spread, double fraction) {
    std::vector<uint32_t> out;
    if (bucket.empty()) return out;
    size_t pool = std::max<size_t>(
        1, static_cast<size_t>(static_cast<double>(bucket.size()) * fraction));
    for (int k = 0; k < spread; ++k)
      out.push_back(bucket[(i * 7 + static_cast<size_t>(k) * 13) % pool]);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  };
  static const char* kTlds[] = {".com", ".com", ".com", ".net", ".org",
                                ".xyz", ".shop", ".site", ".dev", ".app"};

  struct DomainGroup {
    const char* host_group;
    const char* stem;
    int count_v4;       // domains with A records
    int count_v6;       // of those, how many also get AAAA records
    int https_rr_total; // week-18 count of domains with an HTTPS RR
    // Domains concentrate on this leading share of the group's hosts;
    // the rest stay domain-less (load balancing + incomplete corpus,
    // section 4: only 10 % of ZMap IPv4 addresses join to a domain).
    double host_fraction = 1.0;
  };
  // Domain masses follow Table 2's per-provider domain counts (1:1000).
  const DomainGroup groups[] = {
      {"cloudflare", "cf-site", 23844, 17862, 2620, 1.0},
      {"cloudflare-dnslb", "cfdlb-site", 280, 90, 280, 1.0},
      {"cloudflare-udp-filtered", "cfuf-site", 2500, 700, 0, 1.0},
      {"cloudflare-london", "cfl-site", 62, 26, 6, 1.0},
      {"google", "g-prop", 4200, 14, 9, 0.6},
      {"google-mismatch", "g-roll", 2000, 3, 0, 0.1},
      {"google-stall", "g-wait", 600, 3, 0, 0.08},
      {"akamai", "ak-site", 23, 13, 0, 0.1},
      {"fastly", "fst-site", 939, 120, 0, 0.15},
      {"facebook", "fbcdn", 36, 18, 0, 1.0},
      {"facebook-pop", "fb-pop-cdn", 14, 6, 0, 0.15},
      {"hostinger", "hst-site", 215, 215, 0, 1.0},
      {"ovh", "ovh-site", 1692, 60, 7, 1.0},
      {"a2hosting", "a2-site", 859, 30, 0, 1.0},
      {"gts", "gts-site", 234, 10, 0, 1.0},
      {"synergy", "syn-site", 150, 90, 0, 1.0},
      {"digitalocean", "do-app", 136, 20, 12, 1.0},
      {"amazon", "aws-app", 90, 12, 8, 1.0},
      {"linode", "ln-app", 40, 8, 4, 1.0},
      {"ionos", "io-app", 30, 6, 3, 1.0},
      {"eurobyte", "eb-site", 12, 6, 0, 1.0},
      {"privatesystems", "ps-site", 30, 25, 0, 1.0},
      {"jio", "jio-app", 10, 4, 0, 1.0},
      {"litespeed-tail", "ls-site", 240, 20, 0, 1.0},
      {"nginx-tail", "ngx-site", 90, 10, 0, 1.0},
      {"google-cloud-misc", "gcm-app", 40, 4, 0, 1.0},
      {"caddy-tail", "caddy-site", 15, 4, 2, 1.0},
      {"h2o", "h2o-site", 12, 0, 0, 1.0},
      {"indie", "indie-site", 60, 30, 5, 1.0},
      {"tcp-only", "web-site", 400, 60, 0, 1.0},
  };
  for (const auto& g : groups) {
    const auto& v4 = group_v4_[g.host_group];
    const auto& v6 = group_v6_[g.host_group];
    double m = growth(week);
    int n = static_cast<int>(std::lround(g.count_v4 * m));
    int n6 = static_cast<int>(std::lround(g.count_v6 * m));
    int https_total = g.https_rr_total;
    int https_now = static_cast<int>(
        std::lround(https_total * https_rr_progress(week)));
    for (int i = 0; i < n; ++i) {
      std::string name = std::string(g.stem) + "-" + std::to_string(i) +
                         kTlds[i % 10];
      // HTTPS RRs roll out from the front of each group's domain range
      // (earlier ids published earlier): domain i is live once
      // https_rr_progress(w) * https_total exceeds i.
      int since = 0;
      if (i < https_now) {
        for (int w = 5; w <= 18; ++w) {
          if (https_rr_progress(w) * https_total > i) {
            since = w;
            break;
          }
        }
      }
      bool eventually = i < https_total;
      auto v4_hosts = pick_hosts(v4, static_cast<size_t>(i), 2,
                                 g.host_fraction);
      auto v6_hosts = i < n6 ? pick_hosts(v6, static_cast<size_t>(i), 2,
                                          g.host_fraction)
                             : std::vector<uint32_t>{};
      // Stale extra records: ~5.5 % of domains keep an A record at a
      // same-provider address that no longer serves them (SNI scans hit
      // 0x128); ~11 % keep one at a stalled middlebox (timeouts).
      std::vector<uint32_t> stale_v4, stale_v6;
      bool eligible = std::string(g.host_group) != "tcp-only" &&
                      std::string(g.host_group) != "hostinger";
      if (eligible && (i % 9 == 3 || i % 18 == 15) && v4.size() > 3) {
        // Candidate from the same domain-hosting pool: it serves other
        // domains of this provider but not this one, so the SNI scan
        // gets 0x128 -- without handing domains to addresses that the
        // paper reports as domain-less (join coverage, section 4).
        size_t pool = std::max<size_t>(
            1, static_cast<size_t>(static_cast<double>(v4.size()) *
                                   g.host_fraction));
        uint32_t candidate = v4[(static_cast<size_t>(i) * 11 + 1) % pool];
        if (std::find(v4_hosts.begin(), v4_hosts.end(), candidate) ==
            v4_hosts.end())
          stale_v4.push_back(candidate);
      }
      if (eligible && i % 9 == 4) {
        const auto& stallers = group_v4_["stall-tail"];
        if (!stallers.empty())
          stale_v4.push_back(stallers[static_cast<size_t>(i) % stallers.size()]);
        const auto& stallers6 = group_v6_["stall-tail"];
        if (!v6_hosts.empty() && !stallers6.empty())
          stale_v6.push_back(
              stallers6[static_cast<size_t>(i) % stallers6.size()]);
      }
      uint32_t id = add_domain(std::move(name), std::move(v4_hosts),
                               std::move(v6_hosts), since,
                               std::move(stale_v4), std::move(stale_v6));
      pop_.domains_[id].https_rr_eventually = eventually;
    }
  }
}

void PopulationBuilder::build_lists() {
  // Membership: a deterministic slice of each provider's domain range
  // goes into each list; synthetic non-QUIC names fill the remainder.
  std::vector<uint32_t> https_domains, plain_domains;
  for (const auto& d : pop_.domains_) {
    if (d.https_rr_eventually)
      https_domains.push_back(d.id);
    else
      plain_domains.push_back(d.id);
  }
  auto take = [&](std::vector<uint32_t>& from, size_t n, size_t stride,
                  std::vector<uint32_t>& out, uint8_t bit) {
    for (size_t i = 0, taken = 0; i < from.size() && taken < n;
         i += stride, ++taken) {
      out.push_back(from[i]);
      pop_.domains_[from[i]].lists |= bit;
    }
  };

  double cs = params_.dns_corpus_scale;
  struct ListSpec {
    const char* name;
    uint8_t bit;
    size_t https_members, plain_members, total;
  };
  // Week-18 HTTPS-RR success targets (Figure 3): alexa 7.5 %, umbrella
  // 6 %, majestic 5 %, czds 2 %, com/net/org 1.1 %. Because only
  // https_rr_since <= week counts as success, earlier weeks land lower
  // on the same trajectory.
  // The big zone corpora scale with dns_corpus_scale (members and
  // totals together, keeping per-list HTTPS-RR rates scale-invariant);
  // the top lists are small enough to model at full size always.
  const ListSpec specs[] = {
      {"alexa", kListAlexa, 75, 425, 1000},
      {"umbrella", kListUmbrella, 60, 440, 1000},
      {"majestic", kListMajestic, 50, 450, 1000},
      {"czds", kListCzds, static_cast<size_t>(620 * cs),
       static_cast<size_t>(5380 * cs), static_cast<size_t>(31000 * cs)},
      {"comnetorg", kListComNetOrg, static_cast<size_t>(1980 * cs),
       static_cast<size_t>(20020 * cs), static_cast<size_t>(180000 * cs)},
  };
  size_t salt = 0;
  for (const auto& spec : specs) {
    ListCorpus corpus;
    corpus.name = spec.name;
    size_t https_n = std::min(spec.https_members, https_domains.size());
    size_t plain_n = std::min(spec.plain_members, plain_domains.size());
    size_t https_stride = std::max<size_t>(1, https_domains.size() / std::max<size_t>(1, https_n));
    size_t plain_stride = std::max<size_t>(1, plain_domains.size() / std::max<size_t>(1, plain_n));
    // Offset per list so lists overlap but are not identical.
    std::rotate(https_domains.begin(),
                https_domains.begin() +
                    static_cast<long>(salt % std::max<size_t>(1, https_domains.size())),
                https_domains.end());
    std::rotate(plain_domains.begin(),
                plain_domains.begin() +
                    static_cast<long>((salt * 31) % std::max<size_t>(1, plain_domains.size())),
                plain_domains.end());
    take(https_domains, https_n, https_stride, corpus.members, spec.bit);
    take(plain_domains, plain_n, plain_stride, corpus.members, spec.bit);
    size_t member_count = corpus.members.size();
    corpus.synthetic_count =
        spec.total > member_count ? spec.total - member_count : 0;
    pop_.lists_.push_back(std::move(corpus));
    salt += 7919;
  }
  // Every stored domain is resolvable through at least one corpus: the
  // paper's com/net/org zone files cover essentially all registered
  // names. Domains the striding above skipped join com/net/org, and the
  // synthetic filler is rebalanced so the list's HTTPS-RR success rate
  // stays at its Figure 3 target (~1.1 %) at any corpus scale.
  for (auto& corpus : pop_.lists_) {
    if (corpus.name != "comnetorg") continue;
    for (auto& domain : pop_.domains_) {
      if (domain.lists == 0) {
        domain.lists |= kListComNetOrg;
        corpus.members.push_back(domain.id);
      }
    }
    size_t https_members = 0;
    for (uint32_t id : corpus.members)
      if (pop_.domains_[id].https_rr_eventually) ++https_members;
    constexpr double kComNetOrgRate = 1980.0 / 180000.0;
    size_t target_total =
        static_cast<size_t>(static_cast<double>(https_members) /
                            kComNetOrgRate);
    corpus.synthetic_count = target_total > corpus.members.size()
                                 ? target_total - corpus.members.size()
                                 : 0;
  }
}

AsRegistry campaign_as_registry() {
  AsRegistry registry = AsRegistry::standard(240);
  registry.add({kAsOpenCdn, "OpenCDN (padding-lax)",
                {*netsim::Prefix::parse("185.152.64.0/18")},
                {*netsim::Prefix::parse("2a0b:4340::/32")}});
  return registry;
}

Population::Population(const PopulationParams& params, int week)
    : week_(week),
      as_registry_(campaign_as_registry()) {
  if (week < 5 || week > 18)
    throw std::invalid_argument("week must be in [5, 18]");
  PopulationBuilder builder(*this, params);
  builder.build();
}

}  // namespace internet
