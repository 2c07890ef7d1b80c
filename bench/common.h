// Shared orchestration for the bench binaries: builds the synthetic
// internet for a calendar week and runs the paper's discovery pipeline
// (ZMap sweep, DNS list resolution, TLS-over-TCP Alt-Svc collection),
// producing the joined target sets every table and figure consumes.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/stats.h"
#include "analysis/table.h"
#include "internet/internet.h"
#include "scanner/dns_scan.h"
#include "scanner/qscanner.h"
#include "scanner/tcp_tls.h"
#include "scanner/zmap.h"

namespace bench {

/// Join of DNS resolutions: address -> resolved domains (the paper's
/// "Join with DNS scan" columns in Table 1/2).
class DnsJoin {
 public:
  void add(const dns::BulkRecord& record);

  const std::vector<std::string>* domains_for(
      const netsim::IpAddress& addr) const;
  size_t domain_count(const netsim::IpAddress& addr) const;
  size_t total_pairs() const { return total_pairs_; }

  /// Distinct domains across a set of addresses.
  size_t distinct_domains(
      const std::vector<netsim::IpAddress>& addrs) const;

 private:
  std::unordered_map<netsim::IpAddress, std::vector<std::string>,
                     netsim::IpAddressHash>
      by_address_;
  size_t total_pairs_ = 0;
};

/// One QUIC deployment sighting from the Alt-Svc channel.
struct AltSvcFinding {
  netsim::IpAddress address;
  std::string domain;
  std::vector<std::string> alpn_tokens;
};

/// One QUIC deployment sighting from an HTTPS DNS RR.
struct HttpsRrFinding {
  std::string domain;
  std::vector<std::string> alpn_tokens;
  std::vector<netsim::IpAddress> v4_hints;
  std::vector<netsim::IpAddress> v6_hints;
};

struct Discovery {
  int week = 0;
  std::unique_ptr<netsim::EventLoop> loop;
  std::unique_ptr<internet::Internet> net;

  // ZMap sweep results.
  std::vector<scanner::ZmapHit> zmap_v4, zmap_v6;
  scanner::ZmapStats zmap_v4_stats, zmap_v6_stats;

  // DNS scans per input list, and the global address<->domain join.
  std::vector<scanner::DnsListScan> list_scans;
  DnsJoin join;

  // Alt-Svc channel (from TLS-over-TCP scans with SNI).
  std::vector<AltSvcFinding> alt_svc;
  uint64_t tcp_syn_targets = 0;
  uint64_t tcp_tls_targets = 0;

  // HTTPS-RR channel.
  std::vector<HttpsRrFinding> https_rr;

  /// Distinct addresses per source and family (the Table 1 columns).
  std::set<netsim::IpAddress> zmap_addrs(bool v6) const;
  std::set<netsim::IpAddress> alt_svc_addrs(bool v6) const;
  std::set<netsim::IpAddress> https_rr_addrs(bool v6) const;
};

struct DiscoveryOptions {
  double dns_corpus_scale = 1.0;
  /// Scan every n-th known domain on the TCP path (1 = all). Weekly
  /// figure benches use a stride to keep runtimes reasonable; the
  /// stride divides numerator and denominator alike.
  size_t tcp_domain_stride = 1;
  bool run_tcp_scan = true;
  uint64_t seed = 0x9000;
};

Discovery run_discovery(int week, const DiscoveryOptions& options = {});

/// Assembles stateful-scan targets from discovery, applying the
/// Appendix-A cap of 100 domains per address and source.
struct SniTargets {
  std::vector<scanner::QscanTarget> from_zmap_dns;
  std::vector<scanner::QscanTarget> from_alt_svc;
  std::vector<scanner::QscanTarget> from_https_rr;
  /// Union, deduplicated by (address, SNI).
  std::vector<scanner::QscanTarget> combined;
};
SniTargets assemble_sni_targets(const Discovery& discovery, bool v6);

/// No-SNI targets: every ZMap-found address of the family.
std::vector<scanner::QscanTarget> assemble_no_sni_targets(
    const Discovery& discovery, bool v6);

/// Outcome histogram of a stateful scan, as Table 3 rows.
struct OutcomeShares {
  size_t total = 0;
  std::map<scanner::QscanOutcome, size_t> counts;
  double share(scanner::QscanOutcome outcome) const;
};
OutcomeShares tally(const std::vector<scanner::QscanResult>& results);

/// Section header used by every bench's stdout.
void print_header(const std::string& title, const std::string& paper_ref);

}  // namespace bench
