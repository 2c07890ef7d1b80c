#include "common.h"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "http/alpn.h"
#include "scanner/ethics.h"

namespace bench {

void DnsJoin::add(const dns::BulkRecord& record) {
  for (const auto& addr : record.a) {
    by_address_[addr].push_back(record.domain);
    ++total_pairs_;
  }
  for (const auto& addr : record.aaaa) {
    by_address_[addr].push_back(record.domain);
    ++total_pairs_;
  }
}

const std::vector<std::string>* DnsJoin::domains_for(
    const netsim::IpAddress& addr) const {
  auto it = by_address_.find(addr);
  return it == by_address_.end() ? nullptr : &it->second;
}

size_t DnsJoin::domain_count(const netsim::IpAddress& addr) const {
  const auto* domains = domains_for(addr);
  return domains ? domains->size() : 0;
}

size_t DnsJoin::distinct_domains(
    const std::vector<netsim::IpAddress>& addrs) const {
  std::unordered_set<std::string> seen;
  for (const auto& addr : addrs) {
    if (const auto* domains = domains_for(addr))
      seen.insert(domains->begin(), domains->end());
  }
  return seen.size();
}

std::set<netsim::IpAddress> Discovery::zmap_addrs(bool v6) const {
  std::set<netsim::IpAddress> out;
  for (const auto& hit : v6 ? zmap_v6 : zmap_v4) out.insert(hit.address);
  return out;
}

std::set<netsim::IpAddress> Discovery::alt_svc_addrs(bool v6) const {
  std::set<netsim::IpAddress> out;
  for (const auto& finding : alt_svc)
    if (finding.address.is_v6() == v6) out.insert(finding.address);
  return out;
}

std::set<netsim::IpAddress> Discovery::https_rr_addrs(bool v6) const {
  std::set<netsim::IpAddress> out;
  for (const auto& finding : https_rr) {
    for (const auto& addr : v6 ? finding.v6_hints : finding.v4_hints)
      out.insert(addr);
  }
  return out;
}

Discovery run_discovery(int week, const DiscoveryOptions& options) {
  Discovery d;
  d.week = week;
  d.loop = std::make_unique<netsim::EventLoop>();
  internet::PopulationParams params;
  params.seed = options.seed;
  params.dns_corpus_scale = options.dns_corpus_scale;
  d.net = std::make_unique<internet::Internet>(params, week, *d.loop);

  // --- ZMap sweeps (section 3.1) ---
  {
    scanner::ZmapQuicScanner zmap(d.net->network(), {});
    auto candidates = d.net->zmap_candidates_v4();
    d.zmap_v4 = zmap.scan(candidates);
    d.zmap_v4_stats = zmap.stats();
  }
  {
    scanner::ZmapQuicScanner zmap(d.net->network(), {});
    auto hitlist = d.net->ipv6_hitlist();
    d.zmap_v6 = zmap.scan(hitlist);
    d.zmap_v6_stats = zmap.stats();
  }

  // --- DNS list scans (section 3.2) ---
  scanner::DnsScanner dns_scanner(d.net->zones());
  std::set<std::string> resolved;
  for (const char* list :
       {"alexa", "majestic", "umbrella", "czds", "comnetorg"}) {
    auto corpus = d.net->list_corpus(list);
    auto scan = dns_scanner.scan_list(list, corpus);
    for (const auto& record : scan.records) {
      if (resolved.insert(record.domain).second) {
        d.join.add(record);
        if (record.has_https_rr()) {
          HttpsRrFinding finding;
          finding.domain = record.domain;
          for (const auto& svcb : record.https) {
            finding.alpn_tokens.insert(finding.alpn_tokens.end(),
                                       svcb.alpn.begin(), svcb.alpn.end());
            finding.v4_hints.insert(finding.v4_hints.end(),
                                    svcb.ipv4_hints.begin(),
                                    svcb.ipv4_hints.end());
            finding.v6_hints.insert(finding.v6_hints.end(),
                                    svcb.ipv6_hints.begin(),
                                    svcb.ipv6_hints.end());
          }
          d.https_rr.push_back(std::move(finding));
        }
      }
    }
    d.list_scans.push_back(std::move(scan));
  }

  // --- TLS-over-TCP scans with HTTP, collecting Alt-Svc (section 3.3) ---
  if (options.run_tcp_scan) {
    scanner::TcpTlsScanner tcp(d.net->network(), {});
    scanner::DomainCap cap(1000);  // scaled cap; see assemble_sni_targets
    const auto& pop = d.net->population();
    size_t index = 0;
    for (const auto& domain : pop.domains()) {
      if (index++ % options.tcp_domain_stride != 0) continue;
      for (uint32_t h : domain.v4_hosts) {
        const auto& host = pop.hosts()[h];
        if (!cap.accept(host.address)) continue;
        ++d.tcp_tls_targets;
        auto result = tcp.scan_one({host.address, domain.name});
        if (result.alt_svc.empty()) continue;
        AltSvcFinding finding;
        finding.address = host.address;
        finding.domain = domain.name;
        for (const auto& entry : result.alt_svc)
          if (http::alpn_implies_quic(entry.alpn))
            finding.alpn_tokens.push_back(entry.alpn);
        if (!finding.alpn_tokens.empty())
          d.alt_svc.push_back(std::move(finding));
      }
      for (uint32_t h : domain.v6_hosts) {
        const auto& host = pop.hosts()[h];
        if (!cap.accept(host.address)) continue;
        ++d.tcp_tls_targets;
        auto result = tcp.scan_one({host.address, domain.name});
        if (result.alt_svc.empty()) continue;
        AltSvcFinding finding;
        finding.address = host.address;
        finding.domain = domain.name;
        for (const auto& entry : result.alt_svc)
          if (http::alpn_implies_quic(entry.alpn))
            finding.alpn_tokens.push_back(entry.alpn);
        if (!finding.alpn_tokens.empty())
          d.alt_svc.push_back(std::move(finding));
      }
    }
    d.tcp_syn_targets = d.net->population().hosts().size();
  }
  return d;
}

namespace {

std::vector<quic::Version> versions_from_tokens(
    const std::vector<std::string>& tokens) {
  std::vector<quic::Version> out;
  for (const auto& token : tokens)
    if (auto version = http::version_for_alpn(token)) out.push_back(*version);
  return out;
}

void dedup_targets(std::vector<scanner::QscanTarget>& targets) {
  std::sort(targets.begin(), targets.end(),
            [](const scanner::QscanTarget& a, const scanner::QscanTarget& b) {
              if (a.address != b.address) return a.address < b.address;
              return a.sni < b.sni;
            });
  targets.erase(std::unique(targets.begin(), targets.end(),
                            [](const scanner::QscanTarget& a,
                               const scanner::QscanTarget& b) {
                              return a.address == b.address && a.sni == b.sni;
                            }),
                targets.end());
}

}  // namespace

SniTargets assemble_sni_targets(const Discovery& discovery, bool v6) {
  SniTargets targets;
  // The paper caps SNI scans at 100 domains per real IP address. One
  // simulated host stands for ~1000 real addresses (DESIGN.md section
  // 7), so the load-equivalent cap here is 100 x the host-compression
  // factor of the domain-dense providers (~10).
  constexpr size_t kScaledDomainCap = 1000;
  // (i) ZMap joined with DNS A/AAAA resolutions.
  {
    scanner::DomainCap cap(kScaledDomainCap);
    const auto& hits = v6 ? discovery.zmap_v6 : discovery.zmap_v4;
    for (const auto& hit : hits) {
      const auto* domains = discovery.join.domains_for(hit.address);
      if (!domains) continue;
      for (const auto& domain : *domains) {
        if (!cap.accept(hit.address)) break;
        targets.from_zmap_dns.push_back(
            {hit.address, domain, hit.versions});
      }
    }
  }
  // (ii) Alt-Svc findings.
  {
    scanner::DomainCap cap(kScaledDomainCap);
    for (const auto& finding : discovery.alt_svc) {
      if (finding.address.is_v6() != v6) continue;
      if (!cap.accept(finding.address)) continue;
      targets.from_alt_svc.push_back(
          {finding.address, finding.domain,
           versions_from_tokens(finding.alpn_tokens)});
    }
  }
  // (iii) HTTPS DNS RRs.
  {
    scanner::DomainCap cap(kScaledDomainCap);
    for (const auto& finding : discovery.https_rr) {
      auto versions = versions_from_tokens(finding.alpn_tokens);
      for (const auto& addr : v6 ? finding.v6_hints : finding.v4_hints) {
        if (!cap.accept(addr)) continue;
        targets.from_https_rr.push_back({addr, finding.domain, versions});
      }
    }
  }
  targets.combined = targets.from_zmap_dns;
  targets.combined.insert(targets.combined.end(),
                          targets.from_alt_svc.begin(),
                          targets.from_alt_svc.end());
  targets.combined.insert(targets.combined.end(),
                          targets.from_https_rr.begin(),
                          targets.from_https_rr.end());
  dedup_targets(targets.combined);
  return targets;
}

std::vector<scanner::QscanTarget> assemble_no_sni_targets(
    const Discovery& discovery, bool v6) {
  std::vector<scanner::QscanTarget> targets;
  for (const auto& hit : v6 ? discovery.zmap_v6 : discovery.zmap_v4)
    targets.push_back({hit.address, std::nullopt, hit.versions});
  return targets;
}

double OutcomeShares::share(scanner::QscanOutcome outcome) const {
  auto it = counts.find(outcome);
  if (it == counts.end() || total == 0) return 0.0;
  return 100.0 * static_cast<double>(it->second) /
         static_cast<double>(total);
}

OutcomeShares tally(const std::vector<scanner::QscanResult>& results) {
  OutcomeShares shares;
  shares.total = results.size();
  for (const auto& result : results) ++shares.counts[result.outcome];
  return shares;
}

void print_header(const std::string& title, const std::string& paper_ref) {
  std::printf("==================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("==================================================\n\n");
}

}  // namespace bench
