// Quickstart: build a small synthetic internet, discover QUIC
// deployments with the ZMap module, and complete one stateful QScanner
// handshake -- the full pipeline of the paper in ~80 lines.
//
//   ./build/examples/quickstart
#include <cstdio>

#include "internet/internet.h"
#include "scanner/qscanner.h"
#include "scanner/zmap.h"

int main() {
  // 1. A synthetic internet for calendar week 18 of 2021 (the paper's
  //    main snapshot): providers, domains, DNS zones, failure modes.
  netsim::EventLoop loop;
  internet::Internet internet({.dns_corpus_scale = 0.01}, /*week=*/18, loop);
  // The DNS zone is the population itself: one A/AAAA record per host
  // entry of a domain, plus its HTTPS record once published.
  size_t records = 0;
  for (const auto& d : internet.population().domains())
    records += d.v4_hosts.size() + d.v6_hosts.size() +
               (d.https_rr_since_week > 0 && d.https_rr_since_week <= 18);
  std::printf("internet: %zu hosts, %zu domains, %zu DNS records\n",
              internet.population().hosts().size(),
              internet.population().domains().size(), records);

  // 2. Stateless discovery: the ZMap QUIC module forces a Version
  //    Negotiation with a padded Initial in a reserved version.
  scanner::ZmapQuicScanner zmap(internet.network(), {});
  auto hits = zmap.scan(internet.zmap_candidates_v4());
  std::printf("zmap: %zu probes -> %zu QUIC-capable addresses\n",
              static_cast<size_t>(zmap.stats().probes_sent), hits.size());

  // 3. Pick a Cloudflare-hosted domain as a stateful target.
  const auto& pop = internet.population();
  const internet::DomainInfo* domain = nullptr;
  const internet::HostProfile* host = nullptr;
  for (const auto& d : pop.domains()) {
    if (d.v4_hosts.empty()) continue;
    const auto& h = pop.hosts()[d.v4_hosts[0]];
    if (h.group == "cloudflare") {
      domain = &d;
      host = &h;
      break;
    }
  }
  if (!domain) {
    std::printf("no target found\n");
    return 1;
  }

  // 4. A full QUIC handshake with TLS 1.3, transport-parameter and HTTP
  //    extraction -- what QScanner does 26 million times in the paper.
  scanner::QScanner qscanner(internet.network(), {});
  auto result = qscanner.scan_one(
      {host->address, domain->name, host->advertised_versions});

  std::printf("\nscan of %s (SNI %s):\n", host->address.to_string().c_str(),
              domain->name.c_str());
  std::printf("  outcome:        %s\n",
              scanner::to_string(result.outcome).c_str());
  std::printf("  version:        %s\n",
              quic::version_name(result.report.negotiated_version).c_str());
  std::printf("  cipher:         %s\n",
              tls::cipher_suite_name(result.report.tls.cipher_suite).c_str());
  std::printf("  alpn:           %s\n",
              result.report.tls.selected_alpn.value_or("-").c_str());
  if (!result.report.tls.certificate_chain.empty()) {
    const auto& cert = result.report.tls.certificate_chain[0];
    std::printf("  certificate:    CN=%s (issuer %s)\n",
                cert.subject_cn.c_str(), cert.issuer_cn.c_str());
  }
  const auto& tp = result.report.server_transport_params;
  std::printf("  initial_max_data:          %llu\n",
              static_cast<unsigned long long>(tp.initial_max_data.value_or(0)));
  std::printf("  initial_max_stream_data:   %llu\n",
              static_cast<unsigned long long>(
                  tp.initial_max_stream_data_bidi_local.value_or(0)));
  std::printf("  max_udp_payload_size:      %llu\n",
              static_cast<unsigned long long>(
                  tp.effective_max_udp_payload_size()));
  std::printf("  HTTP Server header:        %s\n",
              result.server_header.value_or("-").c_str());
  return result.outcome == scanner::QscanOutcome::kSuccess ? 0 : 1;
}
