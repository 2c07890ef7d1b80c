#include "scanner/dns_scan.h"

namespace scanner {

DnsScanner::DnsScanner(const dns::ZoneStore& zones,
                       telemetry::MetricsRegistry* metrics,
                       telemetry::Tracer tracer)
    : zones_(zones), tracer_(tracer) {
  metric_domains_ = telemetry::maybe_counter(metrics, "dns.domains_resolved");
  metric_queries_ = telemetry::maybe_counter(metrics, "dns.queries_sent");
  metric_https_rr_ = telemetry::maybe_counter(metrics, "dns.with_https_rr");
  metric_a_ = telemetry::maybe_counter(metrics, "dns.with_a");
  metric_aaaa_ = telemetry::maybe_counter(metrics, "dns.with_aaaa");
  // Registered so every DNS campaign's metrics keep the key; it stays 0.
  telemetry::maybe_counter(metrics, "dns.requeries");
}

DnsListScan DnsScanner::scan_list(const std::string& list_name,
                                  std::span<const std::string> domains) {
  DnsListScan scan;
  scan.list = list_name;
  dns::BulkResolver resolver(zones_);
  for (const auto& domain : domains) {
    if (tracer_.active())
      tracer_.emit(telemetry::EventType::kPacketSent,
                   {{"packet_type", "dns_query"},
                    {"domain", domain},
                    {"qtypes", "A AAAA HTTPS"}});
    auto record = resolver.resolve_one(domain);
    ++scan.domains_resolved;
    telemetry::add(metric_domains_);
    if (!record.a.empty()) {
      ++scan.with_a;
      telemetry::add(metric_a_);
    }
    if (!record.aaaa.empty()) {
      ++scan.with_aaaa;
      telemetry::add(metric_aaaa_);
    }
    if (record.has_https_rr()) {
      ++scan.with_https_rr;
      telemetry::add(metric_https_rr_);
    }
    if (tracer_.active())
      tracer_.emit(telemetry::EventType::kPacketReceived,
                   {{"packet_type", "dns_response"},
                    {"domain", domain},
                    {"a", record.a.size()},
                    {"aaaa", record.aaaa.size()},
                    {"https_rr", record.has_https_rr()}});
    if (!record.a.empty() || !record.aaaa.empty() || record.has_https_rr())
      scan.records.push_back(std::move(record));
  }
  queries_sent_ += resolver.queries_sent();
  telemetry::add(metric_queries_, resolver.queries_sent());
  return scan;
}

}  // namespace scanner
