// DNS scanning pipeline (section 3.2): MassDNS-style bulk resolution of
// the input lists for A, AAAA and HTTPS records, over wire-format
// queries that the week's population answers as its authoritative zone
// (dns::Zone). The HTTPS-RR pass is the paper's lightweight
// QUIC-discovery channel; A/AAAA resolutions feed the SNI joins of the
// other scanners.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "dns/resolver.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace scanner {

struct DnsListScan {
  std::string list;
  size_t domains_resolved = 0;
  size_t with_https_rr = 0;
  size_t with_a = 0;
  size_t with_aaaa = 0;
  /// Records that carried any useful data (QUIC-relevant subset; pure
  /// NXDOMAIN fillers are counted but not stored).
  std::vector<dns::BulkRecord> records;

  double https_rr_rate() const {
    return domains_resolved ? static_cast<double>(with_https_rr) /
                                  static_cast<double>(domains_resolved)
                            : 0.0;
  }
};

class DnsScanner {
 public:
  /// Telemetry is optional: a null registry / inactive tracer reduces
  /// every hook to a single pointer check. Every lookup is answered by
  /// the zone (the week's snapshot), deterministically and without
  /// loss, so an empty answer is final: nothing is re-queried.
  explicit DnsScanner(const dns::Zone& zones,
                      telemetry::MetricsRegistry* metrics = nullptr,
                      telemetry::Tracer tracer = {});

  DnsListScan scan_list(const std::string& list_name,
                        std::span<const std::string> domains);

  uint64_t queries_sent() const { return queries_sent_; }

 private:
  const dns::Zone& zones_;
  uint64_t queries_sent_ = 0;
  telemetry::Tracer tracer_;
  telemetry::Counter* metric_domains_ = nullptr;
  telemetry::Counter* metric_queries_ = nullptr;
  telemetry::Counter* metric_https_rr_ = nullptr;
  telemetry::Counter* metric_a_ = nullptr;
  telemetry::Counter* metric_aaaa_ = nullptr;
};

}  // namespace scanner
