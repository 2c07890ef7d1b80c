// Streaming campaign report pipeline: turns raw scanner output into the
// paper's Table 1-6 / Figure 3-9 artifacts without ever materializing a
// row set. One ReportAccumulator lives in each shard world and consumes
// results from the same hook the CSV writer uses; accumulators fold
// through merge_from -- associative, commutative, with the
// default-constructed accumulator as identity, exactly like
// telemetry::MetricsRegistry -- so the merged report is a pure function
// of the campaign, byte-identical across --jobs 1/2/4/8 and identical
// to an offline replay of the merged CSV (tools/qreport_cli).
//
// Every piece of accumulated state is an abelian-monoid structure
// (integer-valued maps and string sets under pointwise sum / union);
// that is what makes the merge contract hold by construction. The
// renderers derive all shares, rankings and CDFs from those integers at
// output time, so no floating-point state ever crosses a shard
// boundary.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "dns/resolver.h"
#include "internet/as_registry.h"
#include "quic/version.h"
#include "scanner/qscanner.h"
#include "telemetry/metrics.h"

namespace report {

/// Everything one stateful-scan CSV row carries, unescaped -- the
/// single feature set both report front ends consume. The streaming
/// path builds it from a scanner::QscanResult, the offline path parses
/// it back from the CSV; the two construct identical values, which is
/// what makes the in-engine report and the qreport_cli replay
/// byte-identical.
struct QscanRowFeatures {
  std::string address;
  std::string sni;
  std::string outcome;  // scanner::to_string(QscanOutcome)
  std::string version;  // negotiated; empty unless Success
  std::string alpn;
  std::string cert_cn;
  int tp_config = -1;  // internet::tp_catalog() id, -1 = not in catalog
  uint64_t initial_max_data = 0;
  uint64_t max_udp_payload = 0;
  std::string server;

  bool success() const { return outcome == "Success"; }
  bool operator==(const QscanRowFeatures&) const = default;
};

/// The qscanner CSV header these features serialize under.
inline constexpr char kQscanCsvHeader[] =
    "saddr,sni,outcome,version,alpn,cert_cn,tp_config,initial_max_data,"
    "max_udp_payload,server";

QscanRowFeatures features_of(const scanner::QscanResult& result);

/// RFC 4180 row (escaped, no trailing newline) -- the CSV writer.
std::string to_csv_row(const QscanRowFeatures& features);

/// Inverse of to_csv_row over already-split fields; nullopt on a field
/// count mismatch or non-numeric numeric column.
std::optional<QscanRowFeatures> features_from_csv(
    const std::vector<std::string>& fields);

/// In-shard streaming aggregator; see the file comment for the merge
/// contract. All add_* paths also bump `report.*` telemetry counters
/// when a registry is attached (merge_from never does -- counters are
/// per-shard observations, the engine folds the registries itself).
class ReportAccumulator {
 public:
  ReportAccumulator() = default;
  explicit ReportAccumulator(std::string source,
                             telemetry::MetricsRegistry* metrics = nullptr);

  /// Late registry hookup for accumulators built before their shard
  /// world exists (the CLIs construct per-shard slots up front and
  /// attach env.metrics inside the shard body).
  void attach_metrics(telemetry::MetricsRegistry* metrics);

  /// One stateful-scan row, attributed to its AS.
  void add_row(const QscanRowFeatures& row, uint32_t asn);

  /// One ZMap responder: announced version set (Figures 5/6 and the
  /// version-support matrix).
  void add_zmap_hit(const std::string& address,
                    const std::vector<quic::Version>& versions, uint32_t asn);

  /// One bulk-DNS record of an input list (Figure 3 and the Table 1/2
  /// DNS-join columns).
  void add_dns_record(const std::string& list, const dns::BulkRecord& record);

  /// Associative + commutative fold; a default-constructed accumulator
  /// is the identity.
  void merge_from(const ReportAccumulator& other);

  // --- read-side accessors (renderers, examples, tests) ---
  uint64_t rows() const { return rows_; }
  uint64_t successes() const;
  const std::map<std::string, uint64_t>& outcomes() const { return outcomes_; }
  const std::map<std::string, uint64_t>& negotiated_versions() const {
    return negotiated_versions_;
  }
  /// Addresses announcing each version / version class ("ietf-01",
  /// "draft-29", ..., plus the class rows "any-ietf", "any-gquic",
  /// "any-mvfst"): the version-support matrix.
  const std::map<std::string, uint64_t>& version_support() const {
    return version_support_;
  }
  const std::map<std::string, uint64_t>& version_sets() const {
    return version_sets_;
  }
  const std::map<std::string, uint64_t>& alpn() const { return alpn_; }
  const std::map<std::string, uint64_t>& alpn_sets() const {
    return alpn_sets_;
  }
  const std::map<std::string, uint64_t>& source_rows() const {
    return source_rows_;
  }
  const std::map<std::string, uint64_t>& source_success() const {
    return source_success_;
  }
  const std::map<uint64_t, uint64_t>& initial_max_data() const {
    return initial_max_data_;
  }
  const std::map<uint64_t, uint64_t>& udp_payloads() const {
    return udp_payloads_;
  }
  const std::map<std::string, uint64_t>& fingerprints() const {
    return fingerprints_;
  }
  const std::map<int, uint64_t>& tp_configs() const { return tp_configs_; }
  const std::map<uint32_t, uint64_t>& as_rows() const { return as_rows_; }
  const std::map<uint32_t, uint64_t>& as_success() const {
    return as_success_;
  }
  size_t distinct_addresses() const { return addresses_.size(); }

  struct DnsListStats {
    uint64_t resolved = 0;
    uint64_t with_a = 0;
    uint64_t with_aaaa = 0;
    uint64_t with_https_rr = 0;
  };
  const std::map<std::string, DnsListStats>& dns_lists() const {
    return dns_lists_;
  }

 private:
  friend struct ReportRenderer;

  void resolve_counters();

  std::string source_ = "qscanner";
  telemetry::MetricsRegistry* metrics_ = nullptr;
  telemetry::Counter* metric_rows_ = nullptr;
  telemetry::Counter* metric_zmap_hits_ = nullptr;
  telemetry::Counter* metric_dns_records_ = nullptr;
  telemetry::Counter* metric_unknown_fp_ = nullptr;

  uint64_t rows_ = 0;
  std::map<std::string, uint64_t> source_rows_;     // per-source volume
  std::map<std::string, uint64_t> source_success_;  // per-source successes
  std::map<std::string, uint64_t> outcomes_;
  std::map<std::string, uint64_t> negotiated_versions_;
  std::map<std::string, uint64_t> version_support_;
  std::map<std::string, uint64_t> version_sets_;
  std::map<std::string, uint64_t> alpn_;
  std::map<std::string, uint64_t> alpn_sets_;  // HTTPS-RR ALPN sets
  std::map<std::string, uint64_t> fingerprints_;
  std::map<int, uint64_t> tp_configs_;
  std::map<uint64_t, uint64_t> initial_max_data_;
  std::map<uint64_t, uint64_t> udp_payloads_;
  // server value -> library -> successes (Table 6: consistency of the
  // HTTP Server header with the TP fingerprint).
  std::map<std::string, std::map<std::string, uint64_t>> server_library_;
  std::map<uint32_t, uint64_t> as_rows_;
  std::map<uint32_t, uint64_t> as_success_;
  std::set<std::string> addresses_;
  std::set<std::string> success_addresses_;
  std::map<std::string, DnsListStats> dns_lists_;
  // domain -> resolved addresses (the DNS join, stored as sets so the
  // merge stays commutative).
  std::map<std::string, std::set<std::string>> domain_addrs_;
};

struct RenderOptions {
  /// AS name / prefix attribution source; when null the renderers use a
  /// process-wide internet::AsRegistry::standard(240) (the default
  /// synthetic population's registry).
  const internet::AsRegistry* as_registry = nullptr;
};

/// Deterministic JSON artifact (fixed section order, integer counters,
/// fixed-precision shares).
void write_report_json(std::ostream& out, const ReportAccumulator& acc,
                       const RenderOptions& options = {});

/// Rendered markdown tables (reuses analysis::Table).
void write_report_markdown(std::ostream& out, const ReportAccumulator& acc,
                           const RenderOptions& options = {});

/// Writes DIR/report.json and DIR/report.md, creating DIR. Throws
/// std::runtime_error when the directory or files cannot be created.
void write_report_dir(const std::string& dir, const ReportAccumulator& acc,
                      const RenderOptions& options = {});

/// Weekly-diff mode: population drift between two report JSON documents
/// (the way the paper tracks calendar weeks 5-18), rendered as markdown.
/// Every integer leaf under the tabular sections is compared; rows with
/// no change are dropped unless `include_unchanged`.
std::string render_report_diff(const std::string& baseline_json,
                               const std::string& current_json,
                               bool include_unchanged = false);

}  // namespace report
