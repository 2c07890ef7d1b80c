#include "report/report.h"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "analysis/stats.h"
#include "analysis/table.h"
#include "internet/population.h"
#include "internet/tp_catalog.h"
#include "netsim/address.h"
#include "report/csv.h"
#include "report/fingerprint.h"
#include "report/json.h"

namespace report {

namespace {

// ranked_with_other threshold for the figure series (the paper folds
// below 1 %).
constexpr double kOtherThreshold = 0.01;
// Rows per ranked table (Table 2/6 style top-N).
constexpr size_t kTopN = 10;

std::string u64(uint64_t v) { return std::to_string(v); }

/// Fixed-precision share (0..100 with 2 decimals) so the JSON is
/// byte-reproducible: both operands are exact integers and the format
/// is pinned, so the same counts always print the same bytes.
std::string pct_str(uint64_t part, uint64_t whole) {
  char buf[32];
  double share =
      whole ? 100.0 * static_cast<double>(part) / static_cast<double>(whole)
            : 0.0;
  std::snprintf(buf, sizeof buf, "%.2f", share);
  return buf;
}

const internet::AsRegistry& registry_or_default(
    const RenderOptions& options) {
  if (options.as_registry) return *options.as_registry;
  static const internet::AsRegistry standard =
      internet::campaign_as_registry(240);
  return standard;
}

}  // namespace

QscanRowFeatures features_of(const scanner::QscanResult& result) {
  const auto& tp = result.report.server_transport_params;
  QscanRowFeatures f;
  f.address = result.target.address.to_string();
  f.sni = result.target.sni.value_or("");
  f.outcome = scanner::to_string(result.outcome);
  if (result.outcome == scanner::QscanOutcome::kSuccess)
    f.version = quic::version_name(result.report.negotiated_version);
  f.alpn = result.report.tls.selected_alpn.value_or("");
  f.cert_cn = result.report.tls.certificate_chain.empty()
                  ? ""
                  : result.report.tls.certificate_chain[0].subject_cn;
  f.tp_config = internet::tp_config_id_for_key(tp.config_key());
  f.initial_max_data = tp.initial_max_data.value_or(0);
  f.max_udp_payload = tp.effective_max_udp_payload_size();
  f.server = result.server_header.value_or("");
  return f;
}

std::string to_csv_row(const QscanRowFeatures& f) {
  return csv_join({f.address, f.sni, f.outcome, f.version, f.alpn, f.cert_cn,
                   std::to_string(f.tp_config), u64(f.initial_max_data),
                   u64(f.max_udp_payload), f.server});
}

std::optional<QscanRowFeatures> features_from_csv(
    const std::vector<std::string>& fields) {
  if (fields.size() != 10) return std::nullopt;
  auto parse_u64 = [](const std::string& s, uint64_t& out) {
    if (s.empty()) return false;
    char* end = nullptr;
    out = std::strtoull(s.c_str(), &end, 10);
    return end && *end == '\0';
  };
  QscanRowFeatures f;
  f.address = fields[0];
  f.sni = fields[1];
  f.outcome = fields[2];
  f.version = fields[3];
  f.alpn = fields[4];
  f.cert_cn = fields[5];
  char* end = nullptr;
  f.tp_config = static_cast<int>(std::strtol(fields[6].c_str(), &end, 10));
  if (!end || *end != '\0' || fields[6].empty()) return std::nullopt;
  if (!parse_u64(fields[7], f.initial_max_data)) return std::nullopt;
  if (!parse_u64(fields[8], f.max_udp_payload)) return std::nullopt;
  f.server = fields[9];
  return f;
}

ReportAccumulator::ReportAccumulator(std::string source,
                                     telemetry::MetricsRegistry* metrics)
    : source_(std::move(source)) {
  attach_metrics(metrics);
}

void ReportAccumulator::attach_metrics(telemetry::MetricsRegistry* metrics) {
  metrics_ = metrics;
  resolve_counters();
}

void ReportAccumulator::resolve_counters() {
  metric_rows_ = telemetry::maybe_counter(metrics_, "report.rows");
  metric_zmap_hits_ = telemetry::maybe_counter(metrics_, "report.zmap_hits");
  metric_dns_records_ =
      telemetry::maybe_counter(metrics_, "report.dns_records");
  metric_unknown_fp_ =
      telemetry::maybe_counter(metrics_, "report.fingerprint_unknown");
}

void ReportAccumulator::add_row(const QscanRowFeatures& row, uint32_t asn) {
  telemetry::add(metric_rows_);
  ++rows_;
  ++source_rows_[source_];
  ++outcomes_[row.outcome];
  ++as_rows_[asn];
  addresses_.insert(row.address);
  if (!row.success()) return;

  ++source_success_[source_];
  ++as_success_[asn];
  success_addresses_.insert(row.address);
  ++negotiated_versions_[row.version];
  if (!row.alpn.empty()) ++alpn_[row.alpn];
  Fingerprint fp = fingerprint_of_config(row.tp_config);
  ++fingerprints_[fp.library];
  if (!fp.known()) telemetry::add(metric_unknown_fp_);
  ++tp_configs_[row.tp_config];
  ++initial_max_data_[row.initial_max_data];
  ++udp_payloads_[row.max_udp_payload];
  ++server_library_[row.server.empty() ? "(none)" : row.server][fp.library];
}

void ReportAccumulator::add_zmap_hit(const std::string& address,
                                     const std::vector<quic::Version>& versions,
                                     uint32_t asn) {
  telemetry::add(metric_zmap_hits_);
  ++rows_;
  ++source_rows_[source_];
  ++source_success_[source_];  // a responder is a discovery success
  ++as_rows_[asn];
  ++as_success_[asn];
  addresses_.insert(address);
  success_addresses_.insert(address);
  ++version_sets_[quic::version_set_name(versions)];
  bool any_ietf = false, any_google = false, any_mvfst = false;
  for (quic::Version v : versions) {
    ++version_support_[quic::version_name(v)];
    any_ietf |= quic::is_ietf(v);
    any_google |= quic::is_google(v);
    any_mvfst |= quic::is_mvfst(v);
  }
  if (any_ietf) ++version_support_["any-ietf"];
  if (any_google) ++version_support_["any-gquic"];
  if (any_mvfst) ++version_support_["any-mvfst"];
}

void ReportAccumulator::add_dns_record(const std::string& list,
                                       const dns::BulkRecord& record) {
  telemetry::add(metric_dns_records_);
  DnsListStats& stats = dns_lists_[list];
  ++stats.resolved;
  if (!record.a.empty()) ++stats.with_a;
  if (!record.aaaa.empty()) ++stats.with_aaaa;
  if (record.has_https_rr()) ++stats.with_https_rr;
  auto& addrs = domain_addrs_[record.domain];
  for (const auto& a : record.a) addrs.insert(a.to_string());
  for (const auto& a : record.aaaa) addrs.insert(a.to_string());
  for (const auto& svcb : record.https) {
    std::string set_key;
    for (const auto& token : svcb.alpn) {
      if (!set_key.empty()) set_key += " ";
      set_key += token;
    }
    if (!set_key.empty()) ++alpn_sets_[set_key];
    for (const auto& a : svcb.ipv4_hints) addrs.insert(a.to_string());
    for (const auto& a : svcb.ipv6_hints) addrs.insert(a.to_string());
  }
}

void ReportAccumulator::merge_from(const ReportAccumulator& other) {
  auto merge_counts = [](auto& into, const auto& from) {
    for (const auto& [key, count] : from) into[key] += count;
  };
  rows_ += other.rows_;
  merge_counts(source_rows_, other.source_rows_);
  merge_counts(source_success_, other.source_success_);
  merge_counts(outcomes_, other.outcomes_);
  merge_counts(negotiated_versions_, other.negotiated_versions_);
  merge_counts(version_support_, other.version_support_);
  merge_counts(version_sets_, other.version_sets_);
  merge_counts(alpn_, other.alpn_);
  merge_counts(alpn_sets_, other.alpn_sets_);
  merge_counts(fingerprints_, other.fingerprints_);
  merge_counts(tp_configs_, other.tp_configs_);
  merge_counts(initial_max_data_, other.initial_max_data_);
  merge_counts(udp_payloads_, other.udp_payloads_);
  for (const auto& [server, libs] : other.server_library_)
    merge_counts(server_library_[server], libs);
  merge_counts(as_rows_, other.as_rows_);
  merge_counts(as_success_, other.as_success_);
  addresses_.insert(other.addresses_.begin(), other.addresses_.end());
  success_addresses_.insert(other.success_addresses_.begin(),
                            other.success_addresses_.end());
  for (const auto& [list, stats] : other.dns_lists_) {
    DnsListStats& into = dns_lists_[list];
    into.resolved += stats.resolved;
    into.with_a += stats.with_a;
    into.with_aaaa += stats.with_aaaa;
    into.with_https_rr += stats.with_https_rr;
  }
  for (const auto& [domain, addrs] : other.domain_addrs_)
    domain_addrs_[domain].insert(addrs.begin(), addrs.end());
}

uint64_t ReportAccumulator::successes() const {
  uint64_t total = 0;
  for (const auto& [source, count] : source_success_) total += count;
  return total;
}

// Renderer with access to the accumulator's raw state; everything
// derived (rankings, shares, CDFs, joins) is computed here, at output
// time, from the merged integers.
struct ReportRenderer {
  const ReportAccumulator& acc;
  const internet::AsRegistry& registry;

  explicit ReportRenderer(const ReportAccumulator& acc_in,
                          const RenderOptions& options)
      : acc(acc_in), registry(registry_or_default(options)) {}

  analysis::AsDistribution as_distribution(
      const std::map<uint32_t, uint64_t>& counts) const {
    analysis::AsDistribution dist(registry);
    for (const auto& [asn, count] : counts) dist.add_asn(asn, count);
    return dist;
  }

  /// The DNS join, rebuilt from the merged (domain -> addresses) sets
  /// through analysis::DnsJoin -- the Table 1/2 "joined domains"
  /// columns.
  analysis::DnsJoin dns_join() const {
    analysis::DnsJoin join;
    for (const auto& [domain, addrs] : acc.domain_addrs_) {
      dns::BulkRecord record;
      record.domain = domain;
      for (const auto& text : addrs)
        if (auto addr = netsim::IpAddress::parse(text))
          (addr->is_v6() ? record.aaaa : record.a).push_back(*addr);
      join.add(record);
    }
    return join;
  }

  std::vector<netsim::IpAddress> success_addresses() const {
    std::vector<netsim::IpAddress> out;
    for (const auto& text : acc.success_addresses_)
      if (auto addr = netsim::IpAddress::parse(text)) out.push_back(*addr);
    return out;
  }

  analysis::SetCounter counter_of(
      const std::map<std::string, uint64_t>& counts) const {
    analysis::SetCounter counter;
    for (const auto& [key, count] : counts) counter.add(key, count);
    return counter;
  }

  /// Table 6 rows: top server values with their dominant library
  /// fingerprint (count of rows agreeing with the dominant library
  /// shows header<->TP consistency).
  struct ServerRow {
    std::string server;
    uint64_t count = 0;
    std::string library;
    uint64_t library_count = 0;
  };
  std::vector<ServerRow> server_rows() const {
    std::vector<ServerRow> rows;
    for (const auto& [server, libs] : acc.server_library_) {
      ServerRow row;
      row.server = server;
      for (const auto& [lib, count] : libs) {
        row.count += count;
        if (count > row.library_count ||
            (count == row.library_count && lib < row.library)) {
          row.library = lib;
          row.library_count = count;
        }
      }
      rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end(),
              [](const ServerRow& a, const ServerRow& b) {
                if (a.count != b.count) return a.count > b.count;
                return a.server < b.server;
              });
    if (rows.size() > kTopN) rows.resize(kTopN);
    return rows;
  }
};

namespace {

void write_string_counts(std::ostream& out,
                         const std::map<std::string, uint64_t>& counts) {
  out << "{";
  bool first = true;
  for (const auto& [key, count] : counts) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json::escape(key) << "\":" << count;
  }
  out << "}";
}

void write_cdf(std::ostream& out, const analysis::AsDistribution& dist) {
  out << "[";
  auto cdf = dist.rank_cdf();
  for (size_t i = 0; i < cdf.size(); ++i) {
    if (i) out << ",";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6f", cdf[i]);
    out << buf;
  }
  out << "]";
}

}  // namespace

void write_report_json(std::ostream& out, const ReportAccumulator& acc,
                       const RenderOptions& options) {
  ReportRenderer r(acc, options);
  auto join = r.dns_join();
  auto success_addrs = r.success_addresses();
  size_t joined_addresses = 0;
  for (const auto& addr : success_addrs)
    if (join.domain_count(addr) > 0) ++joined_addresses;

  out << "{\n";
  out << "  \"schema\": \"quic-campaign-report\",\n";

  // Table 1: discovery volume -- rows scanned, distinct addresses and
  // ASes, and the DNS-join coverage.
  auto rows_dist = r.as_distribution(acc.as_rows());
  out << "  \"table1_discovery\": {\"rows\": " << acc.rows()
      << ", \"addresses\": " << acc.distinct_addresses()
      << ", \"distinct_as\": " << rows_dist.distinct_as()
      << ", \"joined_addresses\": " << joined_addresses
      << ", \"joined_domains\": " << join.distinct_domains(success_addrs)
      << ", \"dns_pairs\": " << join.total_pairs() << "},\n";

  // Table 2: top providers (ASes) by volume, with success counts.
  out << "  \"table2_top_as\": [";
  {
    auto ranked = rows_dist.ranked();
    size_t n = std::min(ranked.size(), kTopN);
    for (size_t i = 0; i < n; ++i) {
      if (i) out << ",";
      uint64_t success = 0;
      if (auto it = acc.as_success().find(ranked[i].asn);
          it != acc.as_success().end())
        success = it->second;
      out << "\n    {\"asn\": " << ranked[i].asn << ", \"name\": \""
          << json::escape(ranked[i].name) << "\", \"rows\": "
          << ranked[i].count << ", \"success\": " << success << "}";
    }
    if (n) out << "\n  ";
  }
  out << "],\n";

  // Table 3: outcome breakdown (includes the resilience layer's
  // Degraded / Rate Limited classes).
  out << "  \"table3_outcomes\": ";
  write_string_counts(out, acc.outcomes());
  out << ",\n";

  // Table 4: per-source volume and success share.
  out << "  \"table4_sources\": {";
  {
    bool first = true;
    for (const auto& [source, rows] : acc.source_rows()) {
      if (!first) out << ",";
      first = false;
      uint64_t success = 0;
      if (auto it = acc.source_success().find(source);
          it != acc.source_success().end())
        success = it->second;
      out << "\"" << json::escape(source) << "\": {\"rows\": " << rows
          << ", \"success\": " << success << ", \"success_pct\": \""
          << pct_str(success, rows) << "\"}";
    }
  }
  out << "},\n";

  // Table 5: library fingerprints from transport parameters.
  out << "  \"table5_fingerprints\": ";
  write_string_counts(out, acc.fingerprints());
  out << ",\n";

  // Table 6: top HTTP Server values with dominant fingerprint.
  out << "  \"table6_server_values\": [";
  {
    auto rows = r.server_rows();
    for (size_t i = 0; i < rows.size(); ++i) {
      if (i) out << ",";
      out << "\n    {\"server\": \"" << json::escape(rows[i].server)
          << "\", \"rows\": " << rows[i].count << ", \"library\": \""
          << json::escape(rows[i].library)
          << "\", \"library_rows\": " << rows[i].library_count << "}";
    }
    if (!rows.empty()) out << "\n  ";
  }
  out << "],\n";

  // Figure 3: HTTPS RR adoption per input list.
  out << "  \"fig3_https_rr\": {";
  {
    bool first = true;
    for (const auto& [list, stats] : acc.dns_lists()) {
      if (!first) out << ",";
      first = false;
      out << "\"" << json::escape(list) << "\": {\"resolved\": "
          << stats.resolved << ", \"with_a\": " << stats.with_a
          << ", \"with_aaaa\": " << stats.with_aaaa
          << ", \"with_https_rr\": " << stats.with_https_rr
          << ", \"https_rr_pct\": \""
          << pct_str(stats.with_https_rr, stats.resolved) << "\"}";
    }
  }
  out << "},\n";

  // Figures 4/8: per-AS rank CDFs over all rows / successful rows.
  out << "  \"fig4_as_cdf\": ";
  write_cdf(out, rows_dist);
  out << ",\n";
  out << "  \"fig8_success_as_cdf\": ";
  write_cdf(out, r.as_distribution(acc.as_success()));
  out << ",\n";

  // Figures 5/6: version sets and the version-support matrix (from
  // forced version negotiation), plus negotiated versions (stateful).
  out << "  \"fig5_version_sets\": ";
  write_string_counts(out, acc.version_sets());
  out << ",\n";
  out << "  \"fig6_versions\": {\"announced\": ";
  write_string_counts(out, acc.version_support());
  out << ", \"negotiated\": ";
  write_string_counts(out, acc.negotiated_versions());
  out << "},\n";

  // Figure 7: ALPN -- selected tokens (stateful scan) and advertised
  // sets (HTTPS RR).
  out << "  \"fig7_alpn\": {\"selected\": ";
  write_string_counts(out, acc.alpn());
  out << ", \"sets\": ";
  write_string_counts(out, acc.alpn_sets());
  out << "},\n";

  // Figure 9: transport-parameter configurations plus the marginal
  // value distributions the paper discusses in section 5.2.
  out << "  \"fig9_tp_configs\": {";
  {
    bool first = true;
    for (const auto& [id, count] : acc.tp_configs()) {
      if (!first) out << ",";
      first = false;
      out << "\"" << id << "\":" << count;
    }
  }
  out << "},\n";
  out << "  \"tp_values\": {\"initial_max_data\": {";
  {
    bool first = true;
    for (const auto& [value, count] : acc.initial_max_data()) {
      if (!first) out << ",";
      first = false;
      out << "\"" << value << "\":" << count;
    }
  }
  out << "}, \"max_udp_payload\": {";
  {
    bool first = true;
    for (const auto& [value, count] : acc.udp_payloads()) {
      if (!first) out << ",";
      first = false;
      out << "\"" << value << "\":" << count;
    }
  }
  out << "}}\n";
  out << "}\n";
}

void write_report_markdown(std::ostream& out, const ReportAccumulator& acc,
                           const RenderOptions& options) {
  ReportRenderer r(acc, options);
  auto join = r.dns_join();
  auto success_addrs = r.success_addresses();

  out << "# Campaign report\n\n";
  out << acc.rows() << " rows, " << acc.distinct_addresses()
      << " distinct addresses, " << acc.successes() << " successes.\n";

  auto rows_dist = r.as_distribution(acc.as_rows());

  {
    out << "\n## Table 1 — discovery\n\n";
    analysis::Table table({"Rows", "Addresses", "ASes", "Joined addrs",
                           "Joined domains"});
    size_t joined_addresses = 0;
    for (const auto& addr : success_addrs)
      if (join.domain_count(addr) > 0) ++joined_addresses;
    table.row({analysis::num(acc.rows()),
               analysis::num(acc.distinct_addresses()),
               analysis::num(rows_dist.distinct_as()),
               analysis::num(joined_addresses),
               analysis::num(join.distinct_domains(success_addrs))});
    out << table.markdown();
  }

  {
    out << "\n## Table 2 — top providers\n\n";
    analysis::Table table({"AS", "Name", "Rows", "Success"});
    auto ranked = rows_dist.ranked();
    for (size_t i = 0; i < std::min(ranked.size(), kTopN); ++i) {
      uint64_t success = 0;
      if (auto it = acc.as_success().find(ranked[i].asn);
          it != acc.as_success().end())
        success = it->second;
      table.row({std::to_string(ranked[i].asn), ranked[i].name,
                 analysis::num(ranked[i].count), analysis::num(success)});
    }
    out << table.markdown();
  }

  {
    out << "\n## Table 3 — outcomes\n\n";
    analysis::Table table({"Outcome", "Count", "Share"});
    for (const auto& [outcome, count] : acc.outcomes())
      table.row({outcome, analysis::num(count),
                 pct_str(count, acc.rows()) + " %"});
    out << table.markdown();
  }

  {
    out << "\n## Table 4 — per-source success\n\n";
    analysis::Table table({"Source", "Rows", "Success", "Share"});
    for (const auto& [source, rows] : acc.source_rows()) {
      uint64_t success = 0;
      if (auto it = acc.source_success().find(source);
          it != acc.source_success().end())
        success = it->second;
      table.row({source, analysis::num(rows), analysis::num(success),
                 pct_str(success, rows) + " %"});
    }
    out << table.markdown();
  }

  if (!acc.fingerprints().empty()) {
    out << "\n## Table 5 — library fingerprints\n\n";
    analysis::Table table({"Library", "Rows", "Share"});
    auto counter = r.counter_of(acc.fingerprints());
    for (const auto& entry : counter.ranked())
      table.row({entry.key, analysis::num(entry.count),
                 pct_str(entry.count, counter.total()) + " %"});
    out << table.markdown();
  }

  {
    auto rows = r.server_rows();
    if (!rows.empty()) {
      out << "\n## Table 6 — top Server values\n\n";
      analysis::Table table({"Server", "Rows", "Library", "Agreeing"});
      for (const auto& row : rows)
        table.row({row.server, analysis::num(row.count), row.library,
                   analysis::num(row.library_count)});
      out << table.markdown();
    }
  }

  if (!acc.dns_lists().empty()) {
    out << "\n## Figure 3 — HTTPS RR adoption\n\n";
    analysis::Table table({"List", "Resolved", "A", "AAAA", "HTTPS RR",
                           "Rate"});
    for (const auto& [list, stats] : acc.dns_lists())
      table.row({list, analysis::num(stats.resolved),
                 analysis::num(stats.with_a), analysis::num(stats.with_aaaa),
                 analysis::num(stats.with_https_rr),
                 pct_str(stats.with_https_rr, stats.resolved) + " %"});
    out << table.markdown();
  }

  {
    out << "\n## Figures 4/8 — AS concentration\n\n";
    auto success_dist = r.as_distribution(acc.as_success());
    analysis::Table table({"Population", "ASes", "Top-3 share",
                           "ASes to 90 %"});
    auto row = [&](const char* name, const analysis::AsDistribution& dist) {
      if (!dist.total()) return;
      table.row({name, analysis::num(dist.distinct_as()),
                 analysis::pct(100.0 * dist.top_share(3)),
                 analysis::num(dist.ases_to_cover(0.9))});
    };
    row("all rows", rows_dist);
    row("successes", success_dist);
    out << table.markdown();
  }

  auto ranked_section = [&](const char* title,
                            const std::map<std::string, uint64_t>& counts) {
    if (counts.empty()) return;
    out << "\n## " << title << "\n\n";
    analysis::Table table({"Key", "Count", "Share"});
    auto counter = r.counter_of(counts);
    for (const auto& entry :
         counter.ranked_with_other(kOtherThreshold))
      table.row({entry.key, analysis::num(entry.count),
                 pct_str(entry.count, counter.total()) + " %"});
    out << table.markdown();
  };
  ranked_section("Figure 5 — version sets", acc.version_sets());
  ranked_section("Figure 6 — version support", acc.version_support());
  ranked_section("Figure 6 — negotiated versions",
                 acc.negotiated_versions());
  ranked_section("Figure 7 — selected ALPN", acc.alpn());
  ranked_section("Figure 7 — advertised ALPN sets", acc.alpn_sets());

  if (!acc.tp_configs().empty()) {
    out << "\n## Figure 9 — transport-parameter configs\n\n";
    analysis::Table table({"Config", "Library", "Rows"});
    // Sort by count descending for the figure's ranked bars.
    std::vector<std::pair<int, uint64_t>> ranked(acc.tp_configs().begin(),
                                                 acc.tp_configs().end());
    std::sort(ranked.begin(), ranked.end(), [](auto& a, auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    for (const auto& [id, count] : ranked)
      table.row({id < 0 ? "unknown" : std::to_string(id),
                 fingerprint_of_config(id).library, analysis::num(count)});
    out << table.markdown();
  }
}

void write_report_dir(const std::string& dir, const ReportAccumulator& acc,
                      const RenderOptions& options) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec)
    throw std::runtime_error("cannot create report dir " + dir + ": " +
                             ec.message());
  auto write_file = [&](const char* name, auto&& renderer) {
    fs::path path = fs::path(dir) / name;
    std::ofstream out(path, std::ios::binary);
    if (!out)
      throw std::runtime_error("cannot write " + path.string());
    renderer(out);
    out.flush();
    if (!out)
      throw std::runtime_error("failed writing " + path.string());
  };
  write_file("report.json", [&](std::ostream& out) {
    write_report_json(out, acc, options);
  });
  write_file("report.md", [&](std::ostream& out) {
    write_report_markdown(out, acc, options);
  });
}

namespace {

/// Flattens every integer leaf below the tabular object sections into
/// "section.key" paths. Arrays (the CDF series and ranked table rows)
/// are skipped: rank order is position-dependent, so diffs over them
/// would report reshuffles as population drift.
void flatten_integers(const json::Value& value, const std::string& prefix,
                      std::map<std::string, int64_t>& out) {
  if (value.kind == json::Value::Kind::kNumber && value.is_integer) {
    out[prefix] = value.integer;
    return;
  }
  if (value.kind != json::Value::Kind::kObject) return;
  for (const auto& [key, child] : value.object)
    flatten_integers(child, prefix.empty() ? key : prefix + "." + key, out);
}

}  // namespace

std::string render_report_diff(const std::string& baseline_json,
                               const std::string& current_json,
                               bool include_unchanged) {
  json::Value baseline = json::parse(baseline_json);
  json::Value current = json::parse(current_json);

  std::map<std::string, int64_t> before, after;
  flatten_integers(baseline, "", before);
  flatten_integers(current, "", after);

  std::set<std::string> keys;
  for (const auto& [key, _] : before) keys.insert(key);
  for (const auto& [key, _] : after) keys.insert(key);

  analysis::Table table({"Metric", "Baseline", "Current", "Delta"});
  size_t changed = 0;
  for (const auto& key : keys) {
    int64_t b = before.count(key) ? before.at(key) : 0;
    int64_t a = after.count(key) ? after.at(key) : 0;
    if (a == b && !include_unchanged) continue;
    if (a != b) ++changed;
    int64_t delta = a - b;
    table.row({key, std::to_string(b), std::to_string(a),
               (delta >= 0 ? "+" : "") + std::to_string(delta)});
  }

  std::ostringstream out;
  out << "# Report drift\n\n"
      << changed << " of " << keys.size() << " tracked metrics changed.\n\n";
  out << table.markdown();
  return out.str();
}

}  // namespace report
