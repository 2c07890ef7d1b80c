// qreport: offline report pipeline -- replays saved campaign CSV
// through the same report::ReportAccumulator the scanner CLIs stream
// into, and emits byte-identical artifacts. This is the workflow the
// paper's weekly tracking used: keep the raw CSV, regenerate every
// table and figure from it, diff against last week's report.
//
//   qreport_cli [--csv FILE]... [--zmap-csv FILE]...
//               [--dns-csv FILE]... [--dns-list NAME]
//               [--out DIR] [--baseline OLD.json] [--diff-all]
//
// --csv replays a qscanner CSV (the 10-column row set qscanner_cli
// prints); --zmap-csv replays a zmap_quic_cli --csv responder list
// (saddr,versions); --dns-csv replays a dns_scan_cli CSV, labelled
// with --dns-list (default "dns"). Flags repeat to pool several
// campaign files into one report. --out writes DIR/report.{json,md};
// --baseline renders the weekly drift between OLD.json and the report
// just built (to stdout; --diff-all includes unchanged metrics).
// AS attribution goes through the same registry as every campaign
// population (internet::campaign_as_registry), so it reproduces the
// in-engine report exactly.
//
// Replay is partition-independent: because the scan CLIs' merged CSV
// is byte-identical across --jobs and --chunk-size values (see
// DESIGN.md "Campaign engine"), replaying it here reproduces the
// streaming report of any of those runs.
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "cli.h"
#include "internet/population.h"
#include "netsim/address.h"
#include "quic/version.h"
#include "report/csv.h"
#include "report/report.h"

namespace {

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

/// Replays one CSV file: checks the header, hands every data row to
/// `consume`. Returns false (with a message) on unreadable input or a
/// header mismatch -- a mismatch means the file is not the kind of CSV
/// this flag replays, and a silently empty report would hide that.
bool replay_csv(const std::string& path, const char* expected_header,
                const std::function<bool(const std::vector<std::string>&)>&
                    consume) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  report::CsvReader reader(in);
  std::vector<std::string> fields;
  if (!reader.next_row(fields)) {
    std::fprintf(stderr, "%s: empty file\n", path.c_str());
    return false;
  }
  if (report::csv_join(fields) != expected_header) {
    std::fprintf(stderr, "%s: unexpected header (want \"%s\")\n",
                 path.c_str(), expected_header);
    return false;
  }
  size_t line = 1;
  while (reader.next_row(fields)) {
    ++line;
    if (!consume(fields)) {
      std::fprintf(stderr, "%s: malformed row %zu\n", path.c_str(), line);
      return false;
    }
  }
  return true;
}

std::vector<std::string> split_space(const std::string& text) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t space = text.find(' ', pos);
    if (space == std::string::npos) space = text.size();
    if (space > pos) out.push_back(text.substr(pos, space - pos));
    pos = space + 1;
  }
  return out;
}

int run(int argc, char** argv) {
  std::vector<std::string> qscan_files, zmap_files, dns_files;
  std::string dns_list = "dns";
  std::string out_dir;
  std::string baseline_file;
  bool diff_all = false;
  cli::FlagTable flags("qreport_cli");
  auto add_file = [&](const char* name, std::vector<std::string>& files) {
    flags.add(name, "FILE",
              [&files](const std::string& path) { files.push_back(path); });
  };
  add_file("--csv", qscan_files);
  add_file("--zmap-csv", zmap_files);
  add_file("--dns-csv", dns_files);
  flags.add("--dns-list", "NAME", dns_list);
  flags.add("--out", "DIR", out_dir);
  flags.add("--baseline", "OLD.json", baseline_file);
  flags.add_switch("--diff-all", [&] { diff_all = true; });
  flags.parse(argc, argv);
  if (qscan_files.empty() && zmap_files.empty() && dns_files.empty())
    throw cli::UsageError(
        "nothing to replay: give --csv, --zmap-csv or --dns-csv",
        flags.usage());

  // The same attribution the campaign population carries: both paths
  // classify addresses through campaign_as_registry, which is what
  // makes the replayed report byte-identical to the streaming one.
  const internet::AsRegistry& registry = internet::campaign_as_registry();

  report::ReportAccumulator qscan_acc("qscanner");
  report::ReportAccumulator zmap_acc("zmap");
  report::ReportAccumulator dns_acc("dns");

  for (const auto& path : qscan_files) {
    bool ok = replay_csv(
        path, report::kQscanCsvHeader,
        [&](const std::vector<std::string>& fields) {
          auto features = report::features_from_csv(fields);
          if (!features) return false;
          auto addr = netsim::IpAddress::parse(features->address);
          if (!addr) return false;
          qscan_acc.add_row(*features, registry.asn_for(*addr));
          return true;
        });
    if (!ok) return 2;
  }
  for (const auto& path : zmap_files) {
    bool ok = replay_csv(
        path, "saddr,versions", [&](const std::vector<std::string>& fields) {
          if (fields.size() != 2) return false;
          auto addr = netsim::IpAddress::parse(fields[0]);
          if (!addr) return false;
          std::vector<quic::Version> versions;
          for (const auto& name : split_space(fields[1])) {
            auto version = quic::version_from_name(name);
            if (!version) return false;
            versions.push_back(*version);
          }
          zmap_acc.add_zmap_hit(addr->to_string(), versions,
                                registry.asn_for(*addr));
          return true;
        });
    if (!ok) return 2;
  }
  for (const auto& path : dns_files) {
    bool ok = replay_csv(
        path, "domain,a,aaaa,https_alpn,ipv4_hints,ipv6_hints",
        [&](const std::vector<std::string>& fields) {
          if (fields.size() != 6) return false;
          dns::BulkRecord record;
          record.domain = fields[0];
          for (const auto& text : split_space(fields[1])) {
            auto addr = netsim::IpAddress::parse(text);
            if (!addr) return false;
            record.a.push_back(*addr);
          }
          for (const auto& text : split_space(fields[2])) {
            auto addr = netsim::IpAddress::parse(text);
            if (!addr) return false;
            record.aaaa.push_back(*addr);
          }
          // The CSV flattens all HTTPS RRs of a domain into one
          // alpn/hints row; replay it as a single merged RR.
          if (!fields[3].empty() || !fields[4].empty() ||
              !fields[5].empty()) {
            dns::SvcbData svcb;
            svcb.alpn = split_space(fields[3]);
            for (const auto& text : split_space(fields[4])) {
              auto addr = netsim::IpAddress::parse(text);
              if (!addr) return false;
              svcb.ipv4_hints.push_back(*addr);
            }
            for (const auto& text : split_space(fields[5])) {
              auto addr = netsim::IpAddress::parse(text);
              if (!addr) return false;
              svcb.ipv6_hints.push_back(*addr);
            }
            record.https.push_back(std::move(svcb));
          }
          dns_acc.add_dns_record(dns_list, record);
          return true;
        });
    if (!ok) return 2;
  }

  report::ReportAccumulator merged;
  merged.merge_from(qscan_acc);
  merged.merge_from(zmap_acc);
  merged.merge_from(dns_acc);

  report::RenderOptions render;
  render.as_registry = &registry;

  if (!out_dir.empty()) report::write_report_dir(out_dir, merged, render);

  if (!baseline_file.empty()) {
    std::string baseline;
    if (!read_file(baseline_file, baseline)) {
      std::fprintf(stderr, "cannot open %s\n", baseline_file.c_str());
      return 2;
    }
    std::ostringstream current;
    report::write_report_json(current, merged, render);
    try {
      std::printf("%s", report::render_report_diff(baseline, current.str(),
                                                   diff_all)
                            .c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot diff reports: %s\n", e.what());
      return 2;
    }
  } else if (out_dir.empty()) {
    // No artifact request at all: print the markdown report.
    std::ostringstream md;
    report::write_report_markdown(md, merged, render);
    std::printf("%s", md.str().c_str());
  }

  std::fprintf(stderr, "# %llu rows across %zu distinct addresses\n",
               static_cast<unsigned long long>(merged.rows()),
               merged.distinct_addresses());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::run_main("qreport_cli", [&] { return run(argc, argv); });
}
