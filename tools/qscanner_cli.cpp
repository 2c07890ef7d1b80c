// qscanner: command-line front end for the stateful scanner, run
// against a synthetic-internet snapshot. Like the released QScanner it
// accepts address or address,SNI targets and emits one CSV row per
// attempt with outcome, version, TLS, transport-parameter and HTTP
// fields.
//
//   qscanner_cli [--all] [--targets FILE] [--no-http] [--breaker]
//                [campaign flags, see below]
//
// FILE format: one target per line, "address" or "address,sni-domain".
// --all (the default without --targets) scans every ZMap-discoverable
// IPv4 address without SNI. --breaker enables the per-AS circuit
// breaker (skip-and-record when a provider keeps timing out).
//
// The campaign flags (tools/cli.h) are shared with zmap_quic_cli and
// dns_scan_cli. --jobs N runs the campaign on N worker threads that
// pull fixed-size chunks (--chunk-size, default ~8 chunks per worker)
// off a shared cursor (see DESIGN.md "Campaign engine"); the merged
// CSV and metrics are identical for every N, and one chunk is
// byte-identical to the historical serial path. --jobs 0 auto-detects
// the machine's hardware concurrency. --qlog writes one JSON-Lines
// trace per attempt into DIR (per-chunk subdirectories when there is
// more than one chunk); --metrics writes the merged counter/histogram
// summary as JSON on exit; --sched-metrics writes the wall-clock
// scheduler telemetry (per-worker busy/steal-wait, chunk durations,
// straggler ratio) to its own file -- it is non-deterministic and
// deliberately kept out of the --metrics JSON.
// --impair overlays a named fault-fabric profile (clean, lossy,
// bursty, hostile, throttled) on every server link; --adversary
// overlays a named misbehaving-endpoint profile (compliant, sloppy,
// broken, malicious) on every server host -- deterministic per-host
// misbehavior plans, classified by the protocol-error taxonomy (see
// DESIGN.md "Adversarial endpoints"); --retries N gives
// each timed-out target up to N extra attempts with deterministic
// backoff. --report streams every row through an in-chunk
// report::ReportAccumulator (same hook as the CSV writer) and writes
// DIR/report.{json,md} from the chunk-order fold -- byte-identical for
// every --jobs N and to an offline qreport_cli replay of the CSV.
// --crypto-backend forces the AES-GCM kernel backend (portable, aesni,
// auto; portable also pins scalar SHA-256) for A/B timing runs; every
// backend produces byte-identical output, so only wall-clock changes
// (see DESIGN.md "Crypto backends").
#include <cstdio>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli.h"
#include "engine/engine.h"
#include "internet/internet.h"
#include "report/report.h"
#include "scanner/qscanner.h"
#include "scanner/zmap.h"

namespace {

// The RFC 4180 escaping (wire-derived fields -- server headers,
// certificate names, SNI -- must not inject CSV columns) lives in
// report::to_csv_row; the CLI row and the report pipeline consume the
// exact same report::QscanRowFeatures.
void print_row(const scanner::QscanResult& result) {
  std::printf("%s\n", report::to_csv_row(report::features_of(result)).c_str());
}

scanner::QscanOptions scan_options(const engine::ShardEnv& env,
                                   bool send_http, int retries,
                                   bool breaker) {
  scanner::QscanOptions options;
  options.send_http_head = send_http;
  options.seed = env.seed;
  options.metrics = env.metrics;
  options.trace_factory = env.trace_factory;
  options.retry.max_attempts = 1 + retries;
  options.breaker = breaker;
  if (breaker) {
    // Attribute each target to its AS via the shared population
    // snapshot (no server host is built for it); unknown addresses
    // land in AS 0.
    const auto* population = &env.internet->population();
    options.asn_of = [population](const netsim::IpAddress& addr) {
      const auto* host = population->host_by_address(addr);
      return host ? host->asn : 0u;
    };
  }
  return options;
}

std::vector<scanner::QscanTarget> read_targets(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<scanner::QscanTarget> targets;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t comma = line.find(',');
    auto addr = netsim::IpAddress::parse(
        comma == std::string::npos ? line : line.substr(0, comma));
    if (!addr) {
      std::fprintf(stderr, "skipping malformed target: %s\n", line.c_str());
      continue;
    }
    scanner::QscanTarget target;
    target.address = *addr;
    if (comma != std::string::npos) target.sni = line.substr(comma + 1);
    targets.push_back(std::move(target));
  }
  return targets;
}

int run(int argc, char** argv) {
  cli::CampaignFlags campaign_flags;
  campaign_flags.seed = 0x5ca9;
  bool scan_all = false;
  bool send_http = true;
  bool breaker = false;
  std::string targets_file;
  cli::FlagTable flags("qscanner_cli");
  flags.add_switch("--all", [&] { scan_all = true; });
  flags.add("--targets", "FILE", targets_file);
  flags.add_switch("--no-http", [&] { send_http = false; });
  flags.add_switch("--breaker", [&] { breaker = true; });
  campaign_flags.add_to(flags);
  flags.parse(argc, argv);
  if (!scan_all && targets_file.empty()) scan_all = true;

  const auto options = campaign_flags.options({.dns_corpus_scale = 0.01});
  engine::Campaign campaign(options);

  // --all: the ZMap candidate space is the campaign's target list, and
  // each chunk sweeps its candidate slice, then runs the stateful
  // scanner over its own hits -- discovery and handshake stay in the
  // same chunk world, exactly like the serial pipeline.
  std::vector<netsim::IpAddress> candidates;
  std::vector<scanner::QscanTarget> targets;
  if (scan_all) {
    netsim::EventLoop planning_loop;
    internet::Internet planning(options.snapshot, planning_loop);
    candidates = planning.zmap_candidates_v4();
  } else {
    targets = read_targets(targets_file);
  }
  const size_t target_count = scan_all ? candidates.size() : targets.size();

  // Per-chunk output slots: each body writes only to its own index;
  // the engine guarantees exclusive slots and a barrier. The report
  // slots are fed from the same results the CSV writer prints, and
  // their chunk-order fold is jobs-invariant.
  const size_t slots = campaign.slot_count(target_count);
  std::vector<std::vector<scanner::QscanResult>> chunk_rows(slots);
  std::vector<size_t> chunk_scanned(slots, 0);
  std::vector<uint64_t> chunk_attempts(slots, 0);
  const bool want_report = !campaign_flags.report_dir.empty();
  engine::ShardFold<report::ReportAccumulator> report_fold(
      slots, [] { return report::ReportAccumulator("qscanner"); });

  campaign.run(target_count, [&](engine::ShardEnv& env) {
    const auto slot = static_cast<size_t>(env.shard_index);
    auto& acc = report_fold.slot(env.shard_index);
    if (want_report) acc.attach_metrics(env.metrics);
    std::vector<scanner::QscanTarget> hits;
    if (scan_all) {
      scanner::ZmapOptions zmap_options;
      zmap_options.seed = env.seed;
      zmap_options.metrics = env.metrics;
      scanner::ZmapQuicScanner zmap(env.internet->network(),
                                    std::move(zmap_options));
      for (const auto& hit : zmap.scan(std::span<const netsim::IpAddress>(
               candidates.data() + env.range.begin, env.range.size())))
        hits.push_back({hit.address, std::nullopt, hit.versions});
    }
    auto chunk_targets =
        scan_all ? std::span<const scanner::QscanTarget>(hits)
                 : std::span<const scanner::QscanTarget>(
                       targets.data() + env.range.begin, env.range.size());

    scanner::QScanner qscanner(
        env.internet->network(),
        scan_options(env, send_http, campaign_flags.retries, breaker));
    const auto& registry = env.internet->population().as_registry();
    for (const auto& target : chunk_targets) {
      if (!qscanner.compatible(target)) continue;
      chunk_rows[slot].push_back(qscanner.scan_one(target));
      if (want_report)
        acc.add_row(report::features_of(chunk_rows[slot].back()),
                    registry.asn_for(target.address));
      ++chunk_scanned[slot];
    }
    chunk_attempts[slot] = qscanner.attempts();
  });

  // Contiguous chunks preserve the target-file order on concat. Under
  // --all each chunk's rows follow ZMap's address-ordered hit list and
  // hits across chunks are disjoint, so the address merge reproduces
  // the serial (globally address-sorted) row order.
  auto rows =
      scan_all
          ? engine::merge_sorted_shards(
                std::move(chunk_rows),
                [](const scanner::QscanResult& a,
                   const scanner::QscanResult& b) {
                  return a.target.address < b.target.address;
                })
          : engine::concat_shards(std::move(chunk_rows));

  std::printf("%s\n", report::kQscanCsvHeader);
  for (const auto& row : rows) print_row(row);
  campaign_flags.write_report(report_fold);

  size_t scanned = 0;
  uint64_t attempts = 0;
  for (size_t s = 0; s < slots; ++s) {
    scanned += chunk_scanned[s];
    attempts += chunk_attempts[s];
  }
  std::fprintf(stderr, "# scanned %zu targets, %llu attempts\n", scanned,
               static_cast<unsigned long long>(attempts));
  campaign_flags.print_summary(campaign);
  for (size_t i = 0; i < scanner::kQscanOutcomeCount; ++i) {
    auto name = scanner::to_string(static_cast<scanner::QscanOutcome>(i));
    const auto* counter =
        campaign.metrics().find_counter("qscan.outcome." + name);
    std::fprintf(stderr, "#   %-22s %llu\n", name.c_str(),
                 static_cast<unsigned long long>(
                     counter ? counter->value() : 0));
  }
  campaign_flags.write_metrics(campaign);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::run_main("qscanner_cli", [&] { return run(argc, argv); });
}
