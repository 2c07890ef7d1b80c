// zmap-quic: command-line front end for the ZMap QUIC module, run
// against a synthetic-internet snapshot. Mirrors the published module's
// ergonomics: sweep, forced version negotiation, CSV output.
//
//   zmap_quic_cli [--no-padding] [--pps N] [--blocklist CIDR[,CIDR...]]
//                 [--ipv6] [--csv] [campaign flags, see below]
//
// The campaign flags (tools/cli.h) are shared with qscanner_cli and
// dns_scan_cli. --jobs N runs the sweep on N worker threads, like the
// real ZMap's sender shards, pulling fixed-size chunks (--chunk-size)
// off a shared cursor; the merged responder list and metrics are
// identical for every N (see DESIGN.md "Campaign engine"). --jobs 0
// auto-detects the machine's hardware concurrency.
// --qlog writes one JSON-Lines trace per chunk (the module is
// stateless, so each chunk's probes and VN responses share one file);
// --metrics dumps the merged counters as JSON on exit; --sched-metrics
// writes the non-deterministic wall-clock scheduler telemetry
// separately.
// --impair overlays a named fault-fabric profile (clean, lossy,
// bursty, hostile, throttled) on every server link; --adversary
// overlays a named misbehaving-endpoint profile (compliant, sloppy,
// broken, malicious) on every server host; --retries N
// re-probes non-responders in up to N extra sweep rounds. --report
// streams every responder through an in-chunk
// report::ReportAccumulator and writes DIR/report.{json,md} from the
// chunk-order fold (jobs-invariant; version sets and the
// version-support matrix, Figures 5/6).
#include <cstdio>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli.h"
#include "engine/engine.h"
#include "internet/internet.h"
#include "report/report.h"
#include "scanner/zmap.h"
#include "telemetry/trace.h"

namespace {

// Adds each prefix of a comma-separated CIDR list to `blocklist`.
void add_prefixes(scanner::Blocklist& blocklist, const std::string& list) {
  size_t pos = 0;
  while (pos <= list.size()) {
    size_t comma = list.find(',', pos);
    std::string cidr = list.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    auto prefix = netsim::Prefix::parse(cidr);
    if (!prefix) throw std::invalid_argument("bad blocklist entry: " + cidr);
    blocklist.add(*prefix);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
}

int run(int argc, char** argv) {
  cli::CampaignFlags campaign_flags;
  campaign_flags.seed = 0x2a9a;
  bool padding = true;
  bool ipv6 = false;
  bool csv = false;
  uint64_t pps = 15'000;
  scanner::Blocklist blocklist;
  cli::FlagTable flags("zmap_quic_cli");
  flags.add_switch("--no-padding", [&] { padding = false; });
  flags.add_number("--pps", pps, 0, UINT64_MAX);
  flags.add("--blocklist", "CIDR[,CIDR...]",
            [&](const std::string& list) { add_prefixes(blocklist, list); });
  flags.add_switch("--ipv6", [&] { ipv6 = true; });
  flags.add_switch("--csv", [&] { csv = true; });
  campaign_flags.add_to(flags);
  flags.parse(argc, argv);

  const auto options = campaign_flags.options({.dns_corpus_scale = 0.01});
  engine::Campaign campaign(options);

  // The sweep space comes from a planning world over the same shared
  // snapshot every campaign chunk uses, so the chunks line up.
  netsim::EventLoop planning_loop;
  internet::Internet planning(options.snapshot, planning_loop);
  auto targets =
      ipv6 ? planning.ipv6_hitlist() : planning.zmap_candidates_v4();

  const size_t slots = campaign.slot_count(targets.size());
  std::vector<std::vector<scanner::ZmapHit>> chunk_hits(slots);
  std::vector<scanner::ZmapStats> chunk_stats(slots);
  const bool want_report = !campaign_flags.report_dir.empty();
  engine::ShardFold<report::ReportAccumulator> report_fold(
      slots, [] { return report::ReportAccumulator("zmap"); });

  campaign.run(targets.size(), [&](engine::ShardEnv& env) {
    const auto slot = static_cast<size_t>(env.shard_index);
    std::unique_ptr<telemetry::TraceSink> sweep_trace;
    if (env.trace_factory) sweep_trace = env.trace_factory("zmap_sweep");

    scanner::ZmapOptions zmap_options;
    zmap_options.pad_to_1200 = padding;
    zmap_options.packets_per_second = pps;
    zmap_options.blocklist = blocklist;
    zmap_options.seed = env.seed;
    zmap_options.metrics = env.metrics;
    zmap_options.trace_sink = sweep_trace.get();
    zmap_options.probe_rounds = 1 + campaign_flags.retries;
    scanner::ZmapQuicScanner zmap(env.internet->network(),
                                  std::move(zmap_options));
    chunk_hits[slot] = zmap.scan(std::span<const netsim::IpAddress>(
        targets.data() + env.range.begin, env.range.size()));
    chunk_stats[slot] = zmap.stats();
    if (want_report) {
      auto& acc = report_fold.slot(env.shard_index);
      acc.attach_metrics(env.metrics);
      const auto& registry = env.internet->population().as_registry();
      for (const auto& hit : chunk_hits[slot])
        acc.add_zmap_hit(hit.address.to_string(), hit.versions,
                         registry.asn_for(hit.address));
    }
  });

  // Each chunk's hit list is address-ordered and chunk target sets are
  // disjoint, so the merge reproduces the serial sweep's order.
  auto hits = engine::merge_sorted_shards(
      std::move(chunk_hits),
      [](const scanner::ZmapHit& a, const scanner::ZmapHit& b) {
        return a.address < b.address;
      });
  scanner::ZmapStats stats;
  for (const auto& chunk : chunk_stats) {
    stats.targets += chunk.targets;
    stats.probes_sent += chunk.probes_sent;
    stats.bytes_sent += chunk.bytes_sent;
    stats.responses += chunk.responses;
    stats.malformed += chunk.malformed;
    stats.blocked += chunk.blocked;
    stats.retry_rounds += chunk.retry_rounds;
  }

  if (csv) {
    std::printf("saddr,versions\n");
    for (const auto& hit : hits) {
      std::string versions;
      for (quic::Version v : hit.versions) {
        if (!versions.empty()) versions += " ";
        versions += quic::version_name(v);
      }
      std::printf("%s,%s\n", hit.address.to_string().c_str(),
                  versions.c_str());
    }
  } else {
    for (const auto& hit : hits) {
      std::printf("%-40s %s\n", hit.address.to_string().c_str(),
                  quic::version_set_name(hit.versions).c_str());
    }
  }
  campaign_flags.write_report(report_fold);
  std::fprintf(stderr,
               "# probed %llu targets (%llu blocked), %llu probes / %llu "
               "bytes sent, %zu responders\n",
               static_cast<unsigned long long>(stats.targets),
               static_cast<unsigned long long>(stats.blocked),
               static_cast<unsigned long long>(stats.probes_sent),
               static_cast<unsigned long long>(stats.bytes_sent),
               hits.size());
  campaign_flags.print_summary(campaign);
  campaign_flags.write_metrics(campaign);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::run_main("zmap_quic_cli", [&] { return run(argc, argv); });
}
