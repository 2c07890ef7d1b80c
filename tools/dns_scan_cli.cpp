// dns-scan: MassDNS-style bulk resolution of one of the paper's input
// lists against a synthetic-internet snapshot, printing CSV rows for
// domains with any A/AAAA/HTTPS data (the QUIC-relevant subset).
//
//   dns_scan_cli [--list NAME] [--https-only] [campaign flags, see below]
//
// NAME is one of: alexa, majestic, umbrella, czds, comnetorg.
// The campaign flags (tools/cli.h) are shared with qscanner_cli and
// zmap_quic_cli. --jobs N runs the corpus on N worker threads (0 =
// auto-detect hardware concurrency) pulling fixed-size chunks
// (--chunk-size) off a shared cursor; the merged CSV and metrics are
// identical for every N (see DESIGN.md "Campaign engine"). --seed
// reseeds the synthetic population; --qlog writes one JSON-Lines trace
// per chunk; --metrics dumps the merged counters as JSON on exit;
// --sched-metrics writes the non-deterministic wall-clock scheduler
// telemetry separately.
// --impair overlays a named fault-fabric profile on every server link
// (the resolver path is zone-store backed, so this mainly matters when
// other scanners share the snapshot); --adversary overlays a named
// misbehaving-endpoint profile on every server host (same caveat);
// --retries must stay 0: every lookup is answered deterministically, so
// a re-query could only repeat the answer. --report streams every
// resolved record through an in-chunk report::ReportAccumulator and
// writes DIR/report.{json,md} from the chunk-order fold
// (jobs-invariant; HTTPS-RR adoption, Figure 3, and the DNS-join
// columns of Tables 1/2).
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
#include "scanner/dns_scan.h"
#include "telemetry/trace.h"

namespace {

int run(int argc, char** argv) {
  cli::CampaignFlags campaign_flags;
  campaign_flags.seed = 0x9000;
  std::string list = "alexa";
  bool https_only = false;
  cli::FlagTable flags("dns_scan_cli");
  flags.add("--list", "NAME", list);
  flags.add_switch("--https-only", [&] { https_only = true; });
  campaign_flags.add_to(flags);
  flags.parse(argc, argv);
  if (campaign_flags.retries > 0)
    throw std::invalid_argument(
        "--retries must be 0: DNS lookups are deterministic, so a re-query "
        "only repeats the answer");

  const auto options = campaign_flags.options(
      {.seed = campaign_flags.seed, .dns_corpus_scale = 0.05});
  engine::Campaign campaign(options);

  // The corpus comes from a planning world over the same shared
  // snapshot every campaign chunk uses, so the domain slices line up.
  std::vector<std::string> corpus;
  {
    netsim::EventLoop planning_loop;
    internet::Internet planning(options.snapshot, planning_loop);
    corpus = planning.list_corpus(list);
  }

  const size_t slots = campaign.slot_count(corpus.size());
  std::vector<scanner::DnsListScan> chunk_scans(slots);
  std::vector<uint64_t> chunk_queries(slots, 0);
  const bool want_report = !campaign_flags.report_dir.empty();
  engine::ShardFold<report::ReportAccumulator> report_fold(
      slots, [] { return report::ReportAccumulator("dns"); });

  campaign.run(corpus.size(), [&](engine::ShardEnv& env) {
    const auto slot = static_cast<size_t>(env.shard_index);
    std::unique_ptr<telemetry::TraceSink> trace;
    if (env.trace_factory) trace = env.trace_factory("dns_" + list);

    scanner::DnsScanner dns(env.internet->zones(), env.metrics,
                            telemetry::Tracer(trace.get(), env.loop));
    chunk_scans[slot] = dns.scan_list(
        list, std::span<const std::string>(corpus.data() + env.range.begin,
                                           env.range.size()));
    chunk_queries[slot] = dns.queries_sent();
    if (want_report) {
      auto& acc = report_fold.slot(env.shard_index);
      acc.attach_metrics(env.metrics);
      for (const auto& record : chunk_scans[slot].records)
        acc.add_dns_record(list, record);
    }
  });

  // Contiguous chunks preserve corpus order on concat; aggregate
  // counts sum across chunks.
  scanner::DnsListScan scan;
  scan.list = list;
  uint64_t queries = 0;
  for (size_t c = 0; c < slots; ++c) {
    auto& chunk = chunk_scans[c];
    scan.domains_resolved += chunk.domains_resolved;
    scan.with_https_rr += chunk.with_https_rr;
    scan.with_a += chunk.with_a;
    scan.with_aaaa += chunk.with_aaaa;
    for (auto& record : chunk.records)
      scan.records.push_back(std::move(record));
    queries += chunk_queries[c];
  }

  std::printf("domain,a,aaaa,https_alpn,ipv4_hints,ipv6_hints\n");
  auto join = [](const auto& items, auto to_string) {
    std::string out;
    for (const auto& item : items) {
      if (!out.empty()) out += " ";
      out += to_string(item);
    }
    return out;
  };
  for (const auto& record : scan.records) {
    if (https_only && !record.has_https_rr()) continue;
    std::string alpn, hints4, hints6;
    for (const auto& svcb : record.https) {
      for (const auto& token : svcb.alpn) {
        if (!alpn.empty()) alpn += " ";
        alpn += token;
      }
      for (const auto& addr : svcb.ipv4_hints) {
        if (!hints4.empty()) hints4 += " ";
        hints4 += addr.to_string();
      }
      for (const auto& addr : svcb.ipv6_hints) {
        if (!hints6.empty()) hints6 += " ";
        hints6 += addr.to_string();
      }
    }
    std::printf("%s,%s,%s,%s,%s,%s\n", record.domain.c_str(),
                join(record.a, [](const auto& a) { return a.to_string(); })
                    .c_str(),
                join(record.aaaa, [](const auto& a) { return a.to_string(); })
                    .c_str(),
                alpn.c_str(), hints4.c_str(), hints6.c_str());
  }
  campaign_flags.write_report(report_fold);
  std::fprintf(stderr,
               "# list=%s resolved=%zu with_a=%zu with_aaaa=%zu "
               "with_https_rr=%zu (%.2f %%), %llu DNS queries\n",
               list.c_str(), scan.domains_resolved, scan.with_a,
               scan.with_aaaa, scan.with_https_rr,
               100.0 * scan.https_rr_rate(),
               static_cast<unsigned long long>(queries));
  campaign_flags.print_summary(campaign);
  campaign_flags.write_metrics(campaign);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::run_main("dns_scan_cli", [&] { return run(argc, argv); });
}
