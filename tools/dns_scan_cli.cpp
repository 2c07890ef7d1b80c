// dns-scan: MassDNS-style bulk resolution of one of the paper's input
// lists against a synthetic-internet snapshot, printing CSV rows for
// domains with any A/AAAA/HTTPS data (the QUIC-relevant subset).
//
//   dns_scan_cli [--week N] [--list NAME] [--https-only] [--jobs N]
//                [--schedule static|dynamic] [--chunk-size N]
//                [--seed N] [--qlog DIR] [--metrics FILE]
//                [--sched-metrics FILE] [--impair PROFILE]
//                [--adversary PROFILE] [--retries N]
//                [--report DIR]
//
// NAME is one of: alexa, majestic, umbrella, czds, comnetorg.
// --jobs N runs the corpus on N worker threads (0 = auto-detect
// hardware concurrency); the merged CSV and metrics are identical for
// every N (see DESIGN.md "Sharded campaign engine" / "Dynamic chunk
// scheduler"). --schedule picks `dynamic` (default: fixed-size chunks
// stolen off a shared cursor, size via --chunk-size) or `static` (one
// balanced shard per worker). --seed reseeds the synthetic population;
// --qlog writes one JSON-Lines trace per slice; --metrics dumps the
// merged counters as JSON on exit; --sched-metrics writes the
// non-deterministic wall-clock scheduler telemetry separately.
// --impair overlays a named fault-fabric profile on every server link
// (the resolver path is zone-store backed, so this mainly matters when
// other scanners share the snapshot); --adversary overlays a named
// misbehaving-endpoint profile on every server host (same caveat);
// --retries N re-queries
// empty-answer domains up to N extra times. --report streams every
// resolved record through an in-shard report::ReportAccumulator and
// writes DIR/report.{json,md} from the shard-order fold
// (jobs-invariant; HTTPS-RR adoption, Figure 3, and the DNS-join
// columns of Tables 1/2).
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "cli_number.h"
#include "crypto/cpu.h"
#include "engine/engine.h"
#include "internet/internet.h"
#include "netsim/impairment.h"
#include "report/report.h"
#include "scanner/dns_scan.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace {

int run(int argc, char** argv) {
  int week = 18;
  std::string list = "alexa";
  bool https_only = false;
  int jobs = 1;
  engine::Schedule schedule = engine::Schedule::kDynamic;
  size_t chunk_size = 0;
  uint64_t seed = 0x9000;
  std::string qlog_dir;
  std::string metrics_file;
  std::string sched_metrics_file;
  std::string impair;
  std::string adversary;
  int retries = 0;
  std::string report_dir;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--week" && i + 1 < argc) {
      week = cli::parse_number<int>("--week", argv[++i], cli::kMinWeek,
                                    cli::kMaxWeek);
    } else if (arg == "--list" && i + 1 < argc) {
      list = argv[++i];
    } else if (arg == "--https-only") {
      https_only = true;
    } else if (arg == "--jobs" && i + 1 < argc) {
      jobs = cli::parse_number<int>("--jobs", argv[++i], 0, cli::kMaxJobs);
    } else if (arg == "--schedule" && i + 1 < argc) {
      try {
        schedule = engine::parse_schedule(argv[++i]);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "--schedule: %s\n", e.what());
        return 2;
      }
    } else if (arg == "--crypto-backend" && i + 1 < argc) {
      try {
        crypto::set_backend_override(crypto::parse_backend(argv[++i]));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "--crypto-backend: %s\n", e.what());
        return 2;
      }
    } else if (arg == "--chunk-size" && i + 1 < argc) {
      chunk_size = cli::parse_number<size_t>("--chunk-size", argv[++i], 0,
                                             SIZE_MAX);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = cli::parse_number("--seed", argv[++i], 0, UINT64_MAX,
                               /*allow_hex=*/true);
    } else if (arg == "--qlog" && i + 1 < argc) {
      qlog_dir = argv[++i];
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_file = argv[++i];
    } else if (arg == "--sched-metrics" && i + 1 < argc) {
      sched_metrics_file = argv[++i];
    } else if (arg == "--impair" && i + 1 < argc) {
      impair = argv[++i];
    } else if (arg == "--adversary" && i + 1 < argc) {
      adversary = argv[++i];
    } else if (arg == "--retries" && i + 1 < argc) {
      retries =
          cli::parse_number<int>("--retries", argv[++i], 0, cli::kMaxRetries);
    } else if (arg == "--report" && i + 1 < argc) {
      report_dir = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: dns_scan_cli [--week N] [--list NAME] "
                   "[--https-only] [--jobs N] [--schedule static|dynamic] "
                   "[--chunk-size N] [--seed N] [--qlog DIR] "
                   "[--metrics FILE] [--sched-metrics FILE] "
                   "[--impair PROFILE] [--adversary PROFILE] [--retries N] "
                   "[--report DIR] [--crypto-backend NAME]\n");
      return 2;
    }
  }
  if (!impair.empty() && !netsim::find_impairment_profile(impair)) {
    std::fprintf(stderr, "--impair: unknown impairment profile '%s' (known:",
                 impair.c_str());
    for (auto known : netsim::impairment_profile_names())
      std::fprintf(stderr, " %.*s", static_cast<int>(known.size()),
                   known.data());
    std::fprintf(stderr, ")\n");
    return 2;
  }
  if (!adversary.empty() && !internet::find_adversary_profile(adversary)) {
    std::fprintf(stderr, "--adversary: unknown adversary profile '%s' (known:",
                 adversary.c_str());
    for (auto known : internet::adversary_profile_names())
      std::fprintf(stderr, " %.*s", static_cast<int>(known.size()),
                   known.data());
    std::fprintf(stderr, ")\n");
    return 2;
  }
  if (jobs == 0) {
    // hardware_concurrency() may report 0 on exotic platforms; fall
    // back to the serial path rather than refusing to run.
    unsigned detected = std::thread::hardware_concurrency();
    jobs = detected > 0 ? static_cast<int>(detected) : 1;
    std::fprintf(stderr, "--jobs 0: auto-detected %d worker thread%s\n",
                 jobs, jobs == 1 ? "" : "s");
  }
  if (!qlog_dir.empty()) {
    // Validate the qlog root up front, on the calling thread, so a bad
    // path fails with a clear message before any shard work starts.
    try {
      telemetry::QlogDir probe(qlog_dir);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot create qlog dir %s: %s\n",
                   qlog_dir.c_str(), e.what());
      return 2;
    }
  }

  engine::CampaignOptions campaign_options;
  campaign_options.jobs = jobs;
  campaign_options.schedule = schedule;
  campaign_options.chunk_size = chunk_size;
  campaign_options.seed = seed;
  campaign_options.week = week;
  campaign_options.population = {.seed = seed, .dns_corpus_scale = 0.05};
  campaign_options.snapshot = std::make_shared<const internet::Snapshot>(
      campaign_options.population, week);
  campaign_options.qlog_dir = qlog_dir;
  campaign_options.impairment = impair;
  campaign_options.adversary = adversary;
  engine::Campaign campaign(campaign_options);

  // The corpus comes from a planning world over the same shared
  // snapshot every campaign slice uses, so the domain slices line up.
  std::vector<std::string> corpus;
  {
    netsim::EventLoop planning_loop;
    internet::Internet planning(campaign_options.snapshot, planning_loop);
    try {
      corpus = planning.list_corpus(list);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }

  const size_t slots = campaign.slot_count(corpus.size());
  std::vector<scanner::DnsListScan> shard_scans(slots);
  std::vector<uint64_t> shard_queries(slots, 0);

  const bool want_report = !report_dir.empty();
  engine::ShardFold<report::ReportAccumulator> report_fold(
      slots, [] { return report::ReportAccumulator("dns"); });

  try {
    campaign.run(corpus.size(), [&](engine::ShardEnv& env) {
      std::unique_ptr<telemetry::TraceSink> trace;
      if (env.trace_factory) trace = env.trace_factory("dns_" + list);

      scanner::RetryPolicy retry;
      retry.max_attempts = 1 + retries;
      scanner::DnsScanner dns(
          env.internet->zones(), env.metrics,
          telemetry::Tracer(trace.get(), env.loop,
                            telemetry::Vantage::kClient),
          retry);
      shard_scans[static_cast<size_t>(env.shard_index)] = dns.scan_list(
          list, std::span<const std::string>(corpus.data() + env.range.begin,
                                             env.range.size()));
      shard_queries[static_cast<size_t>(env.shard_index)] =
          dns.queries_sent();
      if (want_report) {
        auto& acc = report_fold.slot(env.shard_index);
        acc.attach_metrics(env.metrics);
        for (const auto& record :
             shard_scans[static_cast<size_t>(env.shard_index)].records)
          acc.add_dns_record(list, record);
      }
    });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign failed: %s\n", e.what());
    return 2;
  }

  // Contiguous shards preserve corpus order on concat; aggregate
  // counts sum across shards.
  scanner::DnsListScan scan;
  scan.list = list;
  uint64_t queries = 0;
  for (size_t s = 0; s < shard_scans.size(); ++s) {
    auto& shard = shard_scans[s];
    scan.domains_resolved += shard.domains_resolved;
    scan.with_https_rr += shard.with_https_rr;
    scan.with_a += shard.with_a;
    scan.with_aaaa += shard.with_aaaa;
    for (auto& record : shard.records)
      scan.records.push_back(std::move(record));
    queries += shard_queries[static_cast<size_t>(s)];
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
  if (want_report) {
    try {
      report::write_report_dir(report_dir, report_fold.merged());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot write report: %s\n", e.what());
      return 2;
    }
  }
  std::fprintf(stderr,
               "# list=%s resolved=%zu with_a=%zu with_aaaa=%zu "
               "with_https_rr=%zu (%.2f %%), %llu DNS queries\n",
               list.c_str(), scan.domains_resolved, scan.with_a,
               scan.with_aaaa, scan.with_https_rr,
               100.0 * scan.https_rr_rate(),
               static_cast<unsigned long long>(queries));
  std::fprintf(stderr,
               "# schedule %s: %zu slice%s, %d worker%s, straggler ratio "
               "%.2f\n",
               engine::schedule_name(schedule), campaign.ranges().size(),
               campaign.ranges().size() == 1 ? "" : "s", jobs,
               jobs == 1 ? "" : "s", campaign.straggler_ratio());
  std::fprintf(stderr, "# crypto backend: %s\n",
               crypto::backend_name(crypto::resolve_backend()));

  if (!metrics_file.empty()) {
    std::ofstream out(metrics_file);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", metrics_file.c_str());
      return 2;
    }
    campaign.metrics().write_json(out);
    out.flush();
    if (!out) {
      std::fprintf(stderr, "error writing %s\n", metrics_file.c_str());
      return 2;
    }
  }
  if (!sched_metrics_file.empty()) {
    std::ofstream out(sched_metrics_file);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", sched_metrics_file.c_str());
      return 2;
    }
    campaign.scheduler_metrics().write_json(out);
    out.flush();
    if (!out) {
      std::fprintf(stderr, "error writing %s\n", sched_metrics_file.c_str());
      return 2;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // No input may abort the tool: a library exception that escapes the
  // body (such as --week outside [5, 18]) exits 2 with its message.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dns_scan_cli: %s\n", e.what());
    return 2;
  }
}
