// zmap-quic: command-line front end for the ZMap QUIC module, run
// against a synthetic-internet snapshot. Mirrors the published module's
// ergonomics: sweep, forced version negotiation, CSV output.
//
//   zmap_quic_cli [--week N] [--no-padding] [--pps N]
//                 [--blocklist CIDR[,CIDR...]] [--ipv6] [--csv]
//                 [--jobs N] [--schedule static|dynamic] [--chunk-size N]
//                 [--seed N] [--qlog DIR] [--metrics FILE]
//                 [--sched-metrics FILE] [--impair PROFILE]
//                 [--adversary PROFILE] [--retries N]
//                 [--report DIR]
//
// --jobs N runs the sweep on N worker threads, like the real ZMap's
// sender shards; the merged responder list and metrics are identical
// for every N (see DESIGN.md "Sharded campaign engine" / "Dynamic
// chunk scheduler"). --jobs 0 auto-detects the machine's hardware
// concurrency. --schedule picks `dynamic` (default: fixed-size chunks
// stolen off a shared cursor, size via --chunk-size) or `static` (one
// balanced shard per worker, the pre-chunk behaviour).
// --qlog writes one JSON-Lines trace per slice (the module is
// stateless, so each slice's probes and VN responses share one file);
// --metrics dumps the merged counters as JSON on exit; --sched-metrics
// writes the non-deterministic wall-clock scheduler telemetry
// separately.
// --impair overlays a named fault-fabric profile (clean, lossy,
// bursty, hostile, throttled) on every server link; --adversary
// overlays a named misbehaving-endpoint profile (compliant, sloppy,
// broken, malicious) on every server host; --retries N
// re-probes non-responders in up to N extra sweep rounds. --report
// streams every responder through an in-shard
// report::ReportAccumulator and writes DIR/report.{json,md} from the
// shard-order fold (jobs-invariant; version sets and the
// version-support matrix, Figures 5/6).
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
#include "scanner/zmap.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: zmap_quic_cli [--week N] [--no-padding] [--pps N]\n"
               "                     [--blocklist CIDR[,CIDR...]] [--ipv6]\n"
               "                     [--csv] [--jobs N]\n"
               "                     [--schedule static|dynamic]\n"
               "                     [--chunk-size N] [--seed N]\n"
               "                     [--qlog DIR] [--metrics FILE]\n"
               "                     [--sched-metrics FILE]\n"
               "                     [--impair PROFILE]\n"
               "                     [--adversary PROFILE] [--retries N]\n"
               "                     [--report DIR]\n"
               "                     [--crypto-backend NAME]\n");
}

int run(int argc, char** argv) {
  int week = 18;
  bool padding = true;
  bool ipv6 = false;
  bool csv = false;
  uint64_t pps = 15'000;
  scanner::Blocklist blocklist;
  int jobs = 1;
  engine::Schedule schedule = engine::Schedule::kDynamic;
  size_t chunk_size = 0;
  uint64_t seed = 0x2a9a;
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
    } else if (arg == "--no-padding") {
      padding = false;
    } else if (arg == "--pps" && i + 1 < argc) {
      pps = cli::parse_number("--pps", argv[++i], 0, UINT64_MAX);
    } else if (arg == "--ipv6") {
      ipv6 = true;
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--blocklist" && i + 1 < argc) {
      std::string list = argv[++i];
      size_t pos = 0;
      while (pos <= list.size()) {
        size_t comma = list.find(',', pos);
        std::string cidr = list.substr(
            pos, comma == std::string::npos ? std::string::npos : comma - pos);
        auto prefix = netsim::Prefix::parse(cidr);
        if (!prefix) {
          std::fprintf(stderr, "bad blocklist entry: %s\n", cidr.c_str());
          return 2;
        }
        blocklist.add(*prefix);
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else {
      usage();
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
  campaign_options.population = {.dns_corpus_scale = 0.01};
  campaign_options.snapshot = std::make_shared<const internet::Snapshot>(
      campaign_options.population, week);
  campaign_options.qlog_dir = qlog_dir;
  campaign_options.impairment = impair;
  campaign_options.adversary = adversary;
  engine::Campaign campaign(campaign_options);

  // The sweep space comes from a planning world over the same shared
  // snapshot every campaign slice uses, so the slices line up.
  netsim::EventLoop planning_loop;
  internet::Internet planning(campaign_options.snapshot, planning_loop);
  auto targets =
      ipv6 ? planning.ipv6_hitlist() : planning.zmap_candidates_v4();

  const size_t slots = campaign.slot_count(targets.size());
  std::vector<std::vector<scanner::ZmapHit>> shard_hits(slots);
  std::vector<scanner::ZmapStats> shard_stats(slots);

  const bool want_report = !report_dir.empty();
  engine::ShardFold<report::ReportAccumulator> report_fold(
      slots, [] { return report::ReportAccumulator("zmap"); });

  try {
    campaign.run(targets.size(), [&](engine::ShardEnv& env) {
      std::unique_ptr<telemetry::TraceSink> sweep_trace;
      if (env.trace_factory) sweep_trace = env.trace_factory("zmap_sweep");

      scanner::ZmapOptions options;
      options.pad_to_1200 = padding;
      options.packets_per_second = pps;
      options.blocklist = blocklist;
      options.seed = env.seed;
      options.metrics = env.metrics;
      options.trace_sink = sweep_trace.get();
      options.probe_rounds = 1 + retries;
      scanner::ZmapQuicScanner zmap(env.internet->network(),
                                    std::move(options));
      shard_hits[static_cast<size_t>(env.shard_index)] =
          zmap.scan(std::span<const netsim::IpAddress>(
              targets.data() + env.range.begin, env.range.size()));
      shard_stats[static_cast<size_t>(env.shard_index)] = zmap.stats();
      if (want_report) {
        auto& acc = report_fold.slot(env.shard_index);
        acc.attach_metrics(env.metrics);
        const auto& registry = env.internet->population().as_registry();
        for (const auto& hit :
             shard_hits[static_cast<size_t>(env.shard_index)])
          acc.add_zmap_hit(hit.address.to_string(), hit.versions,
                           registry.asn_for(hit.address));
      }
    });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign failed: %s\n", e.what());
    return 2;
  }

  // Each shard's hit list is address-ordered and shard target sets are
  // disjoint, so the merge reproduces the serial sweep's order.
  auto hits = engine::merge_sorted_shards(
      std::move(shard_hits),
      [](const scanner::ZmapHit& a, const scanner::ZmapHit& b) {
        return a.address < b.address;
      });
  scanner::ZmapStats stats;
  for (const auto& shard : shard_stats) {
    stats.targets += shard.targets;
    stats.probes_sent += shard.probes_sent;
    stats.bytes_sent += shard.bytes_sent;
    stats.responses += shard.responses;
    stats.malformed += shard.malformed;
    stats.blocked += shard.blocked;
    stats.retry_rounds += shard.retry_rounds;
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
  if (want_report) {
    try {
      report::write_report_dir(report_dir, report_fold.merged());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot write report: %s\n", e.what());
      return 2;
    }
  }
  std::fprintf(stderr,
               "# probed %llu targets (%llu blocked), %llu probes / %llu "
               "bytes sent, %zu responders\n",
               static_cast<unsigned long long>(stats.targets),
               static_cast<unsigned long long>(stats.blocked),
               static_cast<unsigned long long>(stats.probes_sent),
               static_cast<unsigned long long>(stats.bytes_sent),
               hits.size());
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
    std::fprintf(stderr, "zmap_quic_cli: %s\n", e.what());
    return 2;
  }
}
