// qscanner: command-line front end for the stateful scanner, run
// against a synthetic-internet snapshot. Like the released QScanner it
// accepts address or address,SNI targets and emits one CSV row per
// attempt with outcome, version, TLS, transport-parameter and HTTP
// fields.
//
//   qscanner_cli [--week N] [--all | --targets FILE] [--no-http]
//                [--jobs N] [--schedule static|dynamic] [--chunk-size N]
//                [--seed N] [--qlog DIR] [--metrics FILE]
//                [--sched-metrics FILE] [--impair PROFILE]
//                [--adversary PROFILE] [--retries N]
//                [--breaker] [--report DIR] [--crypto-backend NAME]
//
// FILE format: one target per line, "address" or "address,sni-domain".
// --all scans every ZMap-discoverable IPv4 address without SNI.
// --jobs N runs the campaign on N worker threads (see DESIGN.md
// "Sharded campaign engine" / "Dynamic chunk scheduler"); the merged
// CSV and metrics are identical for every N, and --jobs 1 is
// byte-identical to the historical serial path. --jobs 0 auto-detects
// the machine's hardware concurrency. --schedule picks the
// slice-onto-worker mapping: `dynamic` (default) cuts the list into
// fixed-size chunks (--chunk-size, default ~8 chunks per worker) that
// workers steal off a shared cursor; `static` pins one balanced shard
// per worker, the pre-chunk behaviour. --qlog writes one JSON-Lines
// trace per attempt into DIR (per-slice subdirectories when there is
// more than one slice); --metrics writes the merged counter/histogram
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
// backoff; --breaker enables the per-AS circuit breaker
// (skip-and-record when a provider keeps timing out). --report streams
// every row through an in-shard report::ReportAccumulator (same hook as
// the CSV writer) and writes DIR/report.{json,md} from the shard-order
// fold -- byte-identical for every --jobs N and to an offline
// qreport_cli replay of the CSV.
// --crypto-backend forces the AES-GCM kernel backend (portable,
// portable_batched, aesni, auto) for A/B timing runs; every backend
// produces byte-identical output, so only wall-clock changes (see
// DESIGN.md "Crypto backends").
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "cli_number.h"
#include "crypto/cpu.h"
#include "engine/engine.h"
#include "internet/internet.h"
#include "netsim/impairment.h"
#include "report/report.h"
#include "scanner/qscanner.h"
#include "scanner/zmap.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

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
  options.breaker.enabled = breaker;
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

void report_unknown_profile(const char* flag, const std::string& name) {
  std::fprintf(stderr, "%s: unknown impairment profile '%s' (known:",
               flag, name.c_str());
  for (auto known : netsim::impairment_profile_names())
    std::fprintf(stderr, " %.*s", static_cast<int>(known.size()),
                 known.data());
  std::fprintf(stderr, ")\n");
}

void report_unknown_adversary(const char* flag, const std::string& name) {
  std::fprintf(stderr, "%s: unknown adversary profile '%s' (known:",
               flag, name.c_str());
  for (auto known : internet::adversary_profile_names())
    std::fprintf(stderr, " %.*s", static_cast<int>(known.size()),
                 known.data());
  std::fprintf(stderr, ")\n");
}

int run(int argc, char** argv) {
  int week = 18;
  bool scan_all = false;
  bool send_http = true;
  std::string targets_file;
  int jobs = 1;
  engine::Schedule schedule = engine::Schedule::kDynamic;
  size_t chunk_size = 0;
  uint64_t seed = 0x5ca9;
  std::string qlog_dir;
  std::string metrics_file;
  std::string sched_metrics_file;
  std::string impair;
  std::string adversary;
  int retries = 0;
  bool breaker = false;
  std::string report_dir;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--week" && i + 1 < argc) {
      week = cli::parse_number<int>("--week", argv[++i], cli::kMinWeek,
                                    cli::kMaxWeek);
    } else if (arg == "--all") {
      scan_all = true;
    } else if (arg == "--no-http") {
      send_http = false;
    } else if (arg == "--targets" && i + 1 < argc) {
      targets_file = argv[++i];
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
    } else if (arg == "--breaker") {
      breaker = true;
    } else if (arg == "--report" && i + 1 < argc) {
      report_dir = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: qscanner_cli [--week N] [--all | --targets FILE] "
                   "[--no-http] [--jobs N] [--schedule static|dynamic] "
                   "[--chunk-size N] [--seed N] [--qlog DIR] "
                   "[--metrics FILE] [--sched-metrics FILE] "
                   "[--impair PROFILE] [--adversary PROFILE] [--retries N] "
                   "[--breaker] [--report DIR] [--crypto-backend NAME]\n");
      return 2;
    }
  }
  if (!impair.empty() && !netsim::find_impairment_profile(impair)) {
    report_unknown_profile("--impair", impair);
    return 2;
  }
  if (!adversary.empty() && !internet::find_adversary_profile(adversary)) {
    report_unknown_adversary("--adversary", adversary);
    return 2;
  }
  if (!scan_all && targets_file.empty()) scan_all = true;
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
  // One immutable snapshot serves the planning world (--all) and every
  // campaign slice.
  campaign_options.snapshot = std::make_shared<const internet::Snapshot>(
      campaign_options.population, week);
  campaign_options.qlog_dir = qlog_dir;
  campaign_options.impairment = impair;
  campaign_options.adversary = adversary;
  engine::Campaign campaign(campaign_options);

  // Per-slice output slots: each body writes only to its own index;
  // the engine guarantees exclusive slots and a barrier. Sized with
  // slot_count once the target count is known (dynamic campaigns have
  // more slices than workers).
  std::vector<std::vector<scanner::QscanResult>> shard_rows;
  std::vector<size_t> shard_scanned;
  std::vector<uint64_t> shard_attempts;

  // In-slice report accumulation: each slice feeds its own slot from
  // the same results the CSV writer prints, and the slice-order fold
  // after run() is jobs-invariant (merge_from is associative and
  // commutative).
  const bool want_report = !report_dir.empty();
  std::optional<engine::ShardFold<report::ReportAccumulator>> report_fold;
  auto size_slots = [&](size_t target_count) {
    size_t slots = campaign.slot_count(target_count);
    shard_rows.assign(slots, {});
    shard_scanned.assign(slots, 0);
    shard_attempts.assign(slots, 0);
    report_fold.emplace(slots,
                        [] { return report::ReportAccumulator("qscanner"); });
  };
  auto report_row = [&](engine::ShardEnv& env,
                        const scanner::QscanResult& result) {
    if (!want_report) return;
    const auto& registry = env.internet->population().as_registry();
    report_fold->slot(env.shard_index)
        .add_row(report::features_of(result),
                 registry.asn_for(result.target.address));
  };

  std::vector<scanner::QscanResult> rows;
  try {
    if (scan_all) {
      // The ZMap candidate space is the campaign's target list: each
      // shard sweeps its candidate slice, then runs the stateful
      // scanner over its own hits -- discovery and handshake stay in
      // the same shard world, exactly like the serial pipeline.
      netsim::EventLoop planning_loop;
      internet::Internet planning(campaign_options.snapshot, planning_loop);
      auto candidates = planning.zmap_candidates_v4();
      size_slots(candidates.size());

      campaign.run(candidates.size(), [&](engine::ShardEnv& env) {
        if (want_report)
          report_fold->slot(env.shard_index).attach_metrics(env.metrics);
        scanner::ZmapOptions zmap_options;
        zmap_options.seed = env.seed;
        zmap_options.metrics = env.metrics;
        scanner::ZmapQuicScanner zmap(env.internet->network(),
                                      std::move(zmap_options));
        auto hits = zmap.scan(std::span<const netsim::IpAddress>(
            candidates.data() + env.range.begin, env.range.size()));

        scanner::QScanner qscanner(
            env.internet->network(),
            scan_options(env, send_http, retries, breaker));
        auto& rows_out = shard_rows[static_cast<size_t>(env.shard_index)];
        for (const auto& hit : hits) {
          scanner::QscanTarget target{hit.address, std::nullopt,
                                      hit.versions};
          if (!qscanner.compatible(target)) continue;
          rows_out.push_back(qscanner.scan_one(target));
          report_row(env, rows_out.back());
          ++shard_scanned[static_cast<size_t>(env.shard_index)];
        }
        shard_attempts[static_cast<size_t>(env.shard_index)] =
            qscanner.attempts();
      });
      // Per-shard rows follow ZMap's address-ordered hit list; hits
      // across shards are disjoint, so the address merge reproduces
      // the serial (globally address-sorted) row order for every K.
      rows = engine::merge_sorted_shards(
          std::move(shard_rows),
          [](const scanner::QscanResult& a, const scanner::QscanResult& b) {
            return a.target.address < b.target.address;
          });
    } else {
      std::ifstream in(targets_file);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", targets_file.c_str());
        return 2;
      }
      std::vector<scanner::QscanTarget> targets;
      std::string line;
      while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        size_t comma = line.find(',');
        auto addr = netsim::IpAddress::parse(
            comma == std::string::npos ? line : line.substr(0, comma));
        if (!addr) {
          std::fprintf(stderr, "skipping malformed target: %s\n",
                       line.c_str());
          continue;
        }
        scanner::QscanTarget target;
        target.address = *addr;
        if (comma != std::string::npos) target.sni = line.substr(comma + 1);
        targets.push_back(std::move(target));
      }
      size_slots(targets.size());

      campaign.run(targets.size(), [&](engine::ShardEnv& env) {
        if (want_report)
          report_fold->slot(env.shard_index).attach_metrics(env.metrics);
        scanner::QScanner qscanner(
            env.internet->network(),
            scan_options(env, send_http, retries, breaker));
        auto& rows_out = shard_rows[static_cast<size_t>(env.shard_index)];
        for (size_t i = env.range.begin; i < env.range.end; ++i) {
          if (!qscanner.compatible(targets[i])) continue;
          rows_out.push_back(qscanner.scan_one(targets[i]));
          report_row(env, rows_out.back());
          ++shard_scanned[static_cast<size_t>(env.shard_index)];
        }
        shard_attempts[static_cast<size_t>(env.shard_index)] =
            qscanner.attempts();
      });
      // Contiguous shards preserve the target-file order on concat.
      rows = engine::concat_shards(std::move(shard_rows));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign failed: %s\n", e.what());
    return 2;
  }

  std::printf("%s\n", report::kQscanCsvHeader);
  for (const auto& row : rows) print_row(row);

  if (want_report) {
    try {
      report::write_report_dir(report_dir, report_fold->merged());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot write report: %s\n", e.what());
      return 2;
    }
  }

  size_t scanned = 0;
  uint64_t attempts = 0;
  for (size_t s = 0; s < shard_scanned.size(); ++s) {
    scanned += shard_scanned[s];
    attempts += shard_attempts[s];
  }
  std::fprintf(stderr, "# scanned %zu targets, %llu attempts\n", scanned,
               static_cast<unsigned long long>(attempts));
  std::fprintf(stderr,
               "# schedule %s: %zu slice%s, %d worker%s, straggler ratio "
               "%.2f\n",
               engine::schedule_name(schedule), campaign.ranges().size(),
               campaign.ranges().size() == 1 ? "" : "s", jobs,
               jobs == 1 ? "" : "s", campaign.straggler_ratio());
  std::fprintf(stderr, "# crypto backend: %s\n",
               crypto::backend_name(crypto::resolve_backend()));
  const auto& metrics = campaign.metrics();
  for (size_t i = 0; i < scanner::kQscanOutcomeCount; ++i) {
    auto name =
        scanner::to_string(static_cast<scanner::QscanOutcome>(i));
    const auto* counter = metrics.find_counter("qscan.outcome." + name);
    std::fprintf(stderr, "#   %-22s %llu\n", name.c_str(),
                 static_cast<unsigned long long>(
                     counter ? counter->value() : 0));
  }

  if (!metrics_file.empty()) {
    std::ofstream out(metrics_file);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", metrics_file.c_str());
      return 2;
    }
    metrics.write_json(out);
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
    std::fprintf(stderr, "qscanner_cli: %s\n", e.what());
    return 2;
  }
}
