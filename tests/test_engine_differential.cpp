// Differential tests for the campaign engine: parallel must equal
// serial, byte for byte. Contracts from DESIGN.md ("Campaign engine"):
//
//   1. A one-chunk campaign is byte-identical to the pre-engine serial
//      code path (hand-rolled here: EventLoop + Internet + registry +
//      QlogDir built directly, no engine involved), at any --jobs.
//   2. The merged rows, merged metrics JSON and report.json are
//      identical for every jobs count, chunk size and impairment
//      profile -- the steal schedule cannot leak into any output byte.
//   3. Chunk i is byte-identical (qlog traces and per-chunk metrics)
//      to a serial run over that chunk's target slice with
//      chunk_seed(seed, i).
//   4. A chunk world builds its server hosts on first contact, and the
//      order in which they are built cannot leak into any output byte.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "crypto/cpu.h"
#include "engine/engine.h"
#include "internet/internet.h"
#include "netsim/impairment.h"
#include "report/report.h"
#include "scanner/qscanner.h"
#include "scanner/tcp_tls.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace {

namespace fs = std::filesystem;

constexpr uint64_t kSeed = 0x5ca9;
constexpr int kWeek = 18;
constexpr internet::PopulationParams kPopulation{.dns_corpus_scale = 0.002};

// One immutable snapshot for every campaign in this file: the engine
// shares it across slices anyway, and reusing it across test cases
// keeps the differential sweeps fast.
std::shared_ptr<const internet::Snapshot> shared_snapshot() {
  static auto snapshot =
      std::make_shared<const internet::Snapshot>(kPopulation, kWeek);
  return snapshot;
}

// A fixed target list drawn from the synthetic population, the same
// way qscanner_cli --targets would load one from a file.
std::vector<scanner::QscanTarget> campaign_targets(size_t limit = 48) {
  netsim::EventLoop loop;
  internet::Internet net(shared_snapshot(), loop);
  std::vector<scanner::QscanTarget> targets;
  for (const auto& host : net.population().hosts()) {
    if (!host.address.is_v4()) continue;
    targets.push_back({host.address, std::nullopt,
                       host.advertised_versions});
    if (targets.size() >= limit) break;
  }
  return targets;
}

// Everything a row comparison should be sensitive to: outcome class,
// negotiated version, TLS, transport parameters, HTTP result.
std::string row_of(const scanner::QscanResult& result) {
  std::ostringstream out;
  out << result.target.address.to_string() << ','
      << result.target.sni.value_or("") << ','
      << scanner::to_string(result.outcome) << ',';
  if (result.outcome == scanner::QscanOutcome::kSuccess)
    out << quic::version_name(result.report.negotiated_version);
  out << ',' << result.report.tls.selected_alpn.value_or("") << ','
      << result.report.server_transport_params.initial_max_data.value_or(0)
      << ',' << result.server_header.value_or("") << ','
      << quic::to_string(result.report.protocol_error);
  return out.str();
}

struct CampaignRun {
  std::vector<std::string> rows;
  std::vector<std::string> csv;
  std::string metrics_json;
  std::vector<std::string> shard_metrics_json;
  std::string report_json;
};

std::string registry_json(const telemetry::MetricsRegistry& registry) {
  std::ostringstream out;
  registry.write_json(out);
  return out.str();
}

// The production chunk body from qscanner_cli --targets --report, in
// miniature. `impairment`, `retries` and `chunk_size` mirror the CLI's
// --impair/--retries/--chunk-size flags (0 is the auto size).
// `prebuild_reversed` makes each body build its chunk's server hosts in
// reverse target order before scanning.
CampaignRun run_campaign(const std::vector<scanner::QscanTarget>& targets,
                         int jobs, uint64_t seed,
                         const std::string& qlog_dir = "",
                         const std::string& impairment = "",
                         int retries = 0, size_t chunk_size = 0,
                         const std::string& adversary = "",
                         bool prebuild_reversed = false) {
  engine::CampaignOptions options;
  options.jobs = jobs;
  options.seed = seed;
  options.chunk_size = chunk_size;
  options.week = kWeek;
  options.population = kPopulation;
  options.snapshot = shared_snapshot();
  options.qlog_dir = qlog_dir;
  options.impairment = impairment;
  options.adversary = adversary;
  engine::Campaign campaign(options);

  const size_t slots = campaign.slot_count(targets.size());
  std::vector<std::vector<scanner::QscanResult>> shard_rows(slots);
  engine::ShardFold<report::ReportAccumulator> fold(
      slots, [] { return report::ReportAccumulator("qscanner"); });
  campaign.run(targets.size(), [&](engine::ShardEnv& env) {
    if (prebuild_reversed)
      for (size_t i = env.range.end; i-- > env.range.begin;)
        env.internet->host_for(targets[i].address);
    auto& acc = fold.slot(env.shard_index);
    const auto& registry = env.internet->population().as_registry();
    scanner::QscanOptions qopt;
    qopt.seed = env.seed;
    qopt.metrics = env.metrics;
    qopt.trace_factory = env.trace_factory;
    qopt.retry.max_attempts = 1 + retries;
    scanner::QScanner qscanner(env.internet->network(), qopt);
    auto& rows = shard_rows[static_cast<size_t>(env.shard_index)];
    for (size_t i = env.range.begin; i < env.range.end; ++i) {
      if (!qscanner.compatible(targets[i])) continue;
      rows.push_back(qscanner.scan_one(targets[i]));
      acc.add_row(report::features_of(rows.back()),
                  registry.asn_for(rows.back().target.address));
    }
  });

  CampaignRun run;
  for (const auto& result : engine::concat_shards(std::move(shard_rows))) {
    run.rows.push_back(row_of(result));
    run.csv.push_back(report::to_csv_row(report::features_of(result)));
  }
  run.metrics_json = registry_json(campaign.metrics());
  for (size_t s = 0; s < slots; ++s)
    run.shard_metrics_json.push_back(
        registry_json(campaign.shard_metrics(static_cast<int>(s))));
  std::ostringstream report_out;
  report::write_report_json(report_out, fold.merged());
  run.report_json = report_out.str();
  return run;
}

// The pre-engine serial path, reconstructed with no engine code at
// all: this is exactly what the CLIs did before the campaign runner
// existed, and what a one-chunk campaign must reproduce byte for byte.
CampaignRun run_serial_baseline(
    const std::vector<scanner::QscanTarget>& targets, uint64_t seed,
    const std::string& qlog_dir = "", const std::string& impairment = "",
    int retries = 0, const std::string& adversary = "") {
  netsim::EventLoop loop;
  internet::Internet net(kPopulation, kWeek, loop);
  telemetry::MetricsRegistry metrics;
  loop.set_metrics(&metrics);
  net.network().set_metrics(&metrics);
  // Same position run_chunk applies it: after the metrics hookup, before
  // any scanner traffic, so the fabric's counters land in the registry.
  if (!impairment.empty())
    net.apply_impairment(*netsim::find_impairment_profile(impairment));
  // The engine resolves QREPRO_ADVERSARY for an unset option; the
  // baseline must follow suit or the CI sweep (verify_all.sh runs this
  // battery with QREPRO_ADVERSARY=broken) would compare a hostile
  // campaign against a compliant baseline.
  std::string adversary_name = adversary;
  if (adversary_name.empty())
    if (const char* env = std::getenv("QREPRO_ADVERSARY"))
      adversary_name = env;
  if (!adversary_name.empty())
    net.apply_adversary(*internet::find_adversary_profile(adversary_name));

  std::optional<telemetry::QlogDir> qlog;
  if (!qlog_dir.empty()) qlog.emplace(qlog_dir);

  scanner::QscanOptions qopt;
  qopt.seed = seed;
  qopt.metrics = &metrics;
  qopt.retry.max_attempts = 1 + retries;
  if (qlog) qopt.trace_factory = qlog->factory();
  scanner::QScanner qscanner(net.network(), qopt);

  CampaignRun run;
  for (const auto& target : targets) {
    if (!qscanner.compatible(target)) continue;
    run.rows.push_back(row_of(qscanner.scan_one(target)));
  }
  run.metrics_json = registry_json(metrics);
  return run;
}

std::map<std::string, std::string> dir_snapshot(const fs::path& root) {
  std::map<std::string, std::string> files;
  if (!fs::exists(root)) return files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    files[fs::relative(entry.path(), root).string()] = text.str();
  }
  return files;
}

fs::path fresh_dir(const std::string& name) {
  fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir;
}

TEST(EngineDifferential, Jobs1MatchesPreEngineSerialPathByteForByte) {
  auto targets = campaign_targets();
  ASSERT_GE(targets.size(), 16u);

  auto engine_dir = fresh_dir("engine_jobs1_qlog");
  auto serial_dir = fresh_dir("engine_serial_qlog");
  auto engine_run = run_campaign(targets, 1, kSeed, engine_dir.string(), "",
                                 0, targets.size());
  auto serial_run = run_serial_baseline(targets, kSeed, serial_dir.string());

  EXPECT_FALSE(engine_run.rows.empty());
  EXPECT_EQ(engine_run.rows, serial_run.rows);
  EXPECT_EQ(engine_run.metrics_json, serial_run.metrics_json);

  // A single-chunk campaign writes its traces directly into the qlog
  // root (no chunk0000/ subdirectory) so files land exactly where the
  // serial CLIs put them.
  auto engine_traces = dir_snapshot(engine_dir);
  auto serial_traces = dir_snapshot(serial_dir);
  EXPECT_FALSE(engine_traces.empty());
  EXPECT_EQ(engine_traces, serial_traces);
}

TEST(EngineDifferential, SingleChunkDynamicMatchesSerialPathByteForByte) {
  // chunk_seed(seed, 0) == seed and a single-chunk campaign writes
  // qlog into the root directory, so chunk_size >= n on several workers
  // is byte-identical to the hand-rolled pre-engine serial path --
  // including the trace tree, which has no chunk subdirectories.
  auto targets = campaign_targets(24);
  auto dynamic_dir = fresh_dir("engine_dynamic_single_qlog");
  auto serial_dir = fresh_dir("engine_dynamic_serial_qlog");
  auto dynamic_run = run_campaign(targets, 4, kSeed, dynamic_dir.string(), "",
                                  0, targets.size());
  auto serial_run = run_serial_baseline(targets, kSeed, serial_dir.string());

  EXPECT_FALSE(dynamic_run.rows.empty());
  EXPECT_EQ(dynamic_run.rows, serial_run.rows);
  EXPECT_EQ(dynamic_run.metrics_json, serial_run.metrics_json);
  auto dynamic_traces = dir_snapshot(dynamic_dir);
  EXPECT_FALSE(dynamic_traces.empty());
  EXPECT_EQ(dynamic_traces, dir_snapshot(serial_dir));
}

TEST(EngineDifferential, MergedOutputIdenticalAcrossShardCounts) {
  auto targets = campaign_targets();
  auto serial = run_campaign(targets, 1, kSeed, "", "", 0, targets.size());
  ASSERT_FALSE(serial.rows.empty());

  for (int jobs : {2, 4, 8}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    auto sharded = run_campaign(targets, jobs, kSeed);
    EXPECT_EQ(sharded.rows, serial.rows);
    EXPECT_EQ(sharded.metrics_json, serial.metrics_json);
  }
}

TEST(EngineDifferential, ImpairedJobs1MatchesSerialBaselineByteForByte) {
  // The fault fabric under the engine: a one-chunk --jobs 1 campaign
  // with --impair/--retries must still be byte-identical to the
  // hand-rolled serial path with the same profile applied at the same
  // point.
  auto targets = campaign_targets();
  auto engine_dir = fresh_dir("engine_impaired_jobs1_qlog");
  auto serial_dir = fresh_dir("engine_impaired_serial_qlog");
  auto engine_run = run_campaign(targets, 1, kSeed, engine_dir.string(),
                                 "hostile", 2, targets.size());
  auto serial_run =
      run_serial_baseline(targets, kSeed, serial_dir.string(), "hostile", 2);

  EXPECT_FALSE(engine_run.rows.empty());
  EXPECT_EQ(engine_run.rows, serial_run.rows);
  EXPECT_EQ(engine_run.metrics_json, serial_run.metrics_json);
  auto engine_traces = dir_snapshot(engine_dir);
  auto serial_traces = dir_snapshot(serial_dir);
  EXPECT_FALSE(engine_traces.empty());
  EXPECT_EQ(engine_traces, serial_traces);
}

TEST(EngineDifferential, ImpairedMergedOutputIdenticalAcrossShardCounts) {
  // Jobs-invariance under impairment (acceptance criterion): the
  // fabric's counter-based RNG and the per-target retry jitter give the
  // same drops/corruption/backoffs no matter how targets are chunked,
  // so the merged rows and metrics cannot depend on --jobs.
  auto targets = campaign_targets();
  for (const std::string profile : {"bursty", "hostile", "throttled"}) {
    SCOPED_TRACE("profile=" + profile);
    auto serial =
        run_campaign(targets, 1, kSeed, "", profile, 2, targets.size());
    ASSERT_FALSE(serial.rows.empty());
    for (int jobs : {2, 4, 8}) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs));
      auto sharded = run_campaign(targets, jobs, kSeed, "", profile, 2);
      EXPECT_EQ(sharded.rows, serial.rows);
      EXPECT_EQ(sharded.metrics_json, serial.metrics_json);
    }
  }
}

TEST(EngineDifferential, DynamicMatchesStaticAcrossJobsChunkSizesProfiles) {
  // The engine's contract: the merged CSV rows, merged metrics JSON and
  // report.json are byte-identical to the one-chunk serial baseline for
  // every jobs count x chunk size x impairment profile. Chunk size
  // changes the partition and the per-chunk seeds, yet per-target
  // output is invariant to its world, so even the chunk size must not
  // show up in merged output.
  auto targets = campaign_targets(24);
  const size_t n = targets.size();
  ASSERT_GE(n, 16u);

  for (const std::string profile : {"", "hostile", "throttled"}) {
    SCOPED_TRACE("profile=" + (profile.empty() ? "clean" : profile));
    const int retries = profile.empty() ? 0 : 1;
    auto baseline = run_campaign(targets, 1, kSeed, "", profile, retries, n);
    ASSERT_FALSE(baseline.rows.empty());
    for (size_t chunk : {size_t{1}, size_t{7}, size_t{64}, n}) {
      SCOPED_TRACE("chunk_size=" + std::to_string(chunk));
      for (int jobs : {1, 2, 4, 8}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        auto dynamic_run =
            run_campaign(targets, jobs, kSeed, "", profile, retries, chunk);
        EXPECT_EQ(dynamic_run.rows, baseline.rows);
        EXPECT_EQ(dynamic_run.metrics_json, baseline.metrics_json);
        EXPECT_EQ(dynamic_run.report_json, baseline.report_json);
      }
    }
  }
}

TEST(EngineDifferential, DynamicQlogTreesIdenticalAcrossJobsForFixedChunk) {
  // qlog trees fix the chunk partition (one chunkNNNN/ subtree per
  // chunk), so for a FIXED chunk size the whole tree must be
  // byte-identical across jobs counts and steal schedules. The auto
  // chunk size depends on jobs, which is why tree comparisons require
  // an explicit --chunk-size; merged CSV/metrics are chunk-size
  // invariant either way.
  auto targets = campaign_targets(24);
  constexpr size_t kChunk = 7;

  auto baseline_dir = fresh_dir("engine_dynamic_qlog_j1");
  auto baseline = run_campaign(targets, 1, kSeed, baseline_dir.string(),
                               "hostile", 1, kChunk);
  auto baseline_traces = dir_snapshot(baseline_dir);
  ASSERT_FALSE(baseline_traces.empty());
  // 24 targets in chunks of 7 -> chunk0000..chunk0003 subtrees.
  EXPECT_NE(baseline_traces.begin()->first.find("chunk000"),
            std::string::npos);

  for (int jobs : {2, 4, 8}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    auto dir = fresh_dir("engine_dynamic_qlog_j" + std::to_string(jobs));
    auto run = run_campaign(targets, jobs, kSeed, dir.string(), "hostile", 1,
                            kChunk);
    EXPECT_EQ(run.rows, baseline.rows);
    EXPECT_EQ(dir_snapshot(dir), baseline_traces);
  }
}

TEST(EngineDifferential, PerChunkOutputMatchesSerialRunOfChunkSeed) {
  // Chunk i of a campaign is byte-identical (per-chunk metrics and its
  // chunkNNNN/ qlog subtree) to a serial run over that chunk's target
  // slice with chunk_seed(seed, i) -- the property that makes chunk
  // output independent of which worker ran it.
  auto targets = campaign_targets(24);
  constexpr size_t kChunk = 7;
  auto campaign_dir = fresh_dir("engine_chunked_qlog");
  auto chunked =
      run_campaign(targets, 4, kSeed, campaign_dir.string(), "", 0, kChunk);

  auto ranges = engine::chunk_ranges(targets.size(), kChunk);
  ASSERT_EQ(chunked.shard_metrics_json.size(), ranges.size());
  for (size_t c = 0; c < ranges.size(); ++c) {
    SCOPED_TRACE("chunk=" + std::to_string(c));
    std::vector<scanner::QscanTarget> slice(
        targets.begin() + static_cast<ptrdiff_t>(ranges[c].begin),
        targets.begin() + static_cast<ptrdiff_t>(ranges[c].end));
    auto slice_dir = fresh_dir("engine_chunk_serial_qlog");
    auto serial = run_serial_baseline(slice, engine::chunk_seed(kSeed, c),
                                      slice_dir.string());
    EXPECT_EQ(chunked.shard_metrics_json[c], serial.metrics_json);

    char chunk_name[32];
    std::snprintf(chunk_name, sizeof chunk_name, "chunk%04zu", c);
    auto chunk_traces = dir_snapshot(campaign_dir / chunk_name);
    EXPECT_FALSE(chunk_traces.empty());
    EXPECT_EQ(chunk_traces, dir_snapshot(slice_dir));
  }
}

TEST(EngineDifferential, HostBuildOrderLeavesOutputUnchanged) {
  // Chunk worlds build a server host when traffic first reaches it. A
  // body that builds its slice's hosts up front, last target first,
  // must give byte-identical CSV, merged metrics, report.json and qlog
  // trees: a host is a pure function of (snapshot, address, overlays),
  // never of when or in which order it was built.
  auto targets = campaign_targets(24);
  constexpr size_t kChunk = 7;
  struct Profiles {
    const char* impairment;
    const char* adversary;
  };
  for (const Profiles& profiles :
       {Profiles{"", ""}, Profiles{"hostile", "malicious"}}) {
    SCOPED_TRACE(std::string(profiles.impairment) + "+" + profiles.adversary);
    const int retries = profiles.impairment[0] ? 1 : 0;
    auto plain_dir = fresh_dir("engine_lazy_plain_qlog");
    auto plain = run_campaign(targets, 2, kSeed, plain_dir.string(),
                              profiles.impairment, retries, kChunk,
                              profiles.adversary);
    auto prebuilt_dir = fresh_dir("engine_lazy_prebuilt_qlog");
    auto prebuilt = run_campaign(targets, 2, kSeed, prebuilt_dir.string(),
                                 profiles.impairment, retries, kChunk,
                                 profiles.adversary,
                                 /*prebuild_reversed=*/true);
    EXPECT_FALSE(plain.csv.empty());
    EXPECT_EQ(prebuilt.csv, plain.csv);
    EXPECT_EQ(prebuilt.metrics_json, plain.metrics_json);
    EXPECT_EQ(prebuilt.shard_metrics_json, plain.shard_metrics_json);
    EXPECT_EQ(prebuilt.report_json, plain.report_json);
    auto plain_traces = dir_snapshot(plain_dir);
    EXPECT_FALSE(plain_traces.empty());
    EXPECT_EQ(dir_snapshot(prebuilt_dir), plain_traces);
  }
}

TEST(EngineDifferential, ChunkWorldBuildsOnlyTheHostsItsTargetsTouch) {
  // A world's cost is O(hosts its traffic touches): a chunk that scans
  // k targets builds at most k server hosts, however large the
  // population is.
  auto targets = campaign_targets(24);
  constexpr size_t kChunk = 7;
  engine::CampaignOptions options;
  options.jobs = 1;
  options.seed = kSeed;
  options.chunk_size = kChunk;
  options.week = kWeek;
  options.population = kPopulation;
  options.snapshot = shared_snapshot();
  engine::Campaign campaign(options);
  std::vector<size_t> built(campaign.slot_count(targets.size()));
  campaign.run(targets.size(), [&](engine::ShardEnv& env) {
    EXPECT_EQ(env.internet->hosts_built(), 0u);
    scanner::QScanner qscanner(env.internet->network(), {});
    for (size_t i = env.range.begin; i < env.range.end; ++i)
      qscanner.scan_one(targets[i]);
    built[static_cast<size_t>(env.shard_index)] =
        env.internet->hosts_built();
  });
  const auto& ranges = campaign.ranges();
  ASSERT_EQ(built.size(), ranges.size());
  for (size_t c = 0; c < ranges.size(); ++c) {
    SCOPED_TRACE("chunk=" + std::to_string(c));
    EXPECT_GT(built[c], 0u);
    EXPECT_LE(built[c], ranges[c].size());
  }
  EXPECT_LT(ranges.front().size(),
            shared_snapshot()->population().hosts().size());
}

TEST(EngineDifferential, ImpairedRunIsReproducible) {
  // Same seed, same profile, two fresh processes-worth of state: the
  // run must be bit-for-bit repeatable (no wall clock, no ASLR-derived
  // hashing, no global RNG leaks into the fabric).
  auto targets = campaign_targets();
  auto first = run_campaign(targets, 1, kSeed, "", "hostile", 1);
  auto second = run_campaign(targets, 1, kSeed, "", "hostile", 1);
  EXPECT_EQ(first.rows, second.rows);
  EXPECT_EQ(first.metrics_json, second.metrics_json);
}

TEST(EngineDifferential, UnknownImpairmentProfileRejectedUpFront) {
  engine::CampaignOptions options;
  options.jobs = 1;
  options.seed = kSeed;
  options.week = kWeek;
  options.population = kPopulation;
  options.impairment = "apocalyptic";
  EXPECT_THROW(engine::Campaign campaign(options), std::invalid_argument);
}

TEST(EngineDifferential, UnknownAdversaryProfileRejectedUpFront) {
  engine::CampaignOptions options;
  options.jobs = 1;
  options.seed = kSeed;
  options.week = kWeek;
  options.population = kPopulation;
  options.adversary = "chaotic-evil";
  EXPECT_THROW(engine::Campaign campaign(options), std::invalid_argument);
}

TEST(EngineDifferential, AdversaryJobs1MatchesSerialBaselineByteForByte) {
  // The misbehaving-endpoint overlay under the engine: a one-chunk
  // --jobs 1 campaign with --adversary broken must reproduce the
  // hand-rolled serial path (apply_adversary called directly) byte for
  // byte.
  auto targets = campaign_targets();
  auto serial = run_serial_baseline(targets, kSeed, "", "", 1, "broken");
  auto engine_run =
      run_campaign(targets, 1, kSeed, "", "", 1, targets.size(), "broken");
  EXPECT_EQ(engine_run.rows, serial.rows);
  EXPECT_EQ(engine_run.metrics_json, serial.metrics_json);
}

TEST(EngineDifferential, AdversaryMergedOutputInvariantAcrossJobsSchedules) {
  // Per-host misbehavior plans key on (population seed, host address)
  // only, so the merged rows, metrics and report.json under any
  // adversary profile are invariant across jobs counts and chunk
  // partitions -- misclassification drift across partitions would
  // surface here as a row diff.
  auto targets = campaign_targets();
  for (const char* profile : {"sloppy", "malicious"}) {
    SCOPED_TRACE(profile);
    auto baseline = run_campaign(targets, 1, kSeed, "", "hostile", 1,
                                 targets.size(), profile);
    for (size_t chunk : {size_t{7}, targets.size() / 4}) {
      for (int jobs : {2, 4, 8}) {
        SCOPED_TRACE("chunk_size=" + std::to_string(chunk) +
                     " jobs=" + std::to_string(jobs));
        auto run = run_campaign(targets, jobs, kSeed, "", "hostile", 1,
                                chunk, profile);
        EXPECT_EQ(run.rows, baseline.rows);
        EXPECT_EQ(run.metrics_json, baseline.metrics_json);
        EXPECT_EQ(run.report_json, baseline.report_json);
      }
    }
  }
}

TEST(EngineDifferential, EmptyTailShardsLeaveOutputUnchanged) {
  // More --jobs than chunks: the pool shrinks to the chunk count, and
  // five one-target chunks must not disturb the merged rows or metrics.
  auto targets = campaign_targets(5);
  ASSERT_EQ(targets.size(), 5u);
  auto serial = run_campaign(targets, 1, kSeed, "", "", 0, targets.size());
  auto oversharded = run_campaign(targets, 7, kSeed);
  EXPECT_EQ(oversharded.rows, serial.rows);
  EXPECT_EQ(oversharded.metrics_json, serial.metrics_json);
}

TEST(EngineDifferential, TcpTlsCampaignShardsIdentically) {
  // The fourth scanner family, TLS-over-TCP (the Goscanner analogue),
  // runs through the same engine: merged rows and merged metrics must
  // not depend on the shard count either.
  std::vector<scanner::TcpTarget> targets;
  {
    netsim::EventLoop loop;
    internet::Internet net(kPopulation, kWeek, loop);
    for (const auto& host : net.population().hosts()) {
      if (!host.address.is_v4()) continue;
      targets.push_back({host.address, std::nullopt});
      if (targets.size() >= 40) break;
    }
  }
  ASSERT_GE(targets.size(), 16u);

  // Slots are chunk-count sized via slot_count, and rows concat in
  // chunk order.
  auto run = [&](int jobs) {
    engine::CampaignOptions options;
    options.jobs = jobs;
    options.seed = kSeed;
    options.week = kWeek;
    options.population = kPopulation;
    options.snapshot = shared_snapshot();
    engine::Campaign campaign(options);
    std::vector<std::vector<std::string>> shard_rows(
        campaign.slot_count(targets.size()));
    campaign.run(targets.size(), [&](engine::ShardEnv& env) {
      scanner::TcpTlsOptions topt;
      topt.seed = env.seed;
      topt.metrics = env.metrics;
      scanner::TcpTlsScanner tcp(env.internet->network(), topt);
      auto& rows = shard_rows[static_cast<size_t>(env.shard_index)];
      for (size_t i = env.range.begin; i < env.range.end; ++i) {
        auto result = tcp.scan_one(targets[i]);
        std::ostringstream row;
        row << result.target.address.to_string() << ','
            << result.port_open << ',' << result.handshake_ok << ','
            << result.http_ok << ',' << result.alt_svc.size();
        rows.push_back(row.str());
      }
    });
    return std::make_pair(engine::concat_shards(std::move(shard_rows)),
                          registry_json(campaign.metrics()));
  };

  auto serial = run(1);
  EXPECT_FALSE(serial.first.empty());
  for (int jobs : {3, 8}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    auto sharded = run(jobs);
    EXPECT_EQ(sharded.first, serial.first);
    EXPECT_EQ(sharded.second, serial.second);
  }
}

TEST(EngineDifferential, CampaignRunIsSingleUse) {
  engine::Campaign campaign({.jobs = 2, .seed = 1, .week = kWeek,
                             .population = kPopulation, .qlog_dir = {}});
  campaign.run(0, [](engine::ShardEnv&) {});
  EXPECT_THROW(campaign.run(0, [](engine::ShardEnv&) {}),
               std::logic_error);
}


TEST(EngineDifferential, CryptoBackendsProduceIdenticalCampaignOutput) {
  // The crypto backend (DESIGN.md "Crypto backends") may only change
  // wall-clock, never an output byte: merged rows, merged and
  // per-chunk metrics JSON, report.json and the qlog trees must be
  // byte-identical between the portable reference backend and the
  // fastest backend this host offers, for one chunk and for many, run
  // inline and on a pool. Portable also pins scalar SHA-256, so this pits the
  // scalar kernel against SHA-NI where the host has it. Every QUIC
  // handshake in the campaign runs AES-GCM and SHA-256, so a single
  // diverging keystream, tag or digest byte would cascade into these
  // artifacts.
  const crypto::Backend contender = crypto::best_backend();
  if (contender == crypto::Backend::kPortable)
    GTEST_SKIP() << "only the portable backend on this host: no second "
                    "backend to pit against it";
  auto targets = campaign_targets();

  struct Config {
    int jobs;
    size_t chunk_size;
  };
  for (const Config& config :
       {Config{1, targets.size()}, Config{1, 0}, Config{4, targets.size() / 4},
        Config{4, 0}}) {
    SCOPED_TRACE("jobs=" + std::to_string(config.jobs) +
                 " chunk_size=" + std::to_string(config.chunk_size));

    auto portable_dir = fresh_dir("engine_backend_portable_qlog");
    CampaignRun reference;
    {
      crypto::ScopedBackendOverride force(crypto::Backend::kPortable);
      reference = run_campaign(targets, config.jobs, kSeed,
                               portable_dir.string(), "", 0,
                               config.chunk_size);
    }
    EXPECT_FALSE(reference.rows.empty());

    auto contender_dir = fresh_dir("engine_backend_contender_qlog");
    CampaignRun run;
    {
      crypto::ScopedBackendOverride force(contender);
      run = run_campaign(targets, config.jobs, kSeed,
                         contender_dir.string(), "", 0, config.chunk_size);
    }

    EXPECT_EQ(run.rows, reference.rows);
    EXPECT_EQ(run.metrics_json, reference.metrics_json);
    EXPECT_EQ(run.shard_metrics_json, reference.shard_metrics_json);
    EXPECT_EQ(run.report_json, reference.report_json);
    auto reference_traces = dir_snapshot(portable_dir);
    EXPECT_FALSE(reference_traces.empty());
    EXPECT_EQ(dir_snapshot(contender_dir), reference_traces);
  }
}

}  // namespace
