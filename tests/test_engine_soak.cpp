// Soak test for the sharded campaign engine (ctest label: soak; run it
// alone with `ctest -L soak`, exclude it with `ctest -LE soak`). A
// 10'000-target stateful campaign at --jobs 8 must agree with the
// serial run on every Table 3 outcome count -- zero drift, not
// approximately zero -- and the whole exercise must stay inside a
// bounded memory footprint. The ASan tree runs this same binary under
// leak detection, so per-attempt allocations that escape their shard
// world fail the build there. The report-pipeline soak holds the
// streaming report JSON of the same campaign to byte-identity across
// jobs 1/2/4/8 and against an offline CSV replay.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "internet/internet.h"
#include "report/csv.h"
#include "report/report.h"
#include "scanner/qscanner.h"
#include "telemetry/metrics.h"

namespace {

constexpr uint64_t kSeed = 0x5ca9;
constexpr int kWeek = 18;
constexpr size_t kTargets = 10'000;
constexpr internet::PopulationParams kPopulation{.dns_corpus_scale = 0.01};

// 10k targets cycled over the population's IPv4 hosts, so the list is
// larger than the host set and every shard revisits hosts -- the
// worst case for hidden cross-attempt state.
/// One snapshot shared by every campaign in this binary; world
/// construction is pure over (params, week).
std::shared_ptr<const internet::Snapshot> shared_snapshot() {
  static auto snapshot =
      std::make_shared<const internet::Snapshot>(kPopulation, kWeek);
  return snapshot;
}

std::vector<scanner::QscanTarget> soak_targets() {
  netsim::EventLoop loop;
  internet::Internet net(shared_snapshot(), loop);
  std::vector<scanner::QscanTarget> base;
  for (const auto& host : net.population().hosts()) {
    if (!host.address.is_v4()) continue;
    base.push_back({host.address, std::nullopt,
                    host.advertised_versions});
  }
  std::vector<scanner::QscanTarget> targets;
  targets.reserve(kTargets);
  for (size_t i = 0; i < kTargets; ++i)
    targets.push_back(base[i % base.size()]);
  return targets;
}

struct SoakOutcome {
  std::map<std::string, uint64_t> outcome_counts;
  uint64_t attempts = 0;
  size_t rows = 0;
};

SoakOutcome run_soak(const std::vector<scanner::QscanTarget>& targets,
                     int jobs) {
  engine::CampaignOptions options;
  options.jobs = jobs;
  options.seed = kSeed;
  options.week = kWeek;
  options.population = kPopulation;
  options.snapshot = shared_snapshot();
  engine::Campaign campaign(options);

  // Under the dynamic default the slice count is the chunk count, not
  // jobs -- size every slot vector with slot_count.
  const size_t slots = campaign.slot_count(targets.size());
  std::vector<size_t> shard_rows(slots, 0);
  std::vector<uint64_t> shard_attempts(slots, 0);
  campaign.run(targets.size(), [&](engine::ShardEnv& env) {
    scanner::QscanOptions qopt;
    qopt.seed = env.seed;
    qopt.metrics = env.metrics;
    scanner::QScanner qscanner(env.internet->network(), qopt);
    for (size_t i = env.range.begin; i < env.range.end; ++i) {
      if (!qscanner.compatible(targets[i])) continue;
      qscanner.scan_one(targets[i]);
      ++shard_rows[static_cast<size_t>(env.shard_index)];
    }
    shard_attempts[static_cast<size_t>(env.shard_index)] =
        qscanner.attempts();
  });

  SoakOutcome out;
  for (size_t s = 0; s < slots; ++s) {
    out.rows += shard_rows[s];
    out.attempts += shard_attempts[s];
  }
  for (int i = 0; i < 5; ++i) {
    auto name = scanner::to_string(static_cast<scanner::QscanOutcome>(i));
    const auto* counter =
        campaign.metrics().find_counter("qscan.outcome." + name);
    out.outcome_counts[name] = counter ? counter->value() : 0;
  }
  return out;
}

TEST(EngineSoak, TenThousandTargetsZeroOutcomeDriftAtJobs8) {
  auto targets = soak_targets();
  ASSERT_EQ(targets.size(), kTargets);

  auto serial = run_soak(targets, 1);
  auto sharded = run_soak(targets, 8);

  // Sanity: the campaign really scanned (nearly) everything -- only
  // version-incompatible targets are filtered before an attempt.
  EXPECT_GT(serial.rows, kTargets / 2);
  EXPECT_EQ(serial.rows, serial.attempts);

  // The contract: zero drift, outcome class by outcome class.
  EXPECT_EQ(sharded.rows, serial.rows);
  EXPECT_EQ(sharded.attempts, serial.attempts);
  EXPECT_EQ(sharded.outcome_counts, serial.outcome_counts);

  // Every attempt is accounted for by exactly one outcome class.
  uint64_t classified = 0;
  for (const auto& [name, count] : serial.outcome_counts)
    classified += count;
  EXPECT_EQ(classified, serial.attempts);

  // Bounded footprint: two 10k campaigns plus ten shard worlds must
  // not balloon the peak RSS. The bound is deliberately generous (the
  // run needs well under 1 GiB even under ASan); it exists to catch
  // unbounded growth, e.g. shard worlds kept alive after the merge.
  struct rusage usage;
  ASSERT_EQ(getrusage(RUSAGE_SELF, &usage), 0);
  EXPECT_LT(usage.ru_maxrss, 4L * 1024 * 1024);  // KiB on Linux: < 4 GiB
}

struct ReportSoak {
  std::string json;
  std::string csv;
};

// The qscanner_cli --targets --report pipeline at soak scale: rows
// stream into per-shard accumulator slots, and the artifact is the
// shard-order fold.
ReportSoak run_report_soak(const std::vector<scanner::QscanTarget>& targets,
                           int jobs) {
  engine::CampaignOptions options;
  options.jobs = jobs;
  options.seed = kSeed;
  options.week = kWeek;
  options.population = kPopulation;
  options.snapshot = shared_snapshot();
  engine::Campaign campaign(options);

  const size_t slots = campaign.slot_count(targets.size());
  std::vector<std::vector<report::QscanRowFeatures>> shard_rows(slots);
  engine::ShardFold<report::ReportAccumulator> fold(
      slots, [] { return report::ReportAccumulator("qscanner"); });
  campaign.run(targets.size(), [&](engine::ShardEnv& env) {
    auto& acc = fold.slot(env.shard_index);
    acc.attach_metrics(env.metrics);
    const auto& registry = env.internet->population().as_registry();
    scanner::QscanOptions qopt;
    qopt.seed = env.seed;
    qopt.metrics = env.metrics;
    scanner::QScanner qscanner(env.internet->network(), qopt);
    auto& rows = shard_rows[static_cast<size_t>(env.shard_index)];
    for (size_t i = env.range.begin; i < env.range.end; ++i) {
      if (!qscanner.compatible(targets[i])) continue;
      auto features = report::features_of(qscanner.scan_one(targets[i]));
      acc.add_row(features, registry.asn_for(targets[i].address));
      rows.push_back(std::move(features));
    }
  });

  ReportSoak out;
  out.csv = std::string(report::kQscanCsvHeader) + "\n";
  for (const auto& features : engine::concat_shards(std::move(shard_rows)))
    out.csv += report::to_csv_row(features) + "\n";
  std::ostringstream json;
  report::write_report_json(json, fold.merged());
  out.json = json.str();
  return out;
}

TEST(EngineSoak, TenThousandTargetReportByteIdenticalAcrossJobs) {
  auto targets = soak_targets();
  ASSERT_EQ(targets.size(), kTargets);

  auto baseline = run_report_soak(targets, 1);
  ASSERT_FALSE(baseline.json.empty());
  for (int jobs : {2, 4, 8}) {
    auto run = run_report_soak(targets, jobs);
    EXPECT_EQ(run.json, baseline.json) << "jobs " << jobs;
    EXPECT_EQ(run.csv, baseline.csv) << "jobs " << jobs;
  }

  // Offline replay of the merged campaign CSV (the qreport_cli path)
  // reproduces the streaming report byte for byte at soak scale.
  const internet::AsRegistry& registry = internet::campaign_as_registry();
  report::ReportAccumulator replay("qscanner");
  auto rows = report::parse_csv(baseline.csv);
  ASSERT_GT(rows.size(), 1u);
  for (size_t i = 1; i < rows.size(); ++i) {
    auto features = report::features_from_csv(rows[i]);
    ASSERT_TRUE(features.has_value()) << "row " << i;
    auto addr = netsim::IpAddress::parse(features->address);
    ASSERT_TRUE(addr.has_value()) << "row " << i;
    replay.add_row(*features, registry.asn_for(*addr));
  }
  std::ostringstream replay_json;
  report::RenderOptions render;
  render.as_registry = &registry;
  report::write_report_json(replay_json, replay, render);
  EXPECT_EQ(replay_json.str(), baseline.json);
}

}  // namespace
