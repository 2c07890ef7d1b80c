// Chaos lane (`ctest -L chaos`): campaigns under the fault fabric's
// hostile profiles. These are correctness tests, not benchmarks -- the
// assertions are the robustness contract of ISSUE PR-4:
//
//   * every attempt terminates in a classified Table 3 outcome (no
//     crash, no hang, no silently-skipped target) even under the
//     `hostile` profile's loss + reorder + duplication + corruption;
//   * the retry policy is worth its traffic: on `bursty`, retries
//     strictly reduce the timeout fraction;
//   * the per-AS circuit breaker sheds throttled provider load into
//     the explicit kDegraded/kRateLimited classes instead of burning
//     the campaign deadline;
//   * all of it stays deterministic across --jobs.
//
// Kept out of the fast lane (`ctest -LE 'soak|bench|chaos'`) because a
// 10k-target impaired soak is seconds, not milliseconds.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "internet/internet.h"
#include "netsim/event_loop.h"
#include "scanner/qscanner.h"
#include "telemetry/metrics.h"

namespace {

constexpr uint64_t kSeed = 0x5ca9;
constexpr int kWeek = 18;
constexpr internet::PopulationParams kPopulation{.dns_corpus_scale = 0.01};

struct ChaosRun {
  uint64_t scanned = 0;
  uint64_t attempts = 0;
  uint64_t retries = 0;
  uint64_t breaker_trips = 0;
  double straggler = 1.0;
  std::map<std::string, uint64_t> outcomes;

  uint64_t outcome(const std::string& name) const {
    auto it = outcomes.find(name);
    return it == outcomes.end() ? 0 : it->second;
  }
  uint64_t classified_total() const {
    uint64_t total = 0;
    for (const auto& [_, count] : outcomes) total += count;
    return total;
  }
};

/// One snapshot for every campaign in this binary: world construction
/// is pure over (params, week), so sharing it only buys build time.
std::shared_ptr<const internet::Snapshot> shared_snapshot() {
  static auto snapshot =
      std::make_shared<const internet::Snapshot>(kPopulation, kWeek);
  return snapshot;
}

std::vector<scanner::QscanTarget> make_targets(size_t count) {
  netsim::EventLoop planning_loop;
  internet::Internet planning(shared_snapshot(), planning_loop);
  std::vector<scanner::QscanTarget> base;
  for (const auto& host : planning.population().hosts()) {
    if (!host.address.is_v4()) continue;
    base.push_back({host.address, std::nullopt, host.advertised_versions});
  }
  std::vector<scanner::QscanTarget> targets;
  targets.reserve(count);
  for (size_t i = 0; i < count; ++i)
    targets.push_back(base[i % base.size()]);
  return targets;
}

/// A deliberately skewed list: the first quarter are real scans, the
/// tail advertises only a GREASE version so compatible() skips it for
/// free. With one chunk per worker, one worker inherits nearly all of
/// the real work -- the straggler scenario small chunks exist to erase.
std::vector<scanner::QscanTarget> make_skewed_targets(size_t count) {
  auto targets = make_targets(count);
  for (size_t i = count / 4; i < count; ++i)
    targets[i].version_hint = {0x1a2a3a4au};
  return targets;
}

ChaosRun run_campaign(const std::vector<scanner::QscanTarget>& targets,
                      const std::string& profile, int retries, bool breaker,
                      int jobs, size_t chunk_size = 0,
                      const std::string& adversary = "") {
  engine::CampaignOptions options;
  options.jobs = jobs;
  options.seed = kSeed;
  options.chunk_size = chunk_size;
  options.week = kWeek;
  options.population = kPopulation;
  options.snapshot = shared_snapshot();
  options.impairment = profile;
  options.adversary = adversary;
  engine::Campaign campaign(options);

  std::atomic<uint64_t> scanned{0};
  std::atomic<uint64_t> attempts{0};
  campaign.run(targets.size(), [&](engine::ShardEnv& env) {
    scanner::QscanOptions qopt;
    qopt.seed = env.seed;
    qopt.metrics = env.metrics;
    qopt.retry.max_attempts = 1 + retries;
    qopt.breaker = breaker;
    if (breaker) {
      const auto* population = &env.internet->population();
      qopt.asn_of = [population](const netsim::IpAddress& addr) {
        const auto* host = population->host_by_address(addr);
        return host ? host->asn : 0u;
      };
    }
    scanner::QScanner qscanner(env.internet->network(), qopt);
    uint64_t shard_scanned = 0;
    for (size_t i = env.range.begin; i < env.range.end; ++i) {
      if (!qscanner.compatible(targets[i])) continue;
      qscanner.scan_one(targets[i]);
      ++shard_scanned;
    }
    scanned += shard_scanned;
    attempts += qscanner.attempts();
  });

  ChaosRun run;
  run.scanned = scanned.load();
  run.attempts = attempts.load();
  run.straggler = campaign.straggler_ratio();
  auto counter = [&](const std::string& name) -> uint64_t {
    const auto* c = campaign.metrics().find_counter(name);
    return c ? c->value() : 0;
  };
  run.retries = counter("qscan.retries");
  run.breaker_trips = counter("qscan.breaker_trips");
  for (size_t i = 0; i < scanner::kQscanOutcomeCount; ++i) {
    auto name = scanner::to_string(static_cast<scanner::QscanOutcome>(i));
    run.outcomes[name] = counter("qscan.outcome." + name);
  }
  return run;
}

// The headline soak: 10k targets through the worst profile. The fabric
// corrupts, reorders, duplicates and burst-drops, and the server splits
// its CRYPTO flight so reordering actually lands mid-handshake. Success
// is defined as: the campaign finishes (no crash/hang -- the 900 s
// ctest TIMEOUT is the hang detector) and every attempt lands in
// exactly one outcome class.
TEST(Chaos, HostileSoakClassifiesEveryAttempt) {
  auto targets = make_targets(10'000);
  auto run = run_campaign(targets, "hostile", /*retries=*/1,
                          /*breaker=*/false, /*jobs=*/4);
  EXPECT_GT(run.scanned, 0u);
  EXPECT_EQ(run.classified_total(), run.scanned);
  // Retried timeouts really burn extra wire attempts.
  EXPECT_EQ(run.attempts, run.scanned + run.retries);
  EXPECT_GT(run.retries, 0u);
  // The profile is hostile, not fatal: some handshakes still complete,
  // and plenty still time out.
  EXPECT_GT(run.outcome("Success"), 0u);
  EXPECT_GT(run.outcome("Timeout"), 0u);
}

// The adversarial headline soak (acceptance criterion of the
// misbehaving-endpoint overlay): 10k targets against the `malicious`
// adversary ON TOP of the `hostile` fabric -- every server that the
// per-host plan arms mutates its handshake (malformed/duplicated TPs,
// unknown and illegal frames, bad ACK ranges, conflicting CRYPTO,
// version-negotiation loops, mid-handshake stalls, garbage datagrams)
// while the network corrupts, reorders and burst-drops around it.
// Success is: the campaign finishes (the 900 s ctest TIMEOUT is the
// hang detector), zero crashes, every attempt lands in exactly one
// outcome class, the new taxonomy rows actually fire, and the outcome
// mix is invariant across shard counts.
TEST(Chaos, MaliciousAdversarySoakClassifiesEveryAttempt) {
  // Fixed chunk size: the target list cycles duplicate addresses, so
  // outcome-mix invariance only holds when the chunk partition (and
  // with it each link's fabric draw sequence) is pinned independently
  // of --jobs -- the same K-invariance caveat as the hostile soak.
  constexpr size_t kChunk = 97;
  auto targets = make_targets(10'000);
  auto run = run_campaign(targets, "hostile", /*retries=*/1,
                          /*breaker=*/false, /*jobs=*/4, kChunk,
                          /*adversary=*/"malicious");
  EXPECT_GT(run.scanned, 0u);
  EXPECT_EQ(run.classified_total(), run.scanned);
  EXPECT_EQ(run.attempts, run.scanned + run.retries);
  // The adversary is pervasive, not total: compliant-planned hosts
  // still succeed, and each misbehavior family lands in its own class.
  EXPECT_GT(run.outcome("Success"), 0u);
  EXPECT_GT(run.outcome("Protocol Error"), 0u);
  EXPECT_GT(run.outcome("Version Loop"), 0u);
  EXPECT_GT(run.outcome("Stalled"), 0u);

  // Outcome-mix invariance: per-host plans key on (seed, address) and
  // the chunk worlds line up at the fixed size, so re-sharding the same
  // list must not move a single row between classes.
  for (int jobs : {1, 8}) {
    auto other = run_campaign(targets, "hostile", /*retries=*/1,
                              /*breaker=*/false, jobs, kChunk,
                              /*adversary=*/"malicious");
    EXPECT_EQ(other.outcomes, run.outcomes) << "jobs=" << jobs;
    EXPECT_EQ(other.attempts, run.attempts) << "jobs=" << jobs;
    EXPECT_EQ(other.retries, run.retries) << "jobs=" << jobs;
  }
}

// Retry efficacy (acceptance criterion): on `bursty`, a retry budget
// must strictly reduce the timeout fraction -- the whole point of
// backoff past a loss burst is that the second attempt lands in the
// good state of the Gilbert-Elliott chain.
TEST(Chaos, BurstyRetriesStrictlyReduceTimeouts) {
  auto targets = make_targets(4'000);
  auto base = run_campaign(targets, "bursty", /*retries=*/0,
                           /*breaker=*/false, /*jobs=*/2);
  auto retried = run_campaign(targets, "bursty", /*retries=*/2,
                              /*breaker=*/false, /*jobs=*/2);
  ASSERT_EQ(base.scanned, retried.scanned);
  EXPECT_EQ(base.retries, 0u);
  EXPECT_GT(retried.retries, 0u);
  double base_fraction = static_cast<double>(base.outcome("Timeout")) /
                         static_cast<double>(base.scanned);
  double retried_fraction = static_cast<double>(retried.outcome("Timeout")) /
                            static_cast<double>(retried.scanned);
  EXPECT_LT(retried_fraction, base_fraction);
  // Both runs still classify everything.
  EXPECT_EQ(base.classified_total(), base.scanned);
  EXPECT_EQ(retried.classified_total(), retried.scanned);
}

// The breaker's job on a throttled provider: after the failure
// threshold trips, targets in that AS are shed as kDegraded (zero
// virtual time) with periodic half-open probes recorded as
// kRateLimited when they also fail. Without the breaker every one of
// those targets would burn a full 3 s handshake timeout.
TEST(Chaos, ThrottledBreakerShedsInsteadOfBurningDeadline) {
  auto targets = make_targets(2'000);
  auto run = run_campaign(targets, "throttled", /*retries=*/0,
                          /*breaker=*/true, /*jobs=*/1);
  EXPECT_EQ(run.classified_total(), run.scanned);
  EXPECT_GT(run.breaker_trips, 0u);
  EXPECT_GT(run.outcome("Degraded"), 0u);
  EXPECT_GT(run.outcome("Rate Limited"), 0u);
  // Degraded targets consumed no wire attempts.
  EXPECT_EQ(run.attempts + run.outcome("Degraded"), run.scanned);
}

// Determinism under impairment: the fabric's counter-based draws and
// the retry backoff must not depend on shard count, so the outcome mix
// is identical at any --jobs (the differential test checks the full
// CSV/metrics/qlog byte-identity; this is the chaos-lane smoke of the
// same contract). The list must stay within the distinct-host count:
// K-invariance is defined over deduplicated target lists, because a
// repeated address resumes its link's fabric draw sequence mid-stream
// in whichever shard scans it (see DESIGN.md).
TEST(Chaos, HostileOutcomeMixInvariantAcrossJobs) {
  auto targets = make_targets(2'000);
  auto serial = run_campaign(targets, "hostile", /*retries=*/1,
                             /*breaker=*/false, /*jobs=*/1);
  auto sharded = run_campaign(targets, "hostile", /*retries=*/1,
                              /*breaker=*/false, /*jobs=*/4);
  EXPECT_EQ(serial.scanned, sharded.scanned);
  EXPECT_EQ(serial.attempts, sharded.attempts);
  EXPECT_EQ(serial.retries, sharded.retries);
  EXPECT_EQ(serial.outcomes, sharded.outcomes);
}

// The chunk-scheduler soak: 10k hostile targets whose real work is
// concentrated in the first quarter of the list. One chunk per worker
// (chunk_size = n / 4 on 4 workers) hands nearly all of it to one
// worker; small chunks off the shared cursor spread it across the
// pool. The contract is threefold: every attempt still lands in a
// classified outcome, the busy-time straggler ratio (max/mean across
// workers, core-count robust) drops strictly below the
// one-chunk-per-worker run's, and the outcome mix at a fixed chunk
// size is invariant across --jobs.
TEST(Chaos, DynamicSoakErasesStragglersAndStaysJobsInvariant) {
  constexpr size_t kChunk = 97;  // fixed, so the chunk worlds line up
  auto targets = make_skewed_targets(10'000);

  auto fixed = run_campaign(targets, "hostile", /*retries=*/1,
                            /*breaker=*/false, /*jobs=*/4,
                            targets.size() / 4);
  auto stolen = run_campaign(targets, "hostile", /*retries=*/1,
                             /*breaker=*/false, /*jobs=*/4, kChunk);

  // Both partitions classify every attempted target; the skipped
  // GREASE tail never reaches the wire.
  EXPECT_EQ(fixed.classified_total(), fixed.scanned);
  EXPECT_EQ(stolen.classified_total(), stolen.scanned);
  // (A handful of the real quarter is natively incompatible too, so
  // bound it rather than pinning the exact count.)
  EXPECT_GT(fixed.scanned, targets.size() / 8);
  EXPECT_LE(fixed.scanned, targets.size() / 4);
  EXPECT_EQ(stolen.scanned, fixed.scanned);

  // Same merged outcome mix: the partition moves work between workers,
  // never between outcome classes.
  EXPECT_EQ(stolen.outcomes, fixed.outcomes);
  EXPECT_EQ(stolen.attempts, fixed.attempts);
  EXPECT_EQ(stolen.retries, fixed.retries);

  // Stealing erases the straggler. One chunk per worker pins the whole
  // heavy quarter on one worker (ratio ~ jobs); small chunks must land
  // strictly below it.
  EXPECT_GT(fixed.straggler, 1.5);
  EXPECT_LT(stolen.straggler, fixed.straggler);

  // Jobs-invariance at the fixed chunk size: the chunk partition and
  // seeds are a function of (n, chunk_size, seed) only, so the outcome
  // mix cannot move with the worker count.
  for (int jobs : {1, 2, 8}) {
    auto other = run_campaign(targets, "hostile", /*retries=*/1,
                              /*breaker=*/false, jobs, kChunk);
    EXPECT_EQ(other.outcomes, stolen.outcomes) << "jobs=" << jobs;
    EXPECT_EQ(other.scanned, stolen.scanned) << "jobs=" << jobs;
    EXPECT_EQ(other.attempts, stolen.attempts) << "jobs=" << jobs;
    EXPECT_EQ(other.retries, stolen.retries) << "jobs=" << jobs;
  }
}

}  // namespace
