// The benchmark's workloads: the paper's weekly campaign (Table 3)
// driven through engine::Campaign with the scanners' public APIs.
//
// Every workload runs the same per-week pipeline, four stages deep:
//   1. DNS: bulk-resolve the week's domain lists (A, AAAA, HTTPS RR).
//   2. TLS over TCP: handshake (address, domain) pairs joined from the
//      DNS answers and collect QUIC Alt-Svc announcements.
//   3. QUIC: a ZMap version-negotiation sweep, then QScanner handshakes
//      over the responders (no SNI) or over the announced pairs (SNI).
//   4. Report: fold, merge and render report.json/report.md and the CSV.
// Stages 1-3 are one Campaign each; every slice folds its rows into a
// ReportAccumulator slot and stage 4 runs on the calling thread.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "digest.h"
#include "internet/internet.h"
#include "span.h"
#include "telemetry/metrics.h"

namespace bench {

struct WorkloadSpec {
  std::string name;
  /// Calendar weeks, each one campaign unit.
  std::vector<int> weeks;
  /// false: the sweep pipeline (five DNS lists, ZMap over the IPv4
  /// candidates and the IPv6 hitlist, QScanner without SNI, Alt-Svc on
  /// the top list's pairs). true: the SNI pipeline (seeded domain draw,
  /// DNS join, Alt-Svc on every pair, QScanner with SNI on the
  /// announced pairs).
  bool sni = false;
  /// Domains the SNI generator draws per seed.
  size_t sni_domains = 0;
  /// Sweep pipeline: the DNS stage resolves a seeded 1-in-N sample of
  /// every list (the com/net/org corpus alone is ~250 k names a week).
  uint64_t dns_sample = 1;
  /// Fault-fabric and endpoint profiles of the QUIC stage only, so the
  /// SNI target list is the same with and without them.
  std::string quic_impairment;
  std::string quic_adversary;
  int quic_retries = 0;
  /// Pinned chunk sizes: output is a pure function of (workload, seed).
  size_t dns_chunk = 0;
  size_t tcp_chunk = 0;
  size_t quic_chunk = 0;
};

const std::vector<WorkloadSpec>& workloads();
/// nullptr for an unknown name.
const WorkloadSpec* find_workload(const std::string& name);

/// One week's prepared inputs (built during set-up).
struct WeekInputs {
  int week = 0;
  std::shared_ptr<const internet::Snapshot> snapshot;
  /// DNS input: domains in list order, with the index of their list in
  /// `lists`; runs of one list are contiguous.
  std::vector<std::string> lists;
  std::vector<std::string> domains;
  std::vector<uint8_t> domain_list;
  /// The list whose DNS answers feed the Alt-Svc stage.
  std::string alt_svc_list;
  /// Sweep pipeline: IPv4 candidates then the IPv6 hitlist, in a
  /// seeded order (ZMap walks its address space in a random
  /// permutation).
  std::vector<netsim::IpAddress> sweep;
};

struct Inputs {
  std::vector<WeekInputs> weeks;
  /// Wall time of each snapshot build, in milliseconds.
  std::vector<double> snapshot_ms;
};

/// Builds every week's snapshot and input lists for `seed`.
Inputs make_inputs(const WorkloadSpec& spec, uint64_t seed);

/// The seeded SNI generator: `count` distinct domains drawn from the
/// population's domain -> host table (domains hosted nowhere are never
/// drawn), in draw order.
std::vector<std::string> draw_sni_domains(const internet::Population& pop,
                                          size_t count, uint64_t seed);

/// Deterministic Fisher-Yates shuffle keyed by `seed` (splitmix64, so
/// the order is the same on every standard library).
void seeded_shuffle(std::vector<netsim::IpAddress>& items, uint64_t seed);

/// Wall-clock account of one Campaign::run.
struct CampaignAccount {
  int workers = 0;
  uint64_t wall_us = 0;
  uint64_t chunks = 0;
  uint64_t busy_us = 0;
  uint64_t max_worker_busy_us = 0;
};

/// Wall and process CPU time of one campaign unit.
struct UnitTiming {
  double wall_s = 0;
  double cpu_s = 0;
};

/// One repetition of the campaign phase.
struct RepResult {
  std::vector<UnitDigests> units;
  /// Parallel to `units`.
  std::vector<UnitTiming> timings;
  /// Entries with no classified result (missing rows, unclassified
  /// outcomes, slices that threw).
  uint64_t missing = 0;
  std::vector<std::string> errors;
  /// Deterministic metrics of every campaign, merged.
  telemetry::MetricsRegistry metrics;
  std::vector<CampaignAccount> campaigns;

  uint64_t targets() const;
  uint64_t stateful() const;
  uint64_t successes() const;
};

RepResult run_rep(const WorkloadSpec& spec, const Inputs& inputs,
                  uint64_t seed, int jobs, SpanRecorder& spans);

/// User + system CPU seconds of the whole process so far.
double process_cpu_s();

}  // namespace bench
