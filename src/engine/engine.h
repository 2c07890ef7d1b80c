// Campaign engine: multi-core execution of the paper's scan campaigns
// with a hard determinism contract. The paper's tooling covered the
// full IPv4 space and millions of domains per weekly run; the real ZMap
// gets there by sharding the target space across send threads ("Ten
// Years of ZMap"). This engine does the same for every scanner in the
// repository while keeping the one property the real tools never had:
// the merged output is a pure function of the campaign parameters,
// never of thread timing.
//
// One chunk model: the target list is cut into contiguous fixed-size
// chunks (chunk_ranges; default sized so a campaign yields ~8x more
// chunks than workers). Each chunk runs in a fully private world (its
// own virtual-time EventLoop, its own Internet hosts + network fabric
// over a shared immutable internet::Snapshot, its own MetricsRegistry
// and qlog directory) seeded by chunk_seed(seed, chunk_index) --
// independent of jobs -- and workers pull chunk indices from a shared
// atomic cursor. Results, metrics, qlog trees and report accumulators
// fold in chunk index order, so merged output is a pure function of
// (seed, chunk_size, impairment, adversary): byte-identical for every
// --jobs value and every steal schedule. One chunk per worker is a
// balanced static partition; one chunk in all (chunk_seed(seed, 0) ==
// seed) is byte-identical to the historical serial code path.
//
// Per-chunk outputs (qlog traces, per-chunk metrics) are themselves
// deterministic: chunk i is byte-identical to a serial campaign over
// that chunk's targets run with chunk i's seed. Scheduler wall-clock
// telemetry (worker busy/steal-wait time, straggler ratio) is
// inherently non-deterministic and lives in a separate registry
// (scheduler_metrics()), never in the deterministic merged one.
// tests/test_engine_differential.cpp holds the engine to all of this.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "internet/internet.h"
#include "netsim/event_loop.h"
#include "telemetry/metrics.h"
#include "telemetry/scheduler.h"
#include "telemetry/trace.h"

namespace engine {

/// Kept only because campaign_bench/workloads.cpp, which cannot change
/// outside a benchmark-scope change, still names it: the chunk
/// scheduler is the only schedule, and CampaignOptions::schedule is
/// read by nothing.
enum class Schedule { kDynamic };

/// A contiguous half-open target range [begin, end).
struct ShardRange {
  size_t begin = 0;
  size_t end = 0;
  size_t size() const { return end - begin; }
  bool operator==(const ShardRange&) const = default;
};

/// Derives the scanner seed of one chunk from the campaign seed.
/// Chunk 0 inherits the campaign seed unchanged (a one-chunk campaign
/// is bit-compatible with the serial path); every other chunk gets an
/// independent splitmix64 stream keyed by its index. Deliberately a
/// function of (seed, chunk_index) ONLY -- never of jobs -- so the
/// chunk worlds, and with them every byte of merged output, are
/// invariant under the worker count and steal schedule.
uint64_t chunk_seed(uint64_t campaign_seed, size_t chunk_index);

/// Splits n targets into fixed-size chunks: every chunk spans
/// `chunk_size` targets except a short tail, concatenating the chunks
/// in index order yields 0..n-1, and every index lands in exactly one
/// chunk. chunk_size is clamped to >= 1; chunk_size > n yields a
/// single chunk [0, n). n == 0 yields one empty chunk [0, 0) so a
/// campaign always runs at least one world and the merged metrics
/// carry the same key set as a non-empty run.
std::vector<ShardRange> chunk_ranges(size_t n, size_t chunk_size);

/// The default chunk size: targets ~8 chunks per worker
/// (max(1, n / (8 * jobs))), enough granularity for stealing to erase
/// stragglers. Extra chunks are cheap: a chunk world builds only the
/// server hosts its targets touch (DESIGN.md "Lazy hosts").
size_t default_chunk_size(size_t n, int jobs);

/// Everything a chunk body may touch. All pointers refer to
/// chunk-private state owned by the engine for the duration of the
/// body call; nothing here is visible to any other chunk.
struct ShardEnv {
  /// Chunk index: the caller's exclusive slot number -- see
  /// Campaign::slot_count.
  int shard_index = 0;
  /// Scanner seed for this chunk: chunk_seed of the campaign seed.
  uint64_t seed = 0;
  /// The contiguous slice of the campaign's target list this body owns.
  ShardRange range;
  netsim::EventLoop* loop = nullptr;
  internet::Internet* internet = nullptr;
  /// Chunk-private registry; the engine merges all of them in chunk
  /// order after the run.
  telemetry::MetricsRegistry* metrics = nullptr;
  /// Per-attempt qlog sinks, or an empty factory when tracing is off.
  /// With more than one chunk, each writes into <qlog_dir>/chunkNNNN/;
  /// a single-chunk campaign writes into <qlog_dir> directly, matching
  /// the serial CLIs byte for byte.
  telemetry::TraceSinkFactory trace_factory;
};

struct CampaignOptions {
  /// Worker threads (pool size only -- the chunk count comes from
  /// chunk_size). 1 runs every chunk inline on the calling thread, in
  /// chunk order.
  int jobs = 1;
  /// Campaign seed; per-chunk scanner seeds derive via chunk_seed().
  uint64_t seed = 0;
  /// Read by nothing; see Schedule.
  Schedule schedule = Schedule::kDynamic;
  /// Chunk size in targets; 0 picks default_chunk_size(n, jobs). Part
  /// of the determinism key: merged output is a pure function of
  /// (seed, chunk_size, impairment), and qlog trees additionally fix
  /// the chunk partition, so comparing trees across jobs requires an
  /// explicit --chunk-size (the auto size depends on jobs).
  size_t chunk_size = 0;
  /// Synthetic-internet snapshot; built once per campaign and shared
  /// read-only by every chunk world.
  int week = 18;
  internet::PopulationParams population{};
  /// Pre-built snapshot to share with the campaign (CLIs reuse their
  /// planning world's). When set it must have been built from the same
  /// (population, week) as above; when null, run() builds one.
  std::shared_ptr<const internet::Snapshot> snapshot;
  /// qlog output root; empty disables tracing.
  std::string qlog_dir;
  /// Named fault-fabric profile ("clean", "lossy", "bursty", "hostile",
  /// "throttled") applied to every server link of each chunk's private
  /// internet before the body runs. Empty or "clean" leaves the fabric
  /// untouched. Unknown names throw std::invalid_argument from the
  /// Campaign constructor. Because impairment RNG is counter-based and
  /// keyed per (seed, link, datagram), the merged campaign output stays
  /// a pure function of (seed, chunk_size, impairment).
  std::string impairment;
  /// Named misbehaving-endpoint profile ("compliant", "sloppy",
  /// "broken", "malicious") overlaid onto every server host of each
  /// chunk's private internet, right after the impairment overlay.
  /// Empty or "compliant" leaves the endpoints untouched; unknown names
  /// throw std::invalid_argument from the Campaign constructor. Unset
  /// (empty) falls back to the QREPRO_ADVERSARY environment variable,
  /// the CI knob verify_all.sh uses to sweep sanitizer lanes through a
  /// hostile endpoint fabric. Per-host plans are stateless hashes of
  /// (population seed, host address) -- see internet/adversary.h -- so
  /// the merged output stays a pure function of
  /// (seed, chunk_size, impairment, adversary).
  std::string adversary;
};

/// Runs one campaign body per chunk and owns the deterministic merge.
///
///   engine::Campaign campaign(options);
///   std::vector<std::vector<Row>> rows(campaign.slot_count(targets.size()));
///   campaign.run(targets.size(), [&](engine::ShardEnv& env) {
///     Scanner s(env.internet->network(), opts_with(env));
///     for (size_t i = env.range.begin; i < env.range.end; ++i)
///       rows[env.shard_index].push_back(s.scan_one(targets[i]));
///   });
///   // rows concatenated in chunk order == serial order;
///   // campaign.metrics() is the merged registry.
///
/// Bodies receive a chunk index and may write only to their own slot
/// of caller-side output vectors -- the engine never copies results,
/// it just guarantees exclusive slots and a barrier at the end of
/// run(). Exceptions thrown by a body are captured per chunk and the
/// lowest-index one is rethrown on the caller thread after all
/// workers joined.
class Campaign {
 public:
  explicit Campaign(CampaignOptions options);

  using ShardBody = std::function<void(ShardEnv&)>;

  /// Cuts `target_count` targets into chunks and runs `body` once per
  /// chunk: min(jobs, chunks) workers pull chunk indices from a shared
  /// atomic cursor (inline in chunk order when jobs == 1). May be
  /// called once per Campaign instance.
  void run(size_t target_count, const ShardBody& body);

  /// Number of body invocations -- and caller-side result slots --
  /// run(target_count, ...) will produce: the chunk count of
  /// chunk_ranges(target_count, resolved chunk size). Size result
  /// vectors with this before calling run().
  size_t slot_count(size_t target_count) const;

  /// The chunk size a run over `target_count` targets uses
  /// (options.chunk_size, or default_chunk_size when 0).
  size_t resolved_chunk_size(size_t target_count) const;

  /// The chunk ranges of the most recent run (empty before run()).
  const std::vector<ShardRange>& ranges() const { return ranges_; }

  /// Merged registry, valid after run(): per-chunk registries folded
  /// in chunk index order (the order is immaterial -- merge_from is
  /// associative and commutative -- but fixing it keeps the code
  /// auditably deterministic).
  const telemetry::MetricsRegistry& metrics() const { return merged_; }

  /// Per-chunk registries of the most recent run, for tests and tools
  /// that check the chunk/serial equivalence directly.
  const telemetry::MetricsRegistry& shard_metrics(int chunk) const {
    return *shard_metrics_[static_cast<size_t>(chunk)];
  }

  /// Wall-clock scheduler telemetry of the most recent run: per-worker
  /// busy/steal-wait/chunks-run counters, chunk-duration histogram,
  /// straggler gauge (see telemetry/scheduler.h). Non-deterministic by
  /// nature -- kept strictly out of metrics().
  const telemetry::MetricsRegistry& scheduler_metrics() const {
    return sched_registry_;
  }

  /// Max/mean worker busy time of the most recent run (1.0 = balanced).
  double straggler_ratio() const { return sched_.straggler_ratio(); }

 private:
  void run_chunk(int chunk, const ShardBody& body);

  CampaignOptions options_;
  std::vector<ShardRange> ranges_;
  std::shared_ptr<const internet::Snapshot> snapshot_;
  std::vector<std::unique_ptr<telemetry::MetricsRegistry>> shard_metrics_;
  telemetry::MetricsRegistry merged_;
  telemetry::SchedulerStats sched_;
  telemetry::MetricsRegistry sched_registry_;
  bool ran_ = false;
};

/// Stable merge of per-chunk result vectors by a strict-weak-order key,
/// for campaigns whose serial baseline emits key-sorted output (the
/// ZMap sweep collects hits in address order). Each chunk's vector must
/// already be sorted by `less` -- true for per-chunk ZMap hit lists --
/// and chunks own disjoint target subsets, so the K-way merge
/// reproduces the serial (globally sorted) order for every partition.
template <typename T, typename Less>
std::vector<T> merge_sorted_shards(std::vector<std::vector<T>> shards,
                                   Less less) {
  std::vector<T> merged;
  size_t total = 0;
  for (const auto& shard : shards) total += shard.size();
  merged.reserve(total);
  std::vector<size_t> next(shards.size(), 0);
  for (size_t emitted = 0; emitted < total; ++emitted) {
    size_t best = shards.size();
    for (size_t s = 0; s < shards.size(); ++s) {
      if (next[s] >= shards[s].size()) continue;
      if (best == shards.size() ||
          less(shards[s][next[s]], shards[best][next[best]]))
        best = s;
    }
    merged.push_back(std::move(shards[best][next[best]]));
    ++next[best];
  }
  return merged;
}

/// Per-chunk accumulator slots plus the deterministic fold, for
/// campaign-side aggregates that merge like MetricsRegistry (an
/// associative + commutative merge_from with the default-constructed
/// value as identity -- report::ReportAccumulator is the canonical
/// case). Bodies touch only slot(env.shard_index), which the engine's
/// exclusive-slot contract makes race-free; merged() folds the slots
/// in chunk index order, so the result is a pure function of the
/// campaign for every jobs count and steal schedule. Size with
/// Campaign::slot_count(target_count).
template <typename T>
class ShardFold {
 public:
  /// One default-constructed slot per chunk.
  explicit ShardFold(size_t slots) : slots_(slots) {}
  /// One factory-constructed slot per chunk (accumulators that carry
  /// configuration, e.g. a source label).
  ShardFold(size_t slots, const std::function<T()>& factory) {
    slots_.reserve(slots);
    for (size_t i = 0; i < slots; ++i) slots_.push_back(factory());
  }

  T& slot(int shard_index) {
    return slots_[static_cast<size_t>(shard_index)];
  }
  size_t size() const { return slots_.size(); }

  /// Folds every slot into a default-constructed T in chunk index
  /// order. Valid only after the campaign's run() barrier.
  T merged() const {
    T out;
    for (const T& slot : slots_) out.merge_from(slot);
    return out;
  }

 private:
  std::vector<T> slots_;
};

/// Concatenation in chunk index order, for campaigns whose serial
/// baseline preserves input order (QScanner target files, DNS corpora):
/// with contiguous chunks this reproduces the serial output order.
template <typename T>
std::vector<T> concat_shards(std::vector<std::vector<T>> shards) {
  std::vector<T> merged;
  size_t total = 0;
  for (const auto& shard : shards) total += shard.size();
  merged.reserve(total);
  for (auto& shard : shards)
    for (auto& item : shard) merged.push_back(std::move(item));
  return merged;
}

}  // namespace engine
