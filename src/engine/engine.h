// Sharded campaign engine: multi-core execution of the paper's scan
// campaigns with a hard determinism contract. The paper's tooling
// covered the full IPv4 space and millions of domains per weekly run;
// the real ZMap gets there by splitting the target space across send
// threads ("Ten Years of ZMap"). This engine does the same for every
// scanner in the repository while keeping the one property the real
// tools never had: the merged output is a pure function of the
// campaign parameters, never of thread timing.
//
// Two schedules share one model -- the target list is cut into
// contiguous, order-stable slices, each slice runs in a fully private
// world (its own virtual-time EventLoop, its own Internet hosts +
// network fabric over a shared immutable internet::Snapshot, its own
// MetricsRegistry and qlog directory), and results, metrics, qlog
// trees and report accumulators fold in slice index order:
//
//   - Static (`Schedule::kStatic`): K = jobs balanced shards
//     (shard_ranges), shard i pinned to worker thread i, seeds via
//     shard_seed(). Merged output is a pure function of (seed, jobs,
//     impairment). This is the PR-2 scheduler, kept for comparison.
//   - Dynamic (`Schedule::kDynamic`, the default): the list is cut
//     into fixed-size chunks (chunk_ranges; default sized so a
//     campaign yields ~8x more chunks than workers), each chunk's
//     seed is chunk_seed(seed, chunk_index) -- independent of jobs --
//     and workers pull chunk indices from a shared atomic cursor.
//     Which worker runs which chunk varies with steal interleaving,
//     but a chunk's output depends only on its index and seed, and
//     the fold is in chunk index order, so merged output is a pure
//     function of (seed, chunk_size, impairment): byte-identical for
//     every --jobs value and every steal schedule.
//
// shard_seed(seed, 0) == chunk_seed(seed, 0) == seed, which is what
// makes a single-slice campaign (static --jobs 1, or dynamic with one
// chunk) byte-identical to the historical serial code path.
//
// Per-slice outputs (qlog traces, per-slice metrics) are themselves
// deterministic: slice i is byte-identical to a serial campaign over
// that slice's targets run with slice i's seed. Scheduler wall-clock
// telemetry (worker busy/steal-wait time, straggler ratio) is
// inherently non-deterministic and lives in a separate registry
// (scheduler_metrics()), never in the deterministic merged one.
// tests/test_engine_differential.cpp holds the engine to all of this.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "internet/internet.h"
#include "netsim/event_loop.h"
#include "telemetry/metrics.h"
#include "telemetry/scheduler.h"
#include "telemetry/trace.h"

namespace engine {

/// How the campaign maps target slices onto worker threads.
enum class Schedule {
  /// jobs contiguous balanced shards, shard i on worker i (PR-2 path).
  kStatic,
  /// Fixed-size chunks pulled off a shared atomic cursor; deterministic
  /// by chunk-index-order folding. The default.
  kDynamic,
};

/// Parses "static"/"dynamic"; any other name throws
/// std::invalid_argument (CLIs surface it as a usage error).
Schedule parse_schedule(const std::string& name);
const char* schedule_name(Schedule schedule);

/// Derives the scanner seed of one shard from the campaign seed.
/// Shard 0 inherits the campaign seed unchanged -- a single-shard
/// campaign must be bit-compatible with the pre-engine serial path --
/// and every other shard gets an independent splitmix64 stream keyed
/// by its index, so shards never share connection entropy.
uint64_t shard_seed(uint64_t campaign_seed, uint32_t shard_index);

/// A contiguous half-open target range [begin, end).
struct ShardRange {
  size_t begin = 0;
  size_t end = 0;
  size_t size() const { return end - begin; }
  bool operator==(const ShardRange&) const = default;
};

/// Splits n targets into `jobs` contiguous balanced ranges: the first
/// n % jobs shards take one extra target. The partition is exact
/// (every index in exactly one range) and order-stable (concatenating
/// the ranges in shard order yields 0..n-1). jobs is clamped to >= 1;
/// with jobs > n the tail ranges are empty but still run, so the
/// merged metrics carry the same key set for every K.
std::vector<ShardRange> shard_ranges(size_t n, int jobs);

/// The shard that owns target index i under shard_ranges(n, jobs).
/// O(1) arithmetic over the balanced partition, no range scan.
int shard_of(size_t index, size_t n, int jobs);

/// Derives the scanner seed of one dynamic chunk from the campaign
/// seed. Chunk 0 inherits the campaign seed unchanged (a one-chunk
/// dynamic campaign is bit-compatible with the serial path); every
/// other chunk gets an independent splitmix64 stream keyed by its
/// index. Deliberately a function of (seed, chunk_index) ONLY -- never
/// of jobs -- so the chunk worlds, and with them every byte of merged
/// output, are invariant under the worker count and steal schedule.
uint64_t chunk_seed(uint64_t campaign_seed, size_t chunk_index);

/// Splits n targets into fixed-size chunks: every chunk spans
/// `chunk_size` targets except a short tail, concatenating the chunks
/// in index order yields 0..n-1, and every index lands in exactly one
/// chunk. chunk_size is clamped to >= 1; chunk_size > n yields a
/// single chunk [0, n). n == 0 yields one empty chunk [0, 0) so a
/// dynamic campaign always runs at least one world and the merged
/// metrics carry the same key set as a non-empty run.
std::vector<ShardRange> chunk_ranges(size_t n, size_t chunk_size);

/// The default dynamic chunk size: targets ~8 chunks per worker
/// (max(1, n / (8 * jobs))), enough granularity for stealing to erase
/// stragglers. Extra chunks are cheap: a chunk world builds only the
/// server hosts its targets touch (DESIGN.md "Lazy hosts").
size_t default_chunk_size(size_t n, int jobs);

/// Everything a slice body may touch. All pointers refer to
/// slice-private state owned by the engine for the duration of the
/// body call; nothing here is visible to any other slice. "Slice"
/// means shard under Schedule::kStatic and chunk under kDynamic --
/// the body contract is identical.
struct ShardEnv {
  /// Slice index: shard index (static) or chunk index (dynamic). This
  /// is the caller's exclusive slot number -- see Campaign::slot_count.
  int shard_index = 0;
  /// Total slice count of this run (== Campaign::slot_count). NOT the
  /// worker thread count under kDynamic.
  int jobs = 1;
  /// Scanner seed for this slice: shard_seed (static) or chunk_seed
  /// (dynamic) of the campaign seed.
  uint64_t seed = 0;
  /// The contiguous slice of the campaign's target list this body owns.
  ShardRange range;
  netsim::EventLoop* loop = nullptr;
  internet::Internet* internet = nullptr;
  /// Slice-private registry; the engine merges all of them in slice
  /// order after the run.
  telemetry::MetricsRegistry* metrics = nullptr;
  /// Per-attempt qlog sinks, or an empty factory when tracing is off.
  /// With more than one slice, each writes into <qlog_dir>/shardNN/
  /// (static) or <qlog_dir>/chunkNNNN/ (dynamic); a single-slice
  /// campaign writes into <qlog_dir> directly, matching the serial
  /// CLIs byte for byte.
  telemetry::TraceSinkFactory trace_factory;
};

struct CampaignOptions {
  /// Worker threads. Static: also the shard count. Dynamic: pool size
  /// only -- the slice count comes from chunk_size. 1 runs every slice
  /// inline on the calling thread (the serial path, exactly).
  int jobs = 1;
  /// Campaign seed; per-slice scanner seeds derive via shard_seed()
  /// (static) or chunk_seed() (dynamic).
  uint64_t seed = 0;
  /// Slice-onto-worker mapping; see Schedule. Unset resolves to
  /// kDynamic -- unless the QREPRO_SCHEDULE environment variable names
  /// a mode ("static"/"dynamic"), the CI knob verify_all.sh uses to
  /// sweep the default-schedule test lane through both modes. An
  /// explicit setting always wins over the environment. The Campaign
  /// constructor resolves it, so Campaign::options().schedule is
  /// always engaged.
  std::optional<Schedule> schedule;
  /// Dynamic chunk size in targets; 0 picks default_chunk_size(n, jobs).
  /// Ignored under Schedule::kStatic. Part of the determinism key:
  /// merged output is a pure function of (seed, chunk_size, impairment),
  /// and qlog trees additionally fix the chunk partition, so comparing
  /// trees across jobs requires an explicit --chunk-size (the auto size
  /// depends on jobs).
  size_t chunk_size = 0;
  /// Synthetic-internet snapshot; built once per campaign and shared
  /// read-only by every slice world.
  int week = 18;
  internet::PopulationParams population{};
  /// Pre-built snapshot to share with the campaign (CLIs reuse their
  /// planning world's). When set it must have been built from the same
  /// (population, week) as above; when null, run() builds one.
  std::shared_ptr<const internet::Snapshot> snapshot;
  /// qlog output root; empty disables tracing.
  std::string qlog_dir;
  /// Named fault-fabric profile ("clean", "lossy", "bursty", "hostile",
  /// "throttled") applied to every server link of each shard's private
  /// internet before the body runs. Empty or "clean" leaves the fabric
  /// untouched. Unknown names throw std::invalid_argument from the
  /// Campaign constructor. Because impairment RNG is counter-based and
  /// keyed per (seed, link, datagram), the merged campaign output stays
  /// a pure function of (seed, jobs, impairment).
  std::string impairment;
  /// Named misbehaving-endpoint profile ("compliant", "sloppy",
  /// "broken", "malicious") overlaid onto every server host of each
  /// slice's private internet, right after the impairment overlay.
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

/// Runs one campaign body per slice and owns the deterministic merge.
///
///   engine::Campaign campaign(options);
///   std::vector<std::vector<Row>> rows(campaign.slot_count(targets.size()));
///   campaign.run(targets.size(), [&](engine::ShardEnv& env) {
///     Scanner s(env.internet->network(), opts_with(env));
///     for (size_t i = env.range.begin; i < env.range.end; ++i)
///       rows[env.shard_index].push_back(s.scan_one(targets[i]));
///   });
///   // rows concatenated in slice order == serial order;
///   // campaign.metrics() is the merged registry.
///
/// Bodies receive a slice index and may write only to their own slot
/// of caller-side output vectors -- the engine never copies results,
/// it just guarantees exclusive slots and a barrier at the end of
/// run(). Exceptions thrown by a body are captured per slice and the
/// lowest-index one is rethrown on the caller thread after all
/// workers joined.
class Campaign {
 public:
  explicit Campaign(CampaignOptions options);

  using ShardBody = std::function<void(ShardEnv&)>;

  /// Partitions `target_count` targets and runs `body` once per slice.
  /// Static: one worker thread per shard (inline when jobs == 1).
  /// Dynamic: min(jobs, slices) workers pull chunk indices from a
  /// shared atomic cursor (inline in chunk order when jobs == 1). May
  /// be called once per Campaign instance.
  void run(size_t target_count, const ShardBody& body);

  /// Number of body invocations -- and caller-side result slots --
  /// run(target_count, ...) will produce: jobs under kStatic, the
  /// chunk count of chunk_ranges(target_count, resolved chunk size)
  /// under kDynamic. Pure function of the options and target_count;
  /// size result vectors with this before calling run().
  size_t slot_count(size_t target_count) const;

  /// The chunk size a dynamic run over `target_count` targets uses
  /// (options.chunk_size, or default_chunk_size when 0).
  size_t resolved_chunk_size(size_t target_count) const;

  const CampaignOptions& options() const { return options_; }

  /// The slice ranges of the most recent run (empty before run()).
  const std::vector<ShardRange>& ranges() const { return ranges_; }

  /// Merged registry, valid after run(): per-slice registries folded
  /// in slice index order (the order is immaterial -- merge_from is
  /// associative and commutative -- but fixing it keeps the code
  /// auditably deterministic).
  const telemetry::MetricsRegistry& metrics() const { return merged_; }

  /// Per-slice registries of the most recent run, for tests and tools
  /// that check the slice/serial equivalence directly.
  const telemetry::MetricsRegistry& shard_metrics(int slice) const {
    return *shard_metrics_[static_cast<size_t>(slice)];
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
  void run_slice(int slice, const ShardBody& body);
  void run_workers(int workers, const ShardBody& body,
                   std::vector<std::exception_ptr>& errors);

  CampaignOptions options_;
  std::vector<ShardRange> ranges_;
  std::shared_ptr<const internet::Snapshot> snapshot_;
  std::vector<std::unique_ptr<telemetry::MetricsRegistry>> shard_metrics_;
  telemetry::MetricsRegistry merged_;
  telemetry::SchedulerStats sched_;
  telemetry::MetricsRegistry sched_registry_;
  bool ran_ = false;
};

/// Stable merge of per-shard result vectors by a strict-weak-order key,
/// for campaigns whose serial baseline emits key-sorted output (the
/// ZMap sweep collects hits in address order). Each shard's vector must
/// already be sorted by `less` -- true for per-shard ZMap hit lists --
/// and shards own disjoint target subsets, so the K-way merge
/// reproduces the serial (globally sorted) order for every K.
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

/// Per-slice accumulator slots plus the deterministic fold, for
/// campaign-side aggregates that merge like MetricsRegistry (an
/// associative + commutative merge_from with the default-constructed
/// value as identity -- report::ReportAccumulator is the canonical
/// case). Bodies touch only slot(env.shard_index), which the engine's
/// exclusive-slot contract makes race-free; merged() folds the slots
/// in slice index order, so the result is a pure function of the
/// campaign for every jobs count and steal schedule. Size with
/// Campaign::slot_count(target_count).
template <typename T>
class ShardFold {
 public:
  /// One default-constructed slot per slice.
  explicit ShardFold(size_t slots) : slots_(slots) {}
  /// One factory-constructed slot per slice (accumulators that carry
  /// configuration, e.g. a source label).
  ShardFold(size_t slots, const std::function<T()>& factory) {
    slots_.reserve(slots);
    for (size_t i = 0; i < slots; ++i) slots_.push_back(factory());
  }

  T& slot(int shard_index) {
    return slots_[static_cast<size_t>(shard_index)];
  }
  size_t size() const { return slots_.size(); }

  /// Folds every slot into a default-constructed T in slice index
  /// order. Valid only after the campaign's run() barrier.
  T merged() const {
    T out;
    for (const T& slot : slots_) out.merge_from(slot);
    return out;
  }

 private:
  std::vector<T> slots_;
};

/// Concatenation in slice index order, for campaigns whose serial
/// baseline preserves input order (QScanner target files, DNS corpora):
/// with contiguous slices this reproduces the serial output order.
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
