#include "engine/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>

#include "crypto/cpu.h"
#include "crypto/rng.h"
#include "netsim/impairment.h"

namespace engine {
namespace {

using SchedClock = std::chrono::steady_clock;

uint64_t elapsed_us(SchedClock::time_point from, SchedClock::time_point to) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

}  // namespace

uint64_t chunk_seed(uint64_t campaign_seed, size_t chunk_index) {
  if (chunk_index == 0) return campaign_seed;
  // splitmix64 keyed by (seed, index): one advance mixes the index in,
  // a second decorrelates adjacent indices. Depends on
  // (seed, chunk_index) only; jobs must never enter this derivation
  // (steal-schedule invariance).
  uint64_t state = campaign_seed ^ (0xbf58476d1ce4e5b9ull *
                                    (static_cast<uint64_t>(chunk_index) + 1));
  crypto::splitmix64(state);
  return crypto::splitmix64(state);
}

std::vector<ShardRange> chunk_ranges(size_t n, size_t chunk_size) {
  size_t step = chunk_size < 1 ? 1 : chunk_size;
  std::vector<ShardRange> ranges;
  if (n == 0) {
    // One empty chunk: the campaign still runs one world, so merged
    // metrics carry the full key set and chunk_seed(seed, 0) == seed
    // keeps the run byte-identical to the serial empty campaign.
    ranges.push_back({0, 0});
    return ranges;
  }
  ranges.reserve((n + step - 1) / step);
  for (size_t begin = 0; begin < n; begin += step)
    ranges.push_back({begin, std::min(begin + step, n)});
  return ranges;
}

size_t default_chunk_size(size_t n, int jobs) {
  size_t workers = jobs < 1 ? 1 : static_cast<size_t>(jobs);
  size_t size = n / (8 * workers);
  return size < 1 ? 1 : size;
}

Campaign::Campaign(CampaignOptions options) : options_(std::move(options)) {
  if (options_.jobs < 1)
    throw std::invalid_argument("Campaign: jobs must be >= 1");
  if (!options_.impairment.empty() &&
      !netsim::find_impairment_profile(options_.impairment))
    throw std::invalid_argument("Campaign: unknown impairment profile '" +
                                options_.impairment + "'");
  if (options_.adversary.empty()) {
    // The CI sweep knob: QREPRO_ADVERSARY fills in an unset option; an
    // explicit setting always wins.
    const char* env = std::getenv("QREPRO_ADVERSARY");
    if (env) options_.adversary = env;
  }
  if (!options_.adversary.empty() &&
      !internet::find_adversary_profile(options_.adversary))
    throw std::invalid_argument("Campaign: unknown adversary profile '" +
                                options_.adversary + "'");
}

size_t Campaign::resolved_chunk_size(size_t target_count) const {
  return options_.chunk_size > 0
             ? options_.chunk_size
             : default_chunk_size(target_count, options_.jobs);
}

size_t Campaign::slot_count(size_t target_count) const {
  return chunk_ranges(target_count, resolved_chunk_size(target_count)).size();
}

void Campaign::run_chunk(int chunk, const ShardBody& body) {
  // The whole chunk world is constructed here, in the exact order the
  // serial CLIs construct theirs: loop, internet, metrics attachment,
  // trace directory. That ordering is part of the determinism
  // contract -- it fixes the virtual-time position of every event a
  // body emits. Only the immutable snapshot (population + zones) is
  // shared; everything mutable is private to this chunk.
  ShardEnv env;
  env.shard_index = chunk;
  env.seed = chunk_seed(options_.seed, static_cast<size_t>(chunk));
  env.range = ranges_[static_cast<size_t>(chunk)];

  netsim::EventLoop loop;
  internet::Internet internet(snapshot_, loop);
  auto& metrics = *shard_metrics_[static_cast<size_t>(chunk)];
  loop.set_metrics(&metrics);
  internet.network().set_metrics(&metrics);
  if (!options_.impairment.empty()) {
    // Validated in the constructor; applied after metrics attachment so
    // drop-cause counters see every impaired datagram, and before the
    // body so attempt 1 already runs on the impaired fabric. Serial
    // baselines in the differential tests must apply at this same
    // position.
    internet.apply_impairment(
        *netsim::find_impairment_profile(options_.impairment));
  }
  if (!options_.adversary.empty()) {
    // Endpoint misbehavior layers on after the fabric: plans key on
    // (population seed, host address) only, so every chunk derives the
    // identical overlay. Serial baselines in the differential tests
    // must apply at this same position.
    internet.apply_adversary(
        *internet::find_adversary_profile(options_.adversary));
  }

  std::optional<telemetry::QlogDir> qlog;
  if (!options_.qlog_dir.empty()) {
    std::string dir = options_.qlog_dir;
    if (ranges_.size() > 1) {
      char suffix[16];
      std::snprintf(suffix, sizeof suffix, "/chunk%04d", chunk);
      dir += suffix;
    }
    qlog.emplace(dir);
  }

  env.loop = &loop;
  env.internet = &internet;
  env.metrics = &metrics;
  if (qlog) env.trace_factory = qlog->factory();

  body(env);
}

void Campaign::run(size_t target_count, const ShardBody& body) {
  if (ran_) throw std::logic_error("Campaign::run called twice");
  ran_ = true;
  ranges_ = chunk_ranges(target_count, resolved_chunk_size(target_count));
  shard_metrics_.clear();
  for (size_t c = 0; c < ranges_.size(); ++c)
    shard_metrics_.push_back(std::make_unique<telemetry::MetricsRegistry>());
  // The immutable world half (population + DNS zones) is identical for
  // every chunk; build it once and share it read-only.
  snapshot_ = options_.snapshot
                  ? options_.snapshot
                  : std::make_shared<const internet::Snapshot>(
                        options_.population, options_.week);

  // chunk_ranges never returns an empty list, so workers >= 1.
  const size_t chunks = ranges_.size();
  const int workers = static_cast<int>(
      std::min(static_cast<size_t>(options_.jobs), chunks));
  sched_.reset(workers);
  std::vector<std::exception_ptr> errors(chunks);
  std::atomic<size_t> cursor{0};

  // One worker's pull loop. Chunk output is deterministic regardless of
  // which worker runs it (private world, index-keyed seed); the cursor
  // only decides the wall-clock interleaving, which is exactly what the
  // scheduler telemetry records.
  auto pull_loop = [&](int worker) {
    auto& sample = sched_.worker(worker);
    while (true) {
      auto t0 = SchedClock::now();
      size_t chunk = cursor.fetch_add(1, std::memory_order_relaxed);
      auto t1 = SchedClock::now();
      sample.steal_wait_us += elapsed_us(t0, t1);
      if (chunk >= chunks) break;
      try {
        run_chunk(static_cast<int>(chunk), body);
      } catch (...) {
        errors[chunk] = std::current_exception();
      }
      auto t2 = SchedClock::now();
      uint64_t busy = elapsed_us(t1, t2);
      sample.busy_us += busy;
      sample.chunks_run += 1;
      sched_.observe_chunk(worker, busy);
    }
  };

  if (workers == 1) {
    // Inline on the calling thread: the serial path, exactly -- the
    // cursor degenerates to iterating chunks in index order.
    pull_loop(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w)
      pool.emplace_back([&pull_loop, w] { pull_loop(w); });
    for (auto& thread : pool) thread.join();
  }
  for (auto& error : errors)
    if (error) std::rethrow_exception(error);

  // Fold in chunk index order (any order gives the same registry; a
  // fixed order keeps the implementation trivially deterministic).
  for (const auto& chunk : shard_metrics_) merged_.merge_from(*chunk);
  sched_.write_to(sched_registry_);
  // Which AEAD kernel the chunk worlds resolved (cpu.h enum value).
  // Quarantined here with the other host-dependent facts: the merged
  // deterministic registry must stay byte-identical across backends,
  // and a backend name in it would break exactly the invariance the
  // differential battery proves.
  sched_registry_.gauge("hotpath.crypto_backend")
      .set(static_cast<int64_t>(crypto::resolve_backend()));
}

}  // namespace engine
