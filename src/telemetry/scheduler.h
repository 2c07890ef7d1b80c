// Scheduler observability: wall-clock accounting for the campaign
// engine's worker pool. "Ten Years of ZMap" frames dynamic sharding as
// an operational win you can only claim with numbers -- so the engine
// records, per worker, how many chunks it ran, how long it spent inside
// chunk bodies (busy) and how long it spent acquiring chunk indices
// (steal wait), plus a chunk-duration histogram and the campaign-level
// straggler ratio (max/mean worker busy time; 1.0 means perfectly
// balanced, and one chunk per worker lets it grow with workload skew).
//
// Everything here is WALL-clock, i.e. genuinely non-deterministic: it
// varies run to run with machine load and steal interleaving. It is
// therefore rendered into its own MetricsRegistry and must never be
// folded into the deterministic campaign registry, whose JSON is
// byte-identical across --jobs values by contract.
#pragma once

#include <cstdint>
#include <vector>

#include "telemetry/metrics.h"

namespace telemetry {

/// One worker's wall-clock account of a scheduled campaign run.
struct WorkerSample {
  uint64_t chunks_run = 0;
  /// Wall microseconds spent inside chunk bodies (world build + scan).
  uint64_t busy_us = 0;
  /// Wall microseconds spent pulling chunk indices off the shared
  /// cursor. With an uncontended atomic this is nanoseconds per steal;
  /// it exists to make contention visible if a future queue grows locks.
  uint64_t steal_wait_us = 0;
};

/// Collects per-worker samples and per-chunk durations for one campaign
/// run. Thread safety is by exclusive slots, same contract as the
/// engine's result vectors: worker w may touch only worker(w) and
/// observe_chunk(w, ...); reads happen after the engine's join barrier.
class SchedulerStats {
 public:
  /// Drops all samples and sizes the per-worker slots.
  void reset(int workers);

  int workers() const { return static_cast<int>(samples_.size()); }
  WorkerSample& worker(int index) {
    return samples_[static_cast<size_t>(index)];
  }
  const WorkerSample& worker(int index) const {
    return samples_[static_cast<size_t>(index)];
  }

  /// Records one finished chunk's wall duration for worker `index`.
  void observe_chunk(int index, uint64_t duration_us) {
    durations_[static_cast<size_t>(index)].push_back(duration_us);
  }

  /// Max worker busy time over mean worker busy time, across all
  /// workers (idle workers count toward the mean -- an idle worker IS
  /// the straggler symptom). Returns 1.0 when no worker did any work.
  double straggler_ratio() const;

  /// Renders the account into `registry`:
  ///   engine.workers                      gauge
  ///   engine.chunks_run.workerNN          counter (per worker)
  ///   engine.busy_us.workerNN             counter (per worker)
  ///   engine.steal_wait_us.workerNN       counter (per worker)
  ///   engine.chunk_duration_us            histogram (all chunks)
  ///   engine.straggler_ratio_milli        gauge (ratio x 1000)
  /// The registry should be the campaign's dedicated scheduler registry,
  /// never the deterministic merged one (see file comment).
  void write_to(MetricsRegistry& registry) const;

 private:
  std::vector<WorkerSample> samples_;
  std::vector<std::vector<uint64_t>> durations_;
};

}  // namespace telemetry
