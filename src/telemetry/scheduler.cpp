#include "telemetry/scheduler.h"

#include <algorithm>
#include <cstdio>

namespace telemetry {

void SchedulerStats::reset(int workers) {
  samples_.assign(static_cast<size_t>(workers < 0 ? 0 : workers), {});
  durations_.assign(samples_.size(), {});
}

double SchedulerStats::straggler_ratio() const {
  if (samples_.empty()) return 1.0;
  uint64_t max = 0;
  uint64_t sum = 0;
  for (const auto& sample : samples_) {
    max = std::max(max, sample.busy_us);
    sum += sample.busy_us;
  }
  if (sum == 0) return 1.0;
  double mean = static_cast<double>(sum) / static_cast<double>(samples_.size());
  return static_cast<double>(max) / mean;
}

void SchedulerStats::write_to(MetricsRegistry& registry) const {
  registry.gauge("engine.workers").set(workers());
  // Exponential wall-microsecond buckets: chunk bodies span ~1 ms (tiny
  // clean chunks) to tens of seconds (hostile profile with retries).
  auto& histogram = registry.histogram(
      "engine.chunk_duration_us",
      {100, 1000, 10000, 100000, 1000000, 10000000, 100000000});
  for (size_t w = 0; w < samples_.size(); ++w) {
    char name[48];
    std::snprintf(name, sizeof name, "engine.chunks_run.worker%02zu", w);
    registry.counter(name).add(samples_[w].chunks_run);
    std::snprintf(name, sizeof name, "engine.busy_us.worker%02zu", w);
    registry.counter(name).add(samples_[w].busy_us);
    std::snprintf(name, sizeof name, "engine.steal_wait_us.worker%02zu", w);
    registry.counter(name).add(samples_[w].steal_wait_us);
    for (uint64_t duration : durations_[w]) histogram.observe(duration);
  }
  registry.gauge("engine.straggler_ratio_milli")
      .set(static_cast<int64_t>(straggler_ratio() * 1000.0));
}

}  // namespace telemetry
