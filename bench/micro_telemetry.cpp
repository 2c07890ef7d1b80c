// Microbenchmarks pinning the no-telemetry cost of the instrumentation
// hooks. The acceptance bar is <= 2 ns per would-be event when nothing
// is attached: one null check for counters, one branch on
// Tracer::active() for traces (field construction must be skipped).
#include <benchmark/benchmark.h>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace {

struct FixedClock : telemetry::Clock {
  uint64_t t = 0;
  uint64_t now_us() const override { return t; }
};

/// Counts events without formatting; isolates emit() bookkeeping from
/// JSON serialization cost.
struct CountingSink : telemetry::TraceSink {
  uint64_t count = 0;
  void on_event(const telemetry::TraceEvent&) override { ++count; }
};

// The hot-path pattern with no registry attached: a cached null
// Counter* and the null-safe helper. This is what every instrumented
// component pays per event when telemetry is off.
void BM_CounterAddDetached(benchmark::State& state) {
  telemetry::Counter* counter = nullptr;
  benchmark::DoNotOptimize(counter);
  for (auto _ : state) {
    telemetry::add(counter);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_CounterAddDetached);

void BM_CounterAddAttached(benchmark::State& state) {
  telemetry::MetricsRegistry registry;
  telemetry::Counter* counter = &registry.counter("bench.count");
  benchmark::DoNotOptimize(counter);
  for (auto _ : state) {
    telemetry::add(counter);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_CounterAddAttached);

void BM_HistogramObserveAttached(benchmark::State& state) {
  telemetry::MetricsRegistry registry;
  telemetry::Histogram* histogram = &registry.histogram(
      "bench.hist", {10, 100, 1000, 10000, 100000});
  benchmark::DoNotOptimize(histogram);
  uint64_t v = 0;
  for (auto _ : state) {
    telemetry::observe(histogram, v++ % 200000);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_HistogramObserveAttached);

// The guarded trace pattern with no sink: one active() branch, field
// construction skipped entirely. This is the per-event cost inside
// quic::Connection when --qlog is off.
void BM_TracerEmitInactive(benchmark::State& state) {
  telemetry::Tracer tracer;  // no sink
  benchmark::DoNotOptimize(tracer);
  uint64_t size = 1200;
  for (auto _ : state) {
    if (tracer.active()) {
      tracer.emit(telemetry::EventType::kPacketSent,
                  {{"packet_type", "initial"}, {"size", size}});
    }
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TracerEmitInactive);

void BM_TracerEmitToCountingSink(benchmark::State& state) {
  CountingSink sink;
  FixedClock clock;
  telemetry::Tracer tracer(&sink, &clock);
  uint64_t size = 1200;
  for (auto _ : state) {
    if (tracer.active()) {
      tracer.emit(telemetry::EventType::kPacketSent,
                  {{"packet_type", "initial"}, {"size", size}});
    }
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(sink.count);
}
BENCHMARK(BM_TracerEmitToCountingSink);

}  // namespace

BENCHMARK_MAIN();
