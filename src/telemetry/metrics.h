// Metrics registry: named counters, gauges and fixed-bucket histograms
// with a deterministic JSON dump ("Ten Years of ZMap" credits much of
// ZMap's operational success to built-in scan accounting; this is that
// substrate for every scanner here). Instrumented components resolve
// metric pointers once at construction; with no registry attached the
// pointers stay null and each hot-path hit is a single null check (the
// null-safe free functions below -- bench/micro_telemetry pins the
// cost at well under 2 ns/event).
//
// All values are integers (virtual microseconds, packets, bytes), so
// the JSON output is byte-reproducible across runs and platforms.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace telemetry {

class Counter {
 public:
  void add(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(int64_t v) { value_ = v; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

/// Fixed-bucket histogram over uint64 samples. Buckets are defined by
/// ascending inclusive upper bounds plus an implicit overflow bucket,
/// like Prometheus `le` buckets.
class Histogram {
 public:
  explicit Histogram(std::vector<uint64_t> bounds);

  void observe(uint64_t value);

  /// Accumulates another histogram with identical bounds (bucket-wise
  /// sum; min/max/count/sum combine losslessly). This is the shard-merge
  /// primitive: it is associative and commutative, so a merged campaign
  /// registry is independent of the order shards are folded in. Throws
  /// std::logic_error on a bounds mismatch.
  void merge_from(const Histogram& other);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ ? min_ : 0; }
  uint64_t max() const { return max_; }
  const std::vector<uint64_t>& bounds() const { return bounds_; }
  /// counts.size() == bounds.size() + 1; the last entry is overflow.
  const std::vector<uint64_t>& bucket_counts() const { return counts_; }

  /// Smallest bucket upper bound b such that at least `p` (0..1] of the
  /// samples are <= b; samples in the overflow bucket report the
  /// maximum observed value. Returns 0 on an empty histogram.
  uint64_t percentile(double p) const;

 private:
  std::vector<uint64_t> bounds_;
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
};

/// Owns all metrics of one run. Lookup is name-keyed and node-stable:
/// the references returned stay valid for the registry's lifetime, so
/// components cache them as pointers.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// First registration fixes the bucket bounds; later calls with the
  /// same name return the existing histogram.
  Histogram& histogram(const std::string& name,
                       std::vector<uint64_t> bounds);

  const Counter* find_counter(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  /// Accumulates every metric of `other` into this registry: counters
  /// and gauges add, histograms merge bucket-wise (bounds must agree
  /// for shared names). Registries fed by the same instrumented code
  /// paths always satisfy that, since bounds are fixed at registration.
  /// Used by the campaign engine to fold per-shard registries into one
  /// deterministic summary; the operation is associative and
  /// commutative, so the merged JSON is a pure function of the shard
  /// set, not of merge order.
  void merge_from(const MetricsRegistry& other);

  /// Read-side iteration (merge, tests, tools). Maps are name-ordered.
  const std::map<std::string, Counter>& counters() const {
    return counters_;
  }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// Deterministic JSON summary (keys sorted by name, integers only).
  void write_json(std::ostream& out) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Null-safe hot-path helpers: the whole no-telemetry cost is one
/// branch on a pointer the caller resolved at setup time.
inline void add(Counter* counter, uint64_t n = 1) {
  if (counter) counter->add(n);
}
inline void set(Gauge* gauge, int64_t v) {
  if (gauge) gauge->set(v);
}
inline void observe(Histogram* histogram, uint64_t v) {
  if (histogram) histogram->observe(v);
}

/// Setup-time resolution against an optional registry.
inline Counter* maybe_counter(MetricsRegistry* registry,
                              const std::string& name) {
  return registry ? &registry->counter(name) : nullptr;
}
inline Histogram* maybe_histogram(MetricsRegistry* registry,
                                  const std::string& name,
                                  std::vector<uint64_t> bounds) {
  return registry ? &registry->histogram(name, std::move(bounds)) : nullptr;
}

}  // namespace telemetry
