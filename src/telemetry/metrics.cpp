#include "telemetry/metrics.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "telemetry/trace.h"

namespace telemetry {

Histogram::Histogram(std::vector<uint64_t> bounds)
    : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(uint64_t value) {
  auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++counts_[static_cast<size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void Histogram::merge_from(const Histogram& other) {
  if (bounds_ != other.bounds_)
    throw std::logic_error("Histogram::merge_from: bucket bounds differ");
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  // An empty side contributes min_ == UINT64_MAX / max_ == 0, the
  // identity elements of min/max, so merging with it is a no-op.
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

uint64_t Histogram::percentile(double p) const {
  if (count_ == 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  // Rank of the percentile sample, 1-based (nearest-rank definition).
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(p * static_cast<double>(count_)));
  if (rank == 0) rank = 1;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    cumulative += counts_[i];
    if (cumulative >= rank)
      return i < bounds_.size() ? bounds_[i] : max_;
  }
  return max_;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<uint64_t> bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(name, Histogram(std::move(bounds))).first;
  return it->second;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) counters_[name].add(c.value());
  // Gauges are point-in-time values; summing keeps the merge
  // associative and matches the counters' semantics for the gauge-free
  // registries the scanners produce today.
  for (const auto& [name, g] : other.gauges_) {
    auto& mine = gauges_[name];
    mine.set(mine.value() + g.value());
  }
  for (const auto& [name, h] : other.histograms_) {
    auto it = histograms_.find(name);
    if (it == histograms_.end())
      it = histograms_.emplace(name, Histogram(h.bounds())).first;
    it->second.merge_from(h);
  }
}

namespace {

void write_key(std::ostream& out, const std::string& name) {
  out << '"' << json_escape(name) << '"';
}

}  // namespace

void MetricsRegistry::write_json(std::ostream& out) const {
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    write_key(out, name);
    out << ": " << counter.value();
  }
  out << (first ? "}" : "\n  }") << ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    write_key(out, name);
    out << ": " << gauge.value();
  }
  out << (first ? "}" : "\n  }") << ",\n  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    write_key(out, name);
    out << ": {\"count\": " << histogram.count()
        << ", \"sum\": " << histogram.sum()
        << ", \"min\": " << histogram.min()
        << ", \"max\": " << histogram.max()
        << ", \"p50\": " << histogram.percentile(0.50)
        << ", \"p90\": " << histogram.percentile(0.90)
        << ", \"p99\": " << histogram.percentile(0.99) << ", \"buckets\": [";
    const auto& bounds = histogram.bounds();
    const auto& counts = histogram.bucket_counts();
    for (size_t i = 0; i < counts.size(); ++i) {
      if (i) out << ", ";
      out << "{\"le\": ";
      if (i < bounds.size())
        out << bounds[i];
      else
        out << "\"inf\"";
      out << ", \"count\": " << counts[i] << '}';
    }
    out << "]}";
  }
  out << (first ? "}" : "\n  }") << "\n}\n";
}

}  // namespace telemetry
