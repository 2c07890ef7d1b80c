#include "span.h"

namespace bench {

namespace {

std::atomic<uint64_t> next_recorder_id{1};

// The calling thread's log in the most recently used recorder. Recorder
// ids are never reused, so a stale cache entry can never match.
struct ThreadCache {
  uint64_t recorder_id = 0;
  void* log = nullptr;
};
thread_local ThreadCache thread_cache;

}  // namespace

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled),
      id_(next_recorder_id.fetch_add(1)),
      epoch_(std::chrono::steady_clock::now()) {}

uint64_t SpanRecorder::now_ns() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

SpanRecorder::ThreadLog& SpanRecorder::thread_log() {
  if (thread_cache.recorder_id != id_) {
    std::lock_guard<std::mutex> lock(mu_);
    logs_.push_back(std::make_unique<ThreadLog>());
    thread_cache = {id_, logs_.back().get()};
  }
  return *static_cast<ThreadLog*>(thread_cache.log);
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, const char* name) {
  if (!recorder.enabled_) return;
  recorder_ = &recorder;
  ThreadLog& log = recorder.thread_log();
  SpanRecord record;
  record.name = name;
  record.parent =
      log.open.empty() ? -1 : static_cast<int64_t>(log.open.back());
  index_ = log.spans.size();
  log.spans.push_back(record);
  log.open.push_back(index_);
  log.spans[index_].start_ns = recorder.now_ns();
}

SpanRecorder::Scope::~Scope() {
  if (!recorder_) return;
  uint64_t end = recorder_->now_ns();
  ThreadLog& log = recorder_->thread_log();
  SpanRecord& record = log.spans[index_];
  record.end_ns = end;
  log.open.pop_back();
  if (record.parent >= 0)
    log.spans[static_cast<size_t>(record.parent)].child_ns +=
        record.duration_ns();
}

std::map<std::string, SpanTotals> SpanRecorder::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, SpanTotals> out;
  for (const auto& log : logs_) {
    for (const auto& span : log->spans) {
      auto& totals = out[span.name];
      totals.count += 1;
      totals.total_ns += span.duration_ns();
      totals.self_ns += span.self_ns();
    }
  }
  return out;
}

std::vector<uint64_t> SpanRecorder::durations_ns(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> out;
  for (const auto& log : logs_)
    for (const auto& span : log->spans)
      if (name == span.name) out.push_back(span.duration_ns());
  return out;
}

size_t SpanRecorder::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& log : logs_) n += log->spans.size();
  return n;
}

std::vector<std::vector<SpanRecord>> SpanRecorder::logs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<SpanRecord>> out;
  for (const auto& log : logs_) out.push_back(log->spans);
  return out;
}

}  // namespace bench
