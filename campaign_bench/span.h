// Layer spans recorded by the benchmark around its own calls
// into the campaign stack (snapshot build, engine run, each scanner,
// report fold/merge/render). Spans live in memory, one log per thread,
// and are aggregated after the run; nothing here reaches into src/.
//
// A span's self time is its duration minus the time its direct
// children on the same thread cover. Children always nest inside their
// parent (scopes close in reverse order), so that difference is exact.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace bench {

struct SpanRecord {
  /// Static string: one of the benchmark's layer names.
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  /// Time covered by direct children recorded on the same thread.
  uint64_t child_ns = 0;
  /// Index of the parent in the same thread's log; -1 for a root.
  int64_t parent = -1;

  uint64_t duration_ns() const { return end_ns - start_ns; }
  uint64_t self_ns() const { return duration_ns() - child_ns; }
};

/// Per-name aggregate over every thread's spans.
struct SpanTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};

class SpanRecorder {
 public:
  /// A disabled recorder makes every Scope a single branch.
  explicit SpanRecorder(bool enabled);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread for the scope's lifetime.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_ = nullptr;
    size_t index_ = 0;
  };

  /// Aggregates by name. Call only after every recording thread has
  /// been joined (the engine joins its workers before run() returns).
  std::map<std::string, SpanTotals> totals() const;
  /// Durations of every span with this name, in recording order per
  /// thread.
  std::vector<uint64_t> durations_ns(const std::string& name) const;
  size_t span_count() const;

  /// Every thread's log (tests inspect the raw records).
  std::vector<std::vector<SpanRecord>> logs() const;

 private:
  struct ThreadLog {
    std::vector<SpanRecord> spans;
    std::vector<size_t> open;
  };
  ThreadLog& thread_log();
  uint64_t now_ns() const;

  const bool enabled_;
  const uint64_t id_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  /// One log per thread that recorded a span; guarded by mu_ (each log
  /// is then written only by its own thread).
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

}  // namespace bench
