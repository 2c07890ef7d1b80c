// qlog-style structured connection tracing. A Tracer is a two-pointer
// handle (sink + virtual clock) that connections and scanners carry;
// with no sink attached an emit is a single null-pointer check, so the
// instrumentation can stay in every hot path permanently
// (bench/micro_telemetry pins the cost). Events are timestamped on
// netsim virtual time, which makes traces byte-reproducible: identical
// seeds produce identical files.
//
// The event vocabulary mirrors what qlog defines for QUIC (Piraux et
// al., "Observing the Evolution of QUIC Implementations"): packet and
// handshake events plus the terminal classification the paper's
// Table 3 is built from.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace telemetry {

/// Time source for event stamps. netsim::EventLoop implements this, so
/// every trace runs on deterministic virtual microseconds.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual uint64_t now_us() const = 0;
};

/// The trace event vocabulary (see DESIGN.md "Telemetry").
enum class EventType {
  kPacketSent,
  kPacketReceived,
  kVersionNegotiation,
  kRetry,
  kTlsMessage,
  kKeyUpdate,
  kTransportParamsSet,
  kFrameProcessed,
  kConnectionClosed,
  kTimeout,
  kProtocolError,  // terminal: attempt killed by the violation taxonomy
  kWatchdog,       // terminal: per-attempt rx budget exhausted
};

const char* event_name(EventType type);

/// A tagged scalar: enough structure for qlog-style data members
/// without dragging in a JSON library.
struct Value {
  enum class Kind { kUint, kString, kBool } kind = Kind::kUint;
  uint64_t num = 0;
  std::string str;
  bool flag = false;

  Value(int v) : kind(Kind::kUint), num(static_cast<uint64_t>(v)) {}
  Value(unsigned v) : kind(Kind::kUint), num(v) {}
  Value(unsigned long v) : kind(Kind::kUint), num(v) {}
  Value(unsigned long long v) : kind(Kind::kUint), num(v) {}
  Value(const char* v) : kind(Kind::kString), str(v) {}
  Value(std::string v) : kind(Kind::kString), str(std::move(v)) {}
  Value(bool v) : kind(Kind::kBool), flag(v) {}

  bool operator==(const Value&) const = default;
};

struct Field {
  const char* key;
  Value value;
};

struct TraceEvent {
  uint64_t time_us = 0;
  EventType type = EventType::kPacketSent;
  std::vector<std::pair<std::string, Value>> data;

  /// Field lookup for tests/tools; nullptr when absent.
  const Value* find(const std::string& key) const;
};

/// Receives every event of one trace (one connection attempt, or one
/// sweep). Implementations must not reorder events.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceEvent& event) = 0;
};

/// Serializes one event as a single JSON line (the shared rendering
/// used by JsonLinesSink and tools that pretty-print memory traces).
void write_json_line(std::ostream& out, const TraceEvent& event);

/// JSON string escaping per RFC 8259 (quotes, backslashes, control
/// characters): the one escaper of every JSON writer.
std::string json_escape(const std::string& value);

/// The per-connection tracing handle. Copyable, two pointers wide.
/// Every trace is written from the client's (the scanner's) vantage.
/// Inactive (default-constructed) tracers cost one branch per emit;
/// hot paths with non-trivial field construction should guard with
/// active() so field evaluation is skipped too.
class Tracer {
 public:
  Tracer() = default;
  Tracer(TraceSink* sink, const Clock* clock) : sink_(sink), clock_(clock) {}

  bool active() const { return sink_ != nullptr; }

  void emit(EventType type, std::initializer_list<Field> fields) const;
  void emit(EventType type) const { emit(type, {}); }

 private:
  TraceSink* sink_ = nullptr;
  const Clock* clock_ = nullptr;
};

/// In-memory sink for tests and tools.
class MemorySink : public TraceSink {
 public:
  void on_event(const TraceEvent& event) override {
    events_.push_back(event);
  }
  const std::vector<TraceEvent>& events() const { return events_; }

 private:
  std::vector<TraceEvent> events_;
};

/// JSON-Lines trace writer. The first line is a qlog-style header
/// record (title + vantage-free schema marker); every subsequent line
/// is one event. Streams to a caller-owned ostream or an owned file.
class JsonLinesSink : public TraceSink {
 public:
  /// Caller-owned stream (kept alive by the caller).
  JsonLinesSink(std::ostream& out, const std::string& title);
  /// Owned file; throws std::runtime_error when it cannot be opened.
  explicit JsonLinesSink(const std::string& path,
                         const std::string& title = "");

  void on_event(const TraceEvent& event) override;

 private:
  std::unique_ptr<std::ostream> owned_;
  std::ostream* out_;
};

/// Creates one trace sink per connection attempt; scanners call this
/// with a deterministic attempt label.
using TraceSinkFactory =
    std::function<std::unique_ptr<TraceSink>(const std::string& label)>;

/// qlog output directory: one JSON-Lines file per attempt,
/// `<label>.qlog`, labels sanitized to filesystem-safe characters.
class QlogDir {
 public:
  /// Creates the directory (and parents) if missing.
  explicit QlogDir(std::string path);

  std::unique_ptr<TraceSink> open(const std::string& label) const;

  /// Adapter for scanner options.
  TraceSinkFactory factory() const;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace telemetry
