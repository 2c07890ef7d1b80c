// Minimal JSON value model + recursive-descent parser, just enough to
// read back the deterministic JSON this repository writes (metrics
// summaries, campaign reports). Used by qreport_cli's --baseline
// weekly-diff mode and by the parse-back tests; not a general-purpose
// JSON library (no \uXXXX surrogate pairs, no duplicate-key policy
// beyond last-wins).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace report::json {

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// Exact integer mirror of `number` when the literal had no '.'/'e';
  /// all counters in this repo's JSON are integers, so diffs use this.
  int64_t integer = 0;
  bool is_integer = false;
  std::string string;
  std::vector<Value> array;
  std::map<std::string, Value> object;

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(const std::string& key) const;
  /// find() + integer value, with `fallback` when absent/non-numeric.
  int64_t int_or(const std::string& key, int64_t fallback = 0) const;
};

/// Parses one JSON document; throws std::runtime_error with an offset
/// on malformed input or trailing garbage.
Value parse(const std::string& text);

/// telemetry::json_escape, for the report writers.
std::string escape(const std::string& text);

}  // namespace report::json
