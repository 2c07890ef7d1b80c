// Telemetry subsystem tests: histogram bucket/percentile math, the
// JSON-Lines trace format (every emitted line must parse back cleanly),
// virtual-time determinism (identical seeds produce byte-identical
// traces and metrics), and the QScanner integration contract: each
// Table 3 outcome class ends its trace with the matching terminal
// event.
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "internet/internet.h"
#include "scanner/qscanner.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace {

using telemetry::EventType;
using telemetry::Histogram;
using telemetry::MemorySink;
using telemetry::MetricsRegistry;
using telemetry::TraceEvent;
using telemetry::Tracer;

// --- Histogram math --------------------------------------------------

TEST(Histogram, BucketAssignmentUsesInclusiveUpperBounds) {
  Histogram h({10, 100, 1000});
  h.observe(0);
  h.observe(10);    // inclusive: still the first bucket
  h.observe(11);
  h.observe(100);
  h.observe(1000);
  h.observe(1001);  // overflow
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 2u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 0u + 10 + 11 + 100 + 1000 + 1001);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1001u);
}

TEST(Histogram, BoundsAreSortedAndDeduplicated) {
  Histogram h({100, 10, 100, 1000});
  ASSERT_EQ(h.bounds().size(), 3u);
  EXPECT_EQ(h.bounds()[0], 10u);
  EXPECT_EQ(h.bounds()[1], 100u);
  EXPECT_EQ(h.bounds()[2], 1000u);
}

TEST(Histogram, PercentileNearestRank) {
  Histogram h({10, 20, 30, 40});
  // 10 samples: one per bucket value, repeated.
  for (int i = 0; i < 5; ++i) h.observe(5);    // bucket <=10
  for (int i = 0; i < 3; ++i) h.observe(15);   // bucket <=20
  for (int i = 0; i < 2; ++i) h.observe(25);   // bucket <=30
  EXPECT_EQ(h.percentile(0.50), 10u);  // rank 5 of 10 -> first bucket
  EXPECT_EQ(h.percentile(0.51), 20u);  // rank 6 -> second bucket
  EXPECT_EQ(h.percentile(0.80), 20u);  // rank 8
  EXPECT_EQ(h.percentile(0.90), 30u);  // rank 9
  EXPECT_EQ(h.percentile(1.00), 30u);
}

TEST(Histogram, PercentileOverflowReportsMaxObserved) {
  Histogram h({10});
  h.observe(5);
  h.observe(99);
  h.observe(12345);
  EXPECT_EQ(h.percentile(1.0), 12345u);
  EXPECT_EQ(h.percentile(0.25), 10u);
}

TEST(Histogram, EmptyHistogramIsZero) {
  Histogram h({10, 20});
  EXPECT_EQ(h.percentile(0.5), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

// --- Registry --------------------------------------------------------

TEST(Metrics, RegistryLookupIsStableAndNamed) {
  MetricsRegistry registry;
  auto& c = registry.counter("a.count");
  c.add(2);
  registry.counter("a.count").add(3);
  EXPECT_EQ(c.value(), 5u);
  ASSERT_NE(registry.find_counter("a.count"), nullptr);
  EXPECT_EQ(registry.find_counter("a.count")->value(), 5u);
  EXPECT_EQ(registry.find_counter("missing"), nullptr);
  // First registration fixes histogram bounds.
  auto& h1 = registry.histogram("h", {1, 2});
  auto& h2 = registry.histogram("h", {7, 8, 9});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);
}

// --- Shard merge (the campaign engine's fold primitive) --------------

TEST(HistogramMerge, EmptySideIsTheIdentity) {
  Histogram populated({10, 100});
  populated.observe(5);
  populated.observe(50);
  populated.observe(7000);  // overflow bucket

  // Merging an empty histogram in must not disturb anything -- in
  // particular min() must not collapse to the empty side's 0 (the
  // internal identity is UINT64_MAX, surfaced as 0 only by min()).
  Histogram merged = populated;
  merged.merge_from(Histogram({10, 100}));
  EXPECT_EQ(merged.bucket_counts(), populated.bucket_counts());
  EXPECT_EQ(merged.count(), 3u);
  EXPECT_EQ(merged.sum(), 5u + 50 + 7000);
  EXPECT_EQ(merged.min(), 5u);
  EXPECT_EQ(merged.max(), 7000u);

  // And the mirror image: empty.merge_from(populated) == populated.
  Histogram onto({10, 100});
  onto.merge_from(populated);
  EXPECT_EQ(onto.bucket_counts(), populated.bucket_counts());
  EXPECT_EQ(onto.min(), 5u);
  EXPECT_EQ(onto.max(), 7000u);

  // Two empties stay empty (min() keeps its empty-registry contract).
  Histogram both({10, 100});
  both.merge_from(Histogram({10, 100}));
  EXPECT_EQ(both.count(), 0u);
  EXPECT_EQ(both.min(), 0u);
  EXPECT_EQ(both.max(), 0u);
}

TEST(HistogramMerge, OverflowBucketsAccumulate) {
  Histogram a({10});
  a.observe(11);
  a.observe(500);
  Histogram b({10});
  b.observe(9999);
  b.observe(3);

  a.merge_from(b);
  ASSERT_EQ(a.bucket_counts().size(), 2u);
  EXPECT_EQ(a.bucket_counts()[0], 1u);  // the 3
  EXPECT_EQ(a.bucket_counts()[1], 3u);  // 11, 500, 9999 overflow
  EXPECT_EQ(a.max(), 9999u);
  EXPECT_EQ(a.min(), 3u);
  // Overflow percentile reports the true maximum across both sides.
  EXPECT_EQ(a.percentile(1.0), 9999u);
}

TEST(HistogramMerge, MismatchedBoundsThrow) {
  Histogram a({10, 100});
  Histogram b({10, 1000});
  EXPECT_THROW(a.merge_from(b), std::logic_error);
}

TEST(MetricsMerge, RegistryMergeCreatesMissingAndAccumulates) {
  MetricsRegistry left;
  left.counter("shared").add(2);
  left.histogram("h", {10}).observe(5);

  MetricsRegistry right;
  right.counter("shared").add(3);
  right.counter("right.only").add(7);
  right.gauge("depth").set(4);
  right.histogram("h", {10}).observe(20);       // overflow on merge
  right.histogram("right.h", {1, 2}).observe(1);

  left.merge_from(right);
  EXPECT_EQ(left.find_counter("shared")->value(), 5u);
  EXPECT_EQ(left.find_counter("right.only")->value(), 7u);
  ASSERT_NE(left.find_histogram("h"), nullptr);
  EXPECT_EQ(left.find_histogram("h")->count(), 2u);
  EXPECT_EQ(left.find_histogram("h")->bucket_counts()[1], 1u);
  ASSERT_NE(left.find_histogram("right.h"), nullptr);
  EXPECT_EQ(left.find_histogram("right.h")->count(), 1u);
  EXPECT_EQ(left.gauges().at("depth").value(), 4);

  // Merging an empty registry is the identity on the JSON dump.
  std::ostringstream before;
  left.write_json(before);
  left.merge_from(MetricsRegistry());
  std::ostringstream after;
  left.write_json(after);
  EXPECT_EQ(before.str(), after.str());
}

// --- Hot-path counters (PR 3) ----------------------------------------
//
// QScanner folds each attempt's quic::HotpathStats into the
// `hotpath.*` counters, making buffer-pool effectiveness visible in
// the --metrics JSON: alloc_bytes counts scratch-capacity growth (flat
// in steady state = allocation-free packet path) and aead_ctx_reuse
// counts packets sealed/opened by an already-built AEAD context.

namespace {
// Scans up to `max_targets` hosts (optionally only one deployment
// group -- "google" guarantees completed handshakes) into `metrics`.
uint64_t run_hotpath_scan(MetricsRegistry& metrics, int max_targets,
                          const std::string& group = "") {
  netsim::EventLoop loop;
  internet::Internet net({.dns_corpus_scale = 0.002}, 18, loop);
  loop.set_metrics(&metrics);
  net.network().set_metrics(&metrics);
  scanner::QscanOptions options;
  options.metrics = &metrics;
  scanner::QScanner qscanner(net.network(), options);
  int scanned = 0;
  for (const auto& host : net.population().hosts()) {
    if (!host.address.is_v4()) continue;
    if (!group.empty() && host.group != group) continue;
    scanner::QscanTarget target{host.address, std::nullopt,
                                host.advertised_versions};
    if (!qscanner.compatible(target)) continue;
    qscanner.scan_one(target);
    if (++scanned >= max_targets) break;
  }
  return qscanner.attempts();
}
}  // namespace

TEST(HotpathCounters, ScanPopulatesAllocAndAeadReuseCounters) {
  MetricsRegistry metrics;
  // The "google" group always completes its handshake, so AEAD reuse
  // (Initial ACK through the already-built Initial context, follow-up
  // 1-RTT packets through the application context) must be visible.
  uint64_t attempts = run_hotpath_scan(metrics, 10, "google");
  ASSERT_GT(attempts, 0u);
  ASSERT_GT(metrics.find_counter("qscan.outcome.Success")->value(), 0u);
  const auto* alloc = metrics.find_counter("hotpath.alloc_bytes");
  const auto* reuse = metrics.find_counter("hotpath.aead_ctx_reuse");
  ASSERT_NE(alloc, nullptr);
  ASSERT_NE(reuse, nullptr);
  // Scratch buffers grow from empty on every attempt's first packets,
  // so some capacity growth is always recorded; any completed
  // handshake protects several packets per encryption level, so AEAD
  // contexts are demonstrably reused rather than rebuilt.
  EXPECT_GT(alloc->value(), 0u);
  EXPECT_GT(reuse->value(), 0u);
  // And the counters surface in the --metrics JSON dump.
  std::ostringstream json;
  metrics.write_json(json);
  EXPECT_NE(json.str().find("\"hotpath.alloc_bytes\""), std::string::npos);
  EXPECT_NE(json.str().find("\"hotpath.aead_ctx_reuse\""), std::string::npos);
}

TEST(HotpathCounters, MergeFromSumsAcrossShardRegistries) {
  // Two shard-style registries fed by independent scans must fold into
  // exactly the sum of their hotpath counters (the engine's shard-merge
  // path), and merging must not disturb unrelated metrics.
  MetricsRegistry a, b;
  run_hotpath_scan(a, 8);
  run_hotpath_scan(b, 16);
  const uint64_t alloc_a = a.find_counter("hotpath.alloc_bytes")->value();
  const uint64_t alloc_b = b.find_counter("hotpath.alloc_bytes")->value();
  const uint64_t reuse_a = a.find_counter("hotpath.aead_ctx_reuse")->value();
  const uint64_t reuse_b = b.find_counter("hotpath.aead_ctx_reuse")->value();
  ASSERT_GT(alloc_a, 0u);
  ASSERT_GT(alloc_b, 0u);

  MetricsRegistry merged;
  merged.merge_from(a);
  merged.merge_from(b);
  EXPECT_EQ(merged.find_counter("hotpath.alloc_bytes")->value(),
            alloc_a + alloc_b);
  EXPECT_EQ(merged.find_counter("hotpath.aead_ctx_reuse")->value(),
            reuse_a + reuse_b);

  // Fold order must not matter (shard-merge algebra).
  MetricsRegistry reversed;
  reversed.merge_from(b);
  reversed.merge_from(a);
  std::ostringstream lhs, rhs;
  merged.write_json(lhs);
  reversed.write_json(rhs);
  EXPECT_EQ(lhs.str(), rhs.str());
}

// --- Minimal JSON parser (validation only) ---------------------------
//
// Just enough RFC 8259 to prove every line the sinks emit is
// well-formed: objects, arrays, strings with escapes, integers,
// booleans. Returns false on any syntax error or trailing garbage.

struct JsonCursor {
  const std::string& text;
  size_t pos = 0;

  bool at_end() { return pos >= text.size(); }
  char peek() { return text[pos]; }
  bool eat(char c) {
    if (at_end() || text[pos] != c) return false;
    ++pos;
    return true;
  }
  void skip_ws() {
    while (!at_end() && std::isspace(static_cast<unsigned char>(text[pos])))
      ++pos;
  }
};

bool parse_json_value(JsonCursor& in);

bool parse_json_string(JsonCursor& in) {
  if (!in.eat('"')) return false;
  while (!in.at_end()) {
    char c = in.text[in.pos++];
    if (c == '"') return true;
    if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
    if (c == '\\') {
      if (in.at_end()) return false;
      char esc = in.text[in.pos++];
      if (esc == 'u') {
        for (int i = 0; i < 4; ++i)
          if (in.at_end() ||
              !std::isxdigit(static_cast<unsigned char>(in.text[in.pos++])))
            return false;
      } else if (std::string("\"\\/bfnrt").find(esc) == std::string::npos) {
        return false;
      }
    }
  }
  return false;
}

bool parse_json_number(JsonCursor& in) {
  size_t start = in.pos;
  if (in.eat('-')) {}
  while (!in.at_end() && std::isdigit(static_cast<unsigned char>(in.peek())))
    ++in.pos;
  return in.pos > start;
}

bool parse_json_value(JsonCursor& in) {
  in.skip_ws();
  if (in.at_end()) return false;
  char c = in.peek();
  if (c == '{') {
    ++in.pos;
    in.skip_ws();
    if (in.eat('}')) return true;
    while (true) {
      in.skip_ws();
      if (!parse_json_string(in)) return false;
      in.skip_ws();
      if (!in.eat(':')) return false;
      if (!parse_json_value(in)) return false;
      in.skip_ws();
      if (in.eat('}')) return true;
      if (!in.eat(',')) return false;
    }
  }
  if (c == '[') {
    ++in.pos;
    in.skip_ws();
    if (in.eat(']')) return true;
    while (true) {
      if (!parse_json_value(in)) return false;
      in.skip_ws();
      if (in.eat(']')) return true;
      if (!in.eat(',')) return false;
    }
  }
  if (c == '"') return parse_json_string(in);
  if (in.text.compare(in.pos, 4, "true") == 0) { in.pos += 4; return true; }
  if (in.text.compare(in.pos, 5, "false") == 0) { in.pos += 5; return true; }
  if (in.text.compare(in.pos, 4, "null") == 0) { in.pos += 4; return true; }
  return parse_json_number(in);
}

bool is_valid_json(const std::string& text) {
  JsonCursor in{text};
  if (!parse_json_value(in)) return false;
  in.skip_ws();
  return in.at_end();
}

struct FixedClock : telemetry::Clock {
  uint64_t t = 0;
  uint64_t now_us() const override { return t; }
};

TEST(TraceFormat, EveryEmittedLineParsesAsJson) {
  std::ostringstream out;
  telemetry::JsonLinesSink sink(out, "format \"smoke\" test\n\\");
  FixedClock clock;
  Tracer tracer(&sink, &clock);
  clock.t = 42;
  tracer.emit(EventType::kPacketSent,
              {{"packet_type", "initial"},
               {"size", 1200},
               {"retransmission", false}});
  tracer.emit(EventType::kConnectionClosed,
              {{"reason", "tls: \"handshake\" failure,\nline2\x01"},
               {"error_code", 0x128}});
  tracer.emit(EventType::kTimeout);

  std::istringstream lines(out.str());
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(is_valid_json(line)) << "line " << count << ": " << line;
    ++count;
  }
  EXPECT_EQ(count, 4);  // header + 3 events
}

TEST(TraceFormat, MetricsJsonParsesCleanly) {
  MetricsRegistry registry;
  registry.counter("scan \"odd\" name").add(7);
  registry.gauge("g").set(9);
  auto& h = registry.histogram("rtt", {10, 20});
  h.observe(5);
  h.observe(500);
  std::ostringstream out;
  registry.write_json(out);
  EXPECT_TRUE(is_valid_json(out.str())) << out.str();
}

TEST(TraceFormat, EventFieldsRoundTripThroughMemorySink) {
  MemorySink sink;
  FixedClock clock;
  clock.t = 7;
  Tracer tracer(&sink, &clock);
  tracer.emit(EventType::kRetry, {{"token_size", 16}});
  ASSERT_EQ(sink.events().size(), 1u);
  const auto& event = sink.events()[0];
  EXPECT_EQ(event.time_us, 7u);
  EXPECT_EQ(event.type, EventType::kRetry);
  ASSERT_NE(event.find("token_size"), nullptr);
  EXPECT_EQ(event.find("token_size")->num, 16u);
  EXPECT_EQ(event.find("absent"), nullptr);
}

// --- Determinism -----------------------------------------------------

// Runs a small --all-style scan against a fresh internet, returning
// (concatenated traces, metrics JSON). Everything inside runs on
// virtual time, so two invocations must match byte for byte even
// though the process-wide attempt counter differs between them.
std::pair<std::string, std::string> run_traced_scan(uint64_t seed) {
  netsim::EventLoop loop;
  internet::Internet net({.dns_corpus_scale = 0.002}, 18, loop);

  MetricsRegistry metrics;
  loop.set_metrics(&metrics);
  net.network().set_metrics(&metrics);

  auto traces = std::make_shared<std::map<std::string, std::string>>();
  scanner::QscanOptions options;
  options.seed = seed;
  options.metrics = &metrics;
  options.trace_factory =
      [traces](const std::string& label) -> std::unique_ptr<telemetry::TraceSink> {
    struct OwningSink : telemetry::TraceSink {
      std::unique_ptr<std::ostringstream> stream;
      std::shared_ptr<std::map<std::string, std::string>> store;
      std::string label;
      std::unique_ptr<telemetry::JsonLinesSink> inner;
      ~OwningSink() override { (*store)[label] = stream->str(); }
      void on_event(const TraceEvent& event) override {
        inner->on_event(event);
      }
    };
    auto sink = std::make_unique<OwningSink>();
    sink->stream = std::make_unique<std::ostringstream>();
    sink->store = traces;
    sink->label = label;
    sink->inner =
        std::make_unique<telemetry::JsonLinesSink>(*sink->stream, label);
    return sink;
  };
  scanner::QScanner qscanner(net.network(), options);

  int scanned = 0;
  for (const auto& host : net.population().hosts()) {
    if (!host.address.is_v4()) continue;
    scanner::QscanTarget target{host.address, std::nullopt,
                                host.advertised_versions};
    if (!qscanner.compatible(target)) continue;
    qscanner.scan_one(target);
    if (++scanned >= 30) break;
  }

  std::string all_traces;
  for (const auto& [label, text] : *traces)
    all_traces += "=== " + label + "\n" + text;
  std::ostringstream metrics_json;
  metrics.write_json(metrics_json);
  return {all_traces, metrics_json.str()};
}

TEST(Determinism, IdenticalSeedsProduceByteIdenticalTracesAndMetrics) {
  auto first = run_traced_scan(0x5ca9);
  auto second = run_traced_scan(0x5ca9);
  EXPECT_FALSE(first.first.empty());
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

TEST(Determinism, DifferentSeedsStillClassifyIdentically) {
  // Outcome classification must not depend on the rng seed; only
  // connection entropy does.
  auto first = run_traced_scan(1);
  auto second = run_traced_scan(2);
  EXPECT_EQ(first.second, second.second);  // metrics: same outcome counts
}

// --- QScanner integration: Table 3 outcomes vs terminal events -------

struct TelemetryWorld {
  netsim::EventLoop loop;
  internet::Internet net{{.dns_corpus_scale = 0.01}, 18, loop};
};

TelemetryWorld& telemetry_world() {
  static TelemetryWorld w;
  return w;
}

TEST(QscanTrace, OutcomeClassesEmitMatchingTerminalEvents) {
  auto& w = telemetry_world();

  // One shared memory sink, swapped per attempt via the factory.
  struct SharedMemory : telemetry::TraceSink {
    std::vector<TraceEvent> events;
    void on_event(const TraceEvent& event) override {
      events.push_back(event);
    }
  };
  auto current = std::make_shared<SharedMemory>();

  scanner::QscanOptions options;
  options.metrics = nullptr;
  options.trace_factory =
      [current](const std::string&) -> std::unique_ptr<telemetry::TraceSink> {
    struct Proxy : telemetry::TraceSink {
      std::shared_ptr<SharedMemory> target;
      void on_event(const TraceEvent& event) override {
        target->on_event(event);
      }
    };
    auto proxy = std::make_unique<Proxy>();
    proxy->target = current;
    return proxy;
  };
  scanner::QScanner scanner(w.net.network(), options);

  std::map<std::string, scanner::QscanOutcome> expectations{
      {"cloudflare-idle", scanner::QscanOutcome::kCryptoError0x128},
      {"google-mismatch", scanner::QscanOutcome::kVersionMismatch},
      {"google-stall", scanner::QscanOutcome::kTimeout},
      {"akamai", scanner::QscanOutcome::kTimeout},
      {"google", scanner::QscanOutcome::kSuccess},
      {"facebook-pop", scanner::QscanOutcome::kSuccess},
      {"broken-tail", scanner::QscanOutcome::kOther},
  };

  std::map<std::string, int> tested;
  for (const auto& host : w.net.population().hosts()) {
    auto it = expectations.find(host.group);
    if (it == expectations.end() || !host.address.is_v4()) continue;
    if (tested[host.group] >= 2) continue;
    scanner::QscanTarget target{host.address, std::nullopt,
                                host.advertised_versions};
    if (!scanner.compatible(target)) continue;

    current->events.clear();
    auto result = scanner.scan_one(target);
    ASSERT_EQ(result.outcome, it->second) << host.group;
    ASSERT_FALSE(current->events.empty()) << host.group;
    const auto& last = current->events.back();

    switch (result.outcome) {
      case scanner::QscanOutcome::kSuccess: {
        ASSERT_EQ(last.type, EventType::kConnectionClosed) << host.group;
        ASSERT_NE(last.find("result"), nullptr);
        EXPECT_EQ(last.find("result")->str, "success") << host.group;
        break;
      }
      case scanner::QscanOutcome::kTimeout: {
        EXPECT_EQ(last.type, EventType::kTimeout) << host.group;
        ASSERT_NE(last.find("elapsed_us"), nullptr);
        EXPECT_GT(last.find("elapsed_us")->num, 0u);
        break;
      }
      case scanner::QscanOutcome::kCryptoError0x128: {
        ASSERT_EQ(last.type, EventType::kConnectionClosed) << host.group;
        ASSERT_NE(last.find("error_code"), nullptr);
        EXPECT_EQ(last.find("error_code")->num, 0x128u) << host.group;
        break;
      }
      case scanner::QscanOutcome::kVersionMismatch: {
        bool saw_vn = false;
        for (const auto& event : current->events)
          if (event.type == EventType::kVersionNegotiation) saw_vn = true;
        EXPECT_TRUE(saw_vn) << host.group;
        ASSERT_EQ(last.type, EventType::kConnectionClosed) << host.group;
        ASSERT_NE(last.find("result"), nullptr);
        EXPECT_EQ(last.find("result")->str, "version-mismatch")
            << host.group;
        break;
      }
      case scanner::QscanOutcome::kOther: {
        ASSERT_EQ(last.type, EventType::kConnectionClosed) << host.group;
        ASSERT_NE(last.find("result"), nullptr);
        EXPECT_NE(last.find("result")->str, "success") << host.group;
        break;
      }
    }
    ++tested[host.group];
  }
  for (const auto& [group, expected] : expectations)
    EXPECT_GE(tested[group], 1) << group << " never exercised";
}

// Success traces must tell the full handshake story in order.
TEST(QscanTrace, SuccessTraceContainsHandshakeLadder) {
  auto& w = telemetry_world();
  auto sink = std::make_shared<MemorySink>();
  scanner::QscanOptions options;
  options.trace_factory =
      [sink](const std::string&) -> std::unique_ptr<telemetry::TraceSink> {
    struct Proxy : telemetry::TraceSink {
      std::shared_ptr<MemorySink> target;
      void on_event(const TraceEvent& event) override {
        target->on_event(event);
      }
    };
    auto proxy = std::make_unique<Proxy>();
    proxy->target = sink;
    return proxy;
  };
  scanner::QScanner scanner(w.net.network(), options);

  const internet::HostProfile* target_host = nullptr;
  for (const auto& host : w.net.population().hosts())
    if (host.group == "google" && host.address.is_v4()) {
      target_host = &host;
      break;
    }
  ASSERT_NE(target_host, nullptr);
  auto result = scanner.scan_one({target_host->address, std::nullopt,
                                  target_host->advertised_versions});
  ASSERT_EQ(result.outcome, scanner::QscanOutcome::kSuccess);

  std::vector<EventType> want{
      EventType::kTlsMessage,          // client_hello
      EventType::kKeyUpdate,           // initial keys
      EventType::kPacketSent,          // initial
      EventType::kPacketReceived,      // server flight
      EventType::kTransportParamsSet,  // remote TPs
      EventType::kConnectionClosed,
  };
  size_t next = 0;
  for (const auto& event : sink->events())
    if (next < want.size() && event.type == want[next]) ++next;
  EXPECT_EQ(next, want.size()) << "handshake ladder incomplete";
  // Times are monotone virtual microseconds.
  uint64_t last_time = 0;
  for (const auto& event : sink->events()) {
    EXPECT_GE(event.time_us, last_time);
    last_time = event.time_us;
  }
}

}  // namespace
