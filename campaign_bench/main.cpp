// campaign_bench: the repository's end-to-end benchmark.
//
//   campaign_bench --workload NAME --seed N --seconds S --trace 0|1
//                  [--references DIR] [--record]
//
// Set-up (snapshots, generated target lists, reference digests) runs at
// least three times, and for at least two seconds, and reports its
// median. The campaign phase then repeats the workload on min(4, nproc)
// workers until S seconds have passed; every repetition must produce
// the same digests, equal to the stored reference when one exists for
// the seed. With --trace 1 repetitions alternate untraced and traced,
// and the per-layer table comes from the traced ones. stdout ends with
// one JSON line: {"correct", "attempted", "failed", "metrics"}.
// Exit codes: 0 ok, 1 a failed or mismatching run, 2 bad usage, 3 a
// build that must not report timings.
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "digest.h"
#include "quic/connection.h"
#include "scanner/qscanner.h"
#include "span.h"
#include "stamp.h"
#include "workloads.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string references = "campaign_bench/references";
  bool record = false;
};

bool parse_uint(const char* text, uint64_t& out) {
  if (!*text) return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(text, &end, 10);
  if (errno || *end || text[0] == '-') return false;
  out = v;
  return true;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    uint64_t v = 0;
    const bool has_value = i + 1 < argc;
    if (arg == "--record") {
      args.record = true;
    } else if (!has_value) {
      return false;
    } else if (arg == "--workload") {
      args.workload = argv[++i];
    } else if (arg == "--references") {
      args.references = argv[++i];
    } else if (!parse_uint(argv[++i], v)) {
      return false;
    } else if (arg == "--seed") {
      args.seed = v;
    } else if (arg == "--seconds" && v >= 1 && v <= 3600) {
      args.seconds = static_cast<int>(v);
    } else if (arg == "--trace" && v <= 1) {
      args.trace = v == 1;
    } else {
      return false;
    }
  }
  return !args.workload.empty();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

// The campaign phase of a typical repetition: for every unit (a week),
// the median of its wall or CPU time over the timed repetitions of one
// kind (traced or not; repetition 0 is the warm-up), summed over units.
// Taking each unit's median separately keeps one slow stretch of a
// shared host from moving the figure.
template <typename Sample>
double composed(const std::vector<Sample>& reps, bool traced,
                double bench::UnitTiming::*field) {
  double total = 0;
  for (size_t unit = 0; unit < reps.front().result.timings.size(); ++unit) {
    std::vector<double> values;
    for (size_t i = 1; i < reps.size(); ++i)
      if (reps[i].traced == traced)
        values.push_back(reps[i].result.timings[unit].*field);
    total += median(values);
  }
  return total;
}

// Nearest-rank percentile of microsecond samples given in nanoseconds.
double percentile_us(std::vector<uint64_t> ns, double p) {
  if (ns.empty()) return 0.0;
  std::sort(ns.begin(), ns.end());
  size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(ns.size())));
  rank = std::clamp<size_t>(rank, 1, ns.size());
  return static_cast<double>(ns[rank - 1]) / 1e3;
}

// "Crypto Error (0x128)" -> "crypto_error_0x128".
std::string slug(const std::string& name) {
  std::string out;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!out.empty() && out.back() != '_') {
      out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

struct RepSample {
  bool traced = false;
  double wall_s = 0;
  double cpu_s = 0;
  bench::RepResult result;
  // Traced repetitions only.
  std::map<std::string, bench::SpanTotals> spans;
  std::vector<uint64_t> qscan_target_ns;
  std::vector<uint64_t> tcp_target_ns;
  size_t span_count = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string format_number(double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9e15)
    std::snprintf(buf, sizeof buf, "%.0f", v);
  else
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

uint64_t counter(const telemetry::MetricsRegistry& metrics,
                 const std::string& name) {
  const auto* c = metrics.find_counter(name);
  return c ? c->value() : 0;
}

// Engine account of one repetition, summed over its campaigns.
struct EngineTotals {
  double busy_us = 0, idle_us = 0, chunks = 0;
  double max_busy_us = 0, mean_busy_us = 0, worker_us = 0, run_wall_us = 0;
};

EngineTotals engine_totals(const bench::RepResult& result) {
  EngineTotals t;
  for (const auto& c : result.campaigns) {
    const double workers = std::max(1, c.workers);
    t.busy_us += static_cast<double>(c.busy_us);
    t.idle_us += workers * static_cast<double>(c.wall_us) -
                 static_cast<double>(c.busy_us);
    t.chunks += static_cast<double>(c.chunks);
    t.max_busy_us += static_cast<double>(c.max_worker_busy_us);
    t.mean_busy_us += static_cast<double>(c.busy_us) / workers;
    t.worker_us += workers * static_cast<double>(c.wall_us);
    t.run_wall_us += static_cast<double>(c.wall_us);
  }
  return t;
}

double span_ms(const RepSample& rep, const char* name) {
  auto it = rep.spans.find(name);
  return it == rep.spans.end() ? 0.0
                               : static_cast<double>(it->second.total_ns) / 1e6;
}

// Worker time of a traced repetition: the calling thread outside the
// engine plus every engine worker for the length of its run.
double worker_time_ms(const RepSample& rep) {
  EngineTotals e = engine_totals(rep.result);
  return span_ms(rep, "bench.rep") - e.run_wall_us / 1e3 + e.worker_us / 1e3;
}

// Self times of every span except the engine's join wait, plus world
// build and idle: should equal worker_time_ms.
double accounted_ms(const RepSample& rep) {
  EngineTotals e = engine_totals(rep.result);
  double self = 0;
  for (const auto& [name, totals] : rep.spans)
    if (name != "engine.run") self += static_cast<double>(totals.self_ns) / 1e6;
  double world = e.busy_us / 1e3 - span_ms(rep, "engine.body");
  return self + world + e.idle_us / 1e3;
}

std::vector<Metric> per_layer_metrics(const std::vector<RepSample>& reps,
                                      const std::vector<double>& snapshot_ms) {
  std::vector<const RepSample*> traced;
  for (size_t i = 1; i < reps.size(); ++i)
    if (reps[i].traced) traced.push_back(&reps[i]);
  auto over_traced = [&](auto f) {
    std::vector<double> values;
    for (const auto* rep : traced) values.push_back(f(*rep));
    return median(values);
  };
  auto layer_ms = [&](const char* name) {
    return over_traced([&](const RepSample& r) { return span_ms(r, name); });
  };
  std::vector<uint64_t> qscan_ns, tcp_ns;
  for (const auto* rep : traced) {
    qscan_ns.insert(qscan_ns.end(), rep->qscan_target_ns.begin(),
                    rep->qscan_target_ns.end());
    tcp_ns.insert(tcp_ns.end(), rep->tcp_target_ns.begin(),
                  rep->tcp_target_ns.end());
  }

  const bench::RepResult& first = reps.front().result;
  const auto& m = first.metrics;
  auto count = [&](const std::string& name) {
    return static_cast<double>(counter(m, name));
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const EngineTotals e0 = engine_totals(first);

  std::vector<Metric> out;
  auto add = [&](const std::string& name, double value, const char* unit) {
    out.push_back({name, value, unit});
  };
  add("internet.snapshot_ms", median(snapshot_ms), "ms");
  add("internet.world_build_ms", over_traced([](const RepSample& r) {
        return engine_totals(r.result).busy_us / 1e3 -
               span_ms(r, "engine.body");
      }), "ms");
  add("internet.worlds", e0.chunks, "count");
  add("engine.chunks", e0.chunks, "count");
  add("engine.busy_s", over_traced([](const RepSample& r) {
        return engine_totals(r.result).busy_us / 1e6;
      }), "s");
  add("engine.idle_s", over_traced([](const RepSample& r) {
        return engine_totals(r.result).idle_us / 1e6;
      }), "s");
  add("engine.straggler_ratio", over_traced([&](const RepSample& r) {
        EngineTotals e = engine_totals(r.result);
        return ratio(e.max_busy_us, e.mean_busy_us);
      }), "ratio");

  add("zmap.scan_ms", layer_ms("zmap.scan"), "ms");
  add("zmap.probes_sent", count("zmap.probes_sent"), "count");
  add("zmap.responses", count("zmap.responses"), "count");
  add("zmap.response_ratio",
      ratio(count("zmap.responses"), count("zmap.probes_sent")), "ratio");

  add("dns.scan_ms", layer_ms("dns.scan"), "ms");
  add("dns.queries_sent", count("dns.queries_sent"), "count");
  add("dns.requeries", count("dns.requeries"), "count");

  add("tcp.scan_ms", layer_ms("tcp.scan"), "ms");
  add("tcp.target_p50_us", percentile_us(tcp_ns, 0.50), "us");
  add("tcp.target_p99_us", percentile_us(tcp_ns, 0.99), "us");
  add("tcp.attempts", count("tcp.attempts"), "count");
  add("tcp.handshake_ok", count("tcp.handshake_ok"), "count");
  add("tcp.alt_svc_seen", count("tcp.alt_svc_seen"), "count");

  add("qscan.scan_ms", layer_ms("qscan.scan"), "ms");
  add("qscan.target_p50_us", percentile_us(qscan_ns, 0.50), "us");
  add("qscan.target_p99_us", percentile_us(qscan_ns, 0.99), "us");
  add("qscan.target_samples", static_cast<double>(qscan_ns.size()), "count");
  add("qscan.attempts", count("qscan.attempts"), "count");
  add("qscan.retries", count("qscan.retries"), "count");
  add("qscan.attempts_per_target",
      ratio(count("qscan.attempts"), static_cast<double>(first.stateful())),
      "ratio");
  add("qscan.watchdog_fired", count("qscan.watchdog_fired"), "count");
  for (size_t i = 0; i < scanner::kQscanOutcomeCount; ++i) {
    auto name = scanner::to_string(static_cast<scanner::QscanOutcome>(i));
    add("qscan.outcome." + slug(name), count("qscan.outcome." + name),
        "count");
  }
  const auto* packets = m.find_histogram("qscan.packets_per_attempt");
  add("qscan.packets_per_attempt",
      packets ? ratio(static_cast<double>(packets->sum()),
                      static_cast<double>(packets->count()))
              : 0.0,
      "count");
  add("hotpath.alloc_bytes", count("hotpath.alloc_bytes"), "bytes");
  add("hotpath.aead_ctx_reuse", count("hotpath.aead_ctx_reuse"), "count");
  add("hotpath.undecryptable", count("hotpath.undecryptable"), "count");
  for (size_t i = 1; i < quic::kProtocolErrorCount; ++i) {
    auto name = quic::to_string(static_cast<quic::ProtocolError>(i));
    add("quic.protocol_error." + name, count("quic.protocol_error." + name),
        "count");
  }
  for (const char* name :
       {"net.datagrams_sent", "net.delivered", "net.dropped_loss",
        "net.dropped_rate_limited", "net.dropped_reorder_expired",
        "net.dropped_silent", "net.dropped_unrouted", "loop.events_fired",
        "loop.events_cancelled"})
    add(name, count(name), "count");

  add("report.fold_ms", layer_ms("report.fold"), "ms");
  add("report.merge_ms", layer_ms("report.merge"), "ms");
  add("report.render_ms", layer_ms("report.render"), "ms");
  add("report.csv_ms", layer_ms("report.csv"), "ms");
  add("report.rows", count("report.rows"), "count");

  add("trace.overhead_pct",
      (ratio(composed(reps, true, &bench::UnitTiming::wall_s),
             composed(reps, false, &bench::UnitTiming::wall_s)) -
       1.0) * 100.0,
      "%");
  add("trace.accounted_share", over_traced([](const RepSample& r) {
        return accounted_ms(r) / worker_time_ms(r);
      }), "ratio");
  add("trace.spans", over_traced([](const RepSample& r) {
        return static_cast<double>(r.span_count);
      }), "count");
  return out;
}

// Mean self time per traced repetition, by span, plus the derived rows.
void print_layer_table(const std::vector<RepSample>& reps) {
  std::map<std::string, bench::SpanTotals> sum;
  double world = 0, idle = 0, worker = 0, accounted = 0;
  double n = 0;
  for (const auto& rep : reps) {
    if (!rep.traced) continue;
    n += 1;
    for (const auto& [name, t] : rep.spans) {
      sum[name].count += t.count;
      sum[name].total_ns += t.total_ns;
      sum[name].self_ns += t.self_ns;
    }
    EngineTotals e = engine_totals(rep.result);
    world += e.busy_us / 1e3 - span_ms(rep, "engine.body");
    idle += e.idle_us / 1e3;
    worker += worker_time_ms(rep);
    accounted += accounted_ms(rep);
  }
  if (n == 0) return;
  std::printf("# per-layer self time, mean of %.0f traced repetitions\n", n);
  std::printf("#   %-24s %10s %12s %12s %7s\n", "span", "count", "total_ms",
              "self_ms", "share");
  for (const auto& [name, t] : sum) {
    const double self = name == "engine.run" ? 0.0 : t.self_ns / 1e6 / n;
    std::printf("#   %-24s %10.0f %12.3f %12.3f %6.1f%%%s\n", name.c_str(),
                t.count / n, t.total_ns / 1e6 / n, self,
                100.0 * self / (worker / n),
                name == "engine.run" ? "  (join wait, not worker time)" : "");
  }
  std::printf("#   %-24s %10s %12s %12.3f %6.1f%%\n", "internet.world_build",
              "-", "-", world / n, 100.0 * world / worker);
  std::printf("#   %-24s %10s %12s %12.3f %6.1f%%\n", "engine.idle", "-", "-",
              idle / n, 100.0 * idle / worker);
  std::printf("#   worker time %.3f ms, accounted %.3f ms\n", worker / n,
              accounted / n);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: campaign_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--references DIR] [--record]\n");
    return 2;
  }
  const bench::WorkloadSpec* spec = bench::find_workload(args.workload);
  if (!spec) {
    std::fprintf(stderr, "unknown workload '%s' (known:",
                 args.workload.c_str());
    for (const auto& w : bench::workloads())
      std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, ")\n");
    return 2;
  }
  const bench::Stamp stamp = bench::host_stamp();
  if (!stamp.timings_valid()) {
    std::fprintf(stderr,
                 "refusing to report timings from this build (%s): build the "
                 "benchmark as an unsanitized Release\n",
                 stamp.describe().c_str());
    return 3;
  }
  const int jobs = static_cast<int>(std::clamp(stamp.nproc, 1u, 4u));

  const std::string reference_path =
      args.references + "/" + spec->name + ".json";

  // --- set-up, repeated for a steady median ---
  std::vector<double> setup_s, snapshot_ms;
  bench::Inputs inputs;
  std::optional<std::vector<bench::UnitDigests>> reference;
  try {
    const auto setup_start = Clock::now();
    for (int k = 0; k < 3 || (seconds_since(setup_start) < 2.0 && k < 25);
         ++k) {
      inputs = {};
      auto t0 = Clock::now();
      inputs = bench::make_inputs(*spec, args.seed);
      reference = bench::load_reference(reference_path, args.seed);
      setup_s.push_back(seconds_since(t0));
      double total = 0;
      for (double ms : inputs.snapshot_ms) total += ms;
      snapshot_ms.push_back(total);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "set-up failed: %s\n", e.what());
    return 1;
  }

  // --- campaign phase ---
  // Repetition 0 warms caches and lazily built tables; it is checked
  // like every other repetition but never timed.
  std::vector<RepSample> reps;
  const auto deadline =
      Clock::now() + std::chrono::seconds(args.seconds);
  bool saw_plain = false, saw_traced = false;
  while (Clock::now() < deadline || !saw_plain ||
         (args.trace && !saw_traced)) {
    RepSample sample;
    sample.traced = args.trace && reps.size() % 2 == 0 && !reps.empty();
    bench::SpanRecorder spans(sample.traced);
    const double cpu0 = bench::process_cpu_s();
    const auto t0 = Clock::now();
    sample.result = bench::run_rep(*spec, inputs, args.seed, jobs, spans);
    sample.wall_s = seconds_since(t0);
    sample.cpu_s = bench::process_cpu_s() - cpu0;
    if (sample.traced) {
      sample.spans = spans.totals();
      sample.qscan_target_ns = spans.durations_ns("qscan.target");
      sample.tcp_target_ns = spans.durations_ns("tcp.target");
      sample.span_count = spans.span_count();
      saw_traced = true;
    } else if (!reps.empty()) {
      saw_plain = true;
    }
    if (!reps.empty()) sample.result.metrics = {};  // keep only the first
    reps.push_back(std::move(sample));
  }

  // --- correctness ---
  // --record makes this run the reference, so it checks the
  // repetitions against each other only.
  const bool use_reference = reference && !args.record;
  const auto& expected =
      use_reference ? *reference : reps.front().result.units;
  uint64_t attempted = 0, missing = 0, mismatched = 0;
  std::vector<std::string> errors;
  for (const auto& rep : reps) {
    attempted += rep.result.targets();
    missing += rep.result.missing;
    mismatched += bench::mismatched_targets(expected, rep.result.units);
    errors.insert(errors.end(), rep.result.errors.begin(),
                  rep.result.errors.end());
  }
  const uint64_t failed = std::min(missing + mismatched, attempted);
  bool correct = failed == 0 && errors.empty() && attempted > 0;

  const char* reference_state = !use_reference ? "none"
                                : mismatched  ? "MISMATCH"
                                              : "matched";
  if (args.record && correct) {
    try {
      bench::store_reference(reference_path, spec->name, args.seed,
                             reps.front().result.units);
      reference_state = "recorded";
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      correct = false;
    }
  }

  // --- metrics ---
  const auto& first = reps.front().result;
  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = per_layer_metrics(reps, snapshot_ms);
  } else {
    metrics = {
        {"targets_per_s",
         static_cast<double>(first.targets()) /
             composed(reps, false, &bench::UnitTiming::wall_s),
         "1/s"},
        {"cpu_s", composed(reps, false, &bench::UnitTiming::cpu_s), "s"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"success_ratio",
         first.stateful() ? static_cast<double>(first.successes()) /
                                static_cast<double>(first.stateful())
                          : 0.0,
         "ratio"},
    };
  }

  // --- report ---
  std::printf("# host: %s\n", stamp.describe().c_str());
  std::printf(
      "# workload %s seed %llu: jobs %d, %zu repetitions in %d s, %llu "
      "targets/repetition, %llu stateful, reference %s\n",
      spec->name.c_str(), static_cast<unsigned long long>(args.seed), jobs,
      reps.size(), args.seconds,
      static_cast<unsigned long long>(first.targets()),
      static_cast<unsigned long long>(first.stateful()), reference_state);
  std::printf("# failed_ratio %.6f (%llu of %llu targets)\n",
              attempted ? static_cast<double>(failed) /
                              static_cast<double>(attempted)
                        : 0.0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const auto& error : errors)
    std::printf("# error: %s\n", error.c_str());
  for (size_t i = 0; i < reps.size(); ++i)
    std::printf("# repetition %zu%s: %.3f s wall, %.3f s cpu\n", i,
                i == 0 ? " (warm-up)" : reps[i].traced ? " (traced)" : "",
                reps[i].wall_s, reps[i].cpu_s);
  if (args.trace) print_layer_table(reps);
  for (const auto& metric : metrics)
    std::printf("#   %-32s %20s %s\n", metric.name.c_str(),
                format_number(metric.value).c_str(), metric.unit.c_str());

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            format_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
