#include "cli.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <thread>

#include "crypto/cpu.h"
#include "internet/adversary.h"
#include "internet/internet.h"
#include "netsim/impairment.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace cli {
namespace {

// Weeks span the synthetic population's calendar window.
constexpr uint64_t kMinWeek = 5;
constexpr uint64_t kMaxWeek = 18;
constexpr uint64_t kMaxJobs = 1024;
constexpr uint64_t kMaxRetries = 100;

std::string unknown_profile(const char* flag, const char* kind,
                            const std::string& name,
                            std::span<const std::string_view> known) {
  std::string message = std::string(flag) + ": unknown " + kind +
                        " profile '" + name + "' (known:";
  for (auto known_name : known) message += " " + std::string(known_name);
  return message + ")";
}

void write_json(const std::string& path,
                const telemetry::MetricsRegistry& registry) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  registry.write_json(out);
  out.flush();
  if (!out) throw std::runtime_error("error writing " + path);
}

}  // namespace

uint64_t parse_number(std::string_view flag, std::string_view text,
                      uint64_t lo, uint64_t hi, bool allow_hex) {
  std::string_view digits = text;
  int base = 10;
  if (allow_hex && (digits.starts_with("0x") || digits.starts_with("0X"))) {
    digits.remove_prefix(2);
    base = 16;
  }
  uint64_t value = 0;
  const char* end = digits.data() + digits.size();
  auto [stop, error] = std::from_chars(digits.data(), end, value, base);
  if (error != std::errc() || stop != end || value < lo || value > hi) {
    throw std::invalid_argument(
        std::string(flag.substr(2)) + " must be in [" + std::to_string(lo) +
        ", " + std::to_string(hi) + "], got " + std::string(flag) + " '" +
        std::string(text) + "'");
  }
  return value;
}

void FlagTable::add_switch(std::string name, std::function<void()> set) {
  flags_.push_back({std::move(name), "",
                    [set = std::move(set)](const std::string&) { set(); }});
}

void FlagTable::add(std::string name, std::string value_name,
                    std::function<void(const std::string&)> apply) {
  flags_.push_back({std::move(name), std::move(value_name), std::move(apply)});
}

void FlagTable::add(std::string name, std::string value_name,
                    std::string& out) {
  add(std::move(name), std::move(value_name),
      [&out](const std::string& value) { out = value; });
}

void FlagTable::parse(int argc, char** argv) const {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto flag = std::find_if(flags_.begin(), flags_.end(),
                             [&](const Flag& f) { return f.name == arg; });
    if (flag == flags_.end())
      throw UsageError("unknown flag '" + arg + "'", usage());
    if (flag->value_name.empty()) {
      flag->apply("");
    } else if (i + 1 < argc) {
      flag->apply(argv[++i]);
    } else {
      throw UsageError(arg + " needs a value", usage());
    }
  }
}

std::string FlagTable::usage() const {
  std::string line = "usage: " + program_;
  for (const auto& flag : flags_) {
    line += " [" + flag.name;
    if (!flag.value_name.empty()) line += " " + flag.value_name;
    line += "]";
  }
  return line;
}

void CampaignFlags::add_to(FlagTable& table) {
  table.add_number("--week", week, kMinWeek, kMaxWeek);
  table.add_number("--jobs", jobs, 0, kMaxJobs);
  table.add_number("--chunk-size", chunk_size, 0, SIZE_MAX);
  table.add_number("--seed", seed, 0, UINT64_MAX, /*allow_hex=*/true);
  table.add("--qlog", "DIR", qlog_dir);
  table.add("--metrics", "FILE", metrics_file);
  table.add("--sched-metrics", "FILE", sched_metrics_file);
  table.add("--impair", "PROFILE", impair);
  table.add("--adversary", "PROFILE", adversary);
  table.add_number("--retries", retries, 0, kMaxRetries);
  table.add("--report", "DIR", report_dir);
  table.add("--crypto-backend", "NAME", [](const std::string& name) {
    crypto::set_backend_override(crypto::parse_backend(name));
  });
}

engine::CampaignOptions CampaignFlags::options(
    const internet::PopulationParams& population) {
  if (!impair.empty() && !netsim::find_impairment_profile(impair))
    throw std::invalid_argument(unknown_profile(
        "--impair", "impairment", impair, netsim::impairment_profile_names()));
  if (!adversary.empty() && !internet::find_adversary_profile(adversary))
    throw std::invalid_argument(
        unknown_profile("--adversary", "adversary", adversary,
                        internet::adversary_profile_names()));
  if (jobs == 0) {
    // hardware_concurrency() may report 0 on exotic platforms; fall
    // back to the serial path rather than refusing to run.
    unsigned detected = std::thread::hardware_concurrency();
    jobs = detected > 0 ? static_cast<int>(detected) : 1;
    std::fprintf(stderr, "--jobs 0: auto-detected %d worker thread%s\n",
                 jobs, jobs == 1 ? "" : "s");
  }
  if (!qlog_dir.empty()) {
    // Create the qlog root on the calling thread, so a bad path fails
    // with a clear message before any chunk work starts.
    try {
      telemetry::QlogDir probe(qlog_dir);
    } catch (const std::exception& e) {
      throw std::runtime_error("cannot create qlog dir " + qlog_dir + ": " +
                               e.what());
    }
  }
  engine::CampaignOptions options;
  options.jobs = jobs;
  options.chunk_size = chunk_size;
  options.seed = seed;
  options.week = week;
  options.population = population;
  options.snapshot = std::make_shared<const internet::Snapshot>(population,
                                                                week);
  options.qlog_dir = qlog_dir;
  options.impairment = impair;
  options.adversary = adversary;
  return options;
}

void CampaignFlags::write_report(
    const engine::ShardFold<report::ReportAccumulator>& fold) const {
  if (!report_dir.empty()) report::write_report_dir(report_dir, fold.merged());
}

void CampaignFlags::print_summary(const engine::Campaign& campaign) const {
  const size_t chunks = campaign.ranges().size();
  std::fprintf(stderr,
               "# scheduler: %zu chunk%s, %d worker%s, straggler ratio %.2f\n",
               chunks, chunks == 1 ? "" : "s", jobs, jobs == 1 ? "" : "s",
               campaign.straggler_ratio());
  std::fprintf(stderr, "# crypto backend: %s\n",
               crypto::backend_name(crypto::resolve_backend()));
}

void CampaignFlags::write_metrics(const engine::Campaign& campaign) const {
  if (!metrics_file.empty()) write_json(metrics_file, campaign.metrics());
  if (!sched_metrics_file.empty())
    write_json(sched_metrics_file, campaign.scheduler_metrics());
}

int run_main(const char* program, const std::function<int()>& body) {
  try {
    return body();
  } catch (const UsageError& e) {
    std::fprintf(stderr, "%s: %s\n%s\n", program, e.what(), e.usage.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", program, e.what());
  }
  return 2;
}

}  // namespace cli
