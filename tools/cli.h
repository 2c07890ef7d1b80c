// The command-line layer the four CLIs share: one flag table that
// parses argv and prints the usage line, strict numeric values, the
// campaign flags of the three scanner CLIs with the work they share
// around an engine run, and one entry wrapper. No input may abort a
// tool: every bad value throws, and run_main turns that into
// "<cli>: <message>" and exit 2.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "internet/population.h"
#include "report/report.h"

namespace cli {

/// Parses `text`, the value given to `flag` (e.g. "--jobs"), as one
/// unsigned decimal integer (or, with allow_hex, a 0x-prefixed hex one)
/// in [lo, hi]. Anything else -- "abc", "-5", "12x", "1e3", "" --
/// throws std::invalid_argument naming the flag, the text and the
/// range. Nothing is coerced.
uint64_t parse_number(std::string_view flag, std::string_view text,
                      uint64_t lo, uint64_t hi, bool allow_hex = false);

/// An unknown flag, a value flag without its value, or a command line
/// that names nothing to do. run_main prints the usage line after it.
struct UsageError : std::invalid_argument {
  UsageError(const std::string& message, std::string usage_line)
      : std::invalid_argument(message), usage(std::move(usage_line)) {}
  std::string usage;
};

/// The flags one CLI accepts, in the order its usage line lists them.
class FlagTable {
 public:
  explicit FlagTable(std::string program) : program_(std::move(program)) {}

  /// A flag without a value.
  void add_switch(std::string name, std::function<void()> set);
  /// A flag with one value, handed to `apply` (which may throw).
  void add(std::string name, std::string value_name,
           std::function<void(const std::string&)> apply);
  /// A flag whose value is stored in `out`.
  void add(std::string name, std::string value_name, std::string& out);
  /// An integer flag in [lo, hi] (see parse_number), stored in `out`.
  template <typename T>
  void add_number(std::string name, T& out, uint64_t lo, uint64_t hi,
                  bool allow_hex = false) {
    add(name, "N", [&out, name, lo, hi, allow_hex](const std::string& text) {
      out = static_cast<T>(parse_number(name, text, lo, hi, allow_hex));
    });
  }

  /// Applies argv[1..argc) in order; throws UsageError on an unknown
  /// flag or a value flag given last.
  void parse(int argc, char** argv) const;
  /// "usage: <program> [--flag VALUE] ..." on one line.
  std::string usage() const;

 private:
  struct Flag {
    std::string name;
    std::string value_name;  // empty for a switch
    std::function<void(const std::string&)> apply;
  };
  std::string program_;
  std::vector<Flag> flags_;
};

/// The twelve campaign flags of qscanner_cli, zmap_quic_cli and
/// dns_scan_cli, and the work they share around the engine run.
struct CampaignFlags {
  int week = 18;
  int jobs = 1;  // 0 auto-detects the hardware concurrency
  size_t chunk_size = 0;
  uint64_t seed = 0;
  std::string qlog_dir;
  std::string metrics_file;
  std::string sched_metrics_file;
  std::string impair;
  std::string adversary;
  int retries = 0;
  std::string report_dir;

  /// Registers --week, --jobs, --chunk-size, --seed, --qlog, --metrics,
  /// --sched-metrics, --impair, --adversary, --retries, --report and
  /// --crypto-backend (which applies its override as it is parsed).
  void add_to(FlagTable& table);

  /// Checks the profile names, resolves --jobs 0 and creates the qlog
  /// root up front, then returns the engine options over one snapshot
  /// of `population` at --week, built here and shared by the CLI's
  /// planning world and every chunk.
  engine::CampaignOptions options(const internet::PopulationParams& population);

  /// Writes DIR/report.{json,md} from the chunk-order fold, if --report.
  void write_report(
      const engine::ShardFold<report::ReportAccumulator>& fold) const;

  /// The stderr summary lines every scanner CLI ends with: chunks,
  /// workers, straggler ratio, and the crypto backend in use.
  void print_summary(const engine::Campaign& campaign) const;

  /// Writes the merged --metrics and the wall-clock --sched-metrics.
  void write_metrics(const engine::Campaign& campaign) const;
};

/// Runs a CLI body; any exception it throws becomes
/// "<program>: <message>" on stderr (plus the usage line for a
/// UsageError) and exit 2.
int run_main(const char* program, const std::function<int()>& body);

}  // namespace cli
