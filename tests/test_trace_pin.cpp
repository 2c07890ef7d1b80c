// Output pins for every trace producer. Each test runs one small fixed
// campaign through engine::Campaign with qlog on and hashes, with
// SHA-256, every qlog file (relative path and bytes, sorted by path),
// the campaign's CSV rows and its merged metrics JSON. The digests are
// constants: a change that moves any qlog event, any packet size, any
// row or any counter of these campaigns fails here, even when every
// other test only checks that runs agree with each other.
//
// The campaigns:
//   - QScanner with SNI under the hostile fabric and malicious
//     endpoints, with 2 retries: Retry, Version Negotiation, split and
//     reordered flights, undecryptable pieces and the adversary lanes
//     (the test asserts that each of these shows up);
//   - a clean ZMap sweep;
//   - a DNS scan with a Tracer;
//   - a TLS-over-TCP pass.
// A digest is meant to change only with a deliberate change of output;
// record the new value in the same change and say why.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "engine/engine.h"
#include "internet/internet.h"
#include "report/report.h"
#include "scanner/dns_scan.h"
#include "scanner/qscanner.h"
#include "scanner/tcp_tls.h"
#include "scanner/zmap.h"
#include "telemetry/trace.h"

namespace {

namespace fs = std::filesystem;

constexpr int kWeek = 18;
constexpr uint64_t kSeed = 0x9a11;
constexpr size_t kChunkSize = 16;
constexpr internet::PopulationParams kPopulation{.dns_corpus_scale = 0.002};

std::shared_ptr<const internet::Snapshot> shared_snapshot() {
  static auto snapshot =
      std::make_shared<const internet::Snapshot>(kPopulation, kWeek);
  return snapshot;
}

/// Every file under `root` by relative path, in path order.
std::map<std::string, std::string> qlog_files(const fs::path& root) {
  std::map<std::string, std::string> files;
  if (!fs::exists(root)) return files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    files[fs::relative(entry.path(), root).generic_string()] = bytes.str();
  }
  return files;
}

class Digest {
 public:
  void add(const std::string& text) {
    // Length-prefixed, so no two different inputs share a stream.
    const std::string length = std::to_string(text.size()) + ':';
    sha_.update({reinterpret_cast<const uint8_t*>(length.data()),
                 length.size()});
    sha_.update({reinterpret_cast<const uint8_t*>(text.data()), text.size()});
  }
  std::string hex() {
    static const char kHex[] = "0123456789abcdef";
    std::string out;
    for (uint8_t b : sha_.final()) {
      out += kHex[b >> 4];
      out += kHex[b & 0xf];
    }
    return out;
  }

 private:
  crypto::Sha256 sha_;
};

/// What a pinned campaign produced.
struct PinnedRun {
  std::map<std::string, std::string> qlog;
  std::vector<std::string> csv;
  std::string metrics_json;

  std::string digest() const {
    Digest d;
    for (const auto& [path, bytes] : qlog) {
      d.add(path);
      d.add(bytes);
    }
    for (const auto& row : csv) d.add(row);
    d.add(metrics_json);
    return d.hex();
  }
  /// Trace lines, over every file, that name `event`.
  size_t events(const std::string& event) const {
    const std::string needle = "\"name\":\"" + event + "\"";
    size_t count = 0;
    for (const auto& file : qlog) {
      const std::string& text = file.second;
      for (size_t at = text.find(needle); at != std::string::npos;
           at = text.find(needle, at + 1))
        ++count;
    }
    return count;
  }
  /// True when the merged metrics hold counter `name` above zero.
  bool has_counter(const std::string& name) const {
    const std::string key = "\"" + name + "\": ";
    const size_t at = metrics_json.find(key);
    return at != std::string::npos && metrics_json[at + key.size()] != '0';
  }
};

engine::CampaignOptions options(const fs::path& qlog_dir,
                                const std::string& impairment = "clean",
                                const std::string& adversary = "compliant") {
  engine::CampaignOptions options;
  options.jobs = 2;
  options.seed = kSeed;
  options.chunk_size = kChunkSize;
  options.week = kWeek;
  options.population = kPopulation;
  options.snapshot = shared_snapshot();
  options.qlog_dir = qlog_dir.string();
  options.impairment = impairment;
  // Named even when compliant, so QREPRO_ADVERSARY cannot reach here.
  options.adversary = adversary;
  return options;
}

fs::path fresh_dir(const std::string& name) {
  fs::path dir = fs::path(testing::TempDir()) /
                 ("trace_pin_" + std::to_string(::getpid())) / name;
  fs::remove_all(dir);
  return dir;
}

/// The campaign's pinned output; removes its qlog tree.
PinnedRun collect(const engine::Campaign& campaign, const fs::path& qlog_dir,
                  std::vector<std::string> csv) {
  PinnedRun run;
  run.csv = std::move(csv);
  std::ostringstream metrics;
  campaign.metrics().write_json(metrics);
  run.metrics_json = metrics.str();
  run.qlog = qlog_files(qlog_dir);
  fs::remove_all(qlog_dir);
  std::error_code not_empty_yet;
  fs::remove(qlog_dir.parent_path(), not_empty_yet);
  return run;
}

/// (host, SNI) pairs: up to `per_group` domains of every provider
/// group, each at its first IPv4 host, in domain order.
std::vector<std::pair<const internet::HostProfile*, std::string>> sni_pairs(
    int per_group) {
  const auto& population = shared_snapshot()->population();
  std::vector<std::pair<const internet::HostProfile*, std::string>> pairs;
  std::map<std::string, int> taken;
  for (const auto& domain : population.domains()) {
    if (domain.v4_hosts.empty()) continue;
    const auto& host = population.hosts()[domain.v4_hosts.front()];
    if (taken[host.group]++ < per_group) pairs.emplace_back(&host, domain.name);
  }
  return pairs;
}

PinnedRun run_qscanner() {
  std::vector<scanner::QscanTarget> targets;
  for (const auto& [host, sni] : sni_pairs(6))
    targets.push_back({host->address, sni, host->advertised_versions});
  const fs::path dir = fresh_dir("qscan");
  engine::Campaign campaign(options(dir, "hostile", "malicious"));
  const size_t slots = campaign.slot_count(targets.size());
  std::vector<std::vector<scanner::QscanResult>> rows(slots);
  campaign.run(targets.size(), [&](engine::ShardEnv& env) {
    scanner::QscanOptions qopt;
    qopt.seed = env.seed;
    qopt.metrics = env.metrics;
    qopt.trace_factory = env.trace_factory;
    qopt.retry.max_attempts = 3;
    scanner::QScanner qscanner(env.internet->network(), qopt);
    for (size_t i = env.range.begin; i < env.range.end; ++i)
      if (qscanner.compatible(targets[i]))
        rows[static_cast<size_t>(env.shard_index)].push_back(
            qscanner.scan_one(targets[i]));
  });
  std::vector<std::string> csv;
  for (const auto& result : engine::concat_shards(std::move(rows)))
    csv.push_back(report::to_csv_row(report::features_of(result)));
  return collect(campaign, dir, std::move(csv));
}

PinnedRun run_zmap() {
  std::vector<netsim::IpAddress> sweep;
  {
    netsim::EventLoop loop;
    internet::Internet planning(shared_snapshot(), loop);
    sweep = planning.zmap_candidates_v4();
    sweep.resize(std::min<size_t>(sweep.size(), 160));
    const auto hitlist = planning.ipv6_hitlist();
    sweep.insert(sweep.end(), hitlist.begin(),
                 hitlist.begin() +
                     static_cast<ptrdiff_t>(std::min<size_t>(hitlist.size(), 32)));
  }
  const fs::path dir = fresh_dir("zmap");
  engine::Campaign campaign(options(dir));
  const size_t slots = campaign.slot_count(sweep.size());
  std::vector<std::vector<std::string>> rows(slots);
  campaign.run(sweep.size(), [&](engine::ShardEnv& env) {
    std::unique_ptr<telemetry::TraceSink> trace =
        env.trace_factory("zmap_sweep");
    scanner::ZmapOptions zopt;
    zopt.seed = env.seed;
    zopt.metrics = env.metrics;
    zopt.trace_sink = trace.get();
    scanner::ZmapQuicScanner zmap(env.internet->network(), zopt);
    for (const auto& hit : zmap.scan(std::span(sweep).subspan(
             env.range.begin, env.range.size()))) {
      std::string row = hit.address.to_string();
      for (auto version : hit.versions) row += ',' + quic::version_name(version);
      rows[static_cast<size_t>(env.shard_index)].push_back(row);
    }
  });
  return collect(campaign, dir, engine::concat_shards(std::move(rows)));
}

PinnedRun run_dns() {
  std::vector<std::string> corpus;
  {
    netsim::EventLoop loop;
    internet::Internet planning(shared_snapshot(), loop);
    corpus = planning.list_corpus("umbrella");
    corpus.resize(std::min<size_t>(corpus.size(), 96));
  }
  const fs::path dir = fresh_dir("dns");
  engine::Campaign campaign(options(dir));
  const size_t slots = campaign.slot_count(corpus.size());
  std::vector<std::vector<std::string>> rows(slots);
  campaign.run(corpus.size(), [&](engine::ShardEnv& env) {
    std::unique_ptr<telemetry::TraceSink> trace =
        env.trace_factory("dns_umbrella");
    scanner::DnsScanner dns(
        env.internet->zones(), env.metrics,
        telemetry::Tracer(trace.get(), env.loop));
    const auto scan = dns.scan_list(
        "umbrella", std::span(corpus).subspan(env.range.begin,
                                              env.range.size()));
    for (const auto& record : scan.records) {
      std::string row = record.domain;
      for (const auto& a : record.a) row += ',' + a.to_string();
      for (const auto& aaaa : record.aaaa) row += ',' + aaaa.to_string();
      row += record.has_https_rr() ? ",https" : "";
      rows[static_cast<size_t>(env.shard_index)].push_back(row);
    }
  });
  return collect(campaign, dir, engine::concat_shards(std::move(rows)));
}

PinnedRun run_tcp_tls() {
  std::vector<scanner::TcpTarget> targets;
  for (const auto& [host, sni] : sni_pairs(3))
    targets.push_back({host->address, sni});
  const fs::path dir = fresh_dir("tcp");
  engine::Campaign campaign(options(dir));
  const size_t slots = campaign.slot_count(targets.size());
  std::vector<std::vector<std::string>> rows(slots);
  campaign.run(targets.size(), [&](engine::ShardEnv& env) {
    scanner::TcpTlsOptions topt;
    topt.seed = env.seed;
    topt.metrics = env.metrics;
    topt.trace_factory = env.trace_factory;
    scanner::TcpTlsScanner tcp(env.internet->network(), topt);
    for (size_t i = env.range.begin; i < env.range.end; ++i) {
      const auto result = tcp.scan_one(targets[i]);
      std::ostringstream row;
      row << result.target.address.to_string() << ','
          << result.target.sni.value_or("") << ',' << result.port_open << ','
          << result.handshake_ok << ',' << result.http_ok << ','
          << result.details.selected_alpn.value_or("") << ','
          << result.alt_svc.size();
      rows[static_cast<size_t>(env.shard_index)].push_back(row.str());
    }
  });
  return collect(campaign, dir, engine::concat_shards(std::move(rows)));
}

TEST(TracePin, QscannerSniHostileMaliciousWithRetries) {
  const PinnedRun run = run_qscanner();
  // The campaign reaches every lane the pin is meant to hold still.
  EXPECT_GT(run.events("retry"), 0u);
  EXPECT_GT(run.events("version_negotiation"), 0u);
  EXPECT_GT(run.events("protocol_error"), 0u);
  EXPECT_GT(run.events("timeout"), 0u);
  EXPECT_TRUE(run.has_counter("hotpath.undecryptable"));
  EXPECT_TRUE(run.has_counter("qscan.retries"));
  EXPECT_TRUE(run.has_counter("net.reordered"));
  EXPECT_EQ(run.digest(),
            "adb41fb64e3997352733587b0b7b184c2d2a86b43c541bbeb6277357f8e24c2f");
}

TEST(TracePin, ZmapCleanSweep) {
  const PinnedRun run = run_zmap();
  EXPECT_FALSE(run.csv.empty());
  EXPECT_EQ(run.digest(),
            "4a80831774d0c6bdd04e2bb5e2301b0cd66190c4a9ac9cf2abb37b4ae731a190");
}

TEST(TracePin, DnsScanWithTracer) {
  const PinnedRun run = run_dns();
  EXPECT_FALSE(run.csv.empty());
  EXPECT_EQ(run.digest(),
            "2fb5d825fae883c5b973e1c85c6a610d6de2f9c213dd3f82a63ac8b2b5440bb7");
}

TEST(TracePin, TlsOverTcpPass) {
  const PinnedRun run = run_tcp_tls();
  EXPECT_FALSE(run.csv.empty());
  EXPECT_EQ(run.digest(),
            "ba9f2330452a8ba9a7b3c8b04a3d2fbe5d8427c31ce06f7d9006da347020dc15");
}

}  // namespace
