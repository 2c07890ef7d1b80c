// google-benchmark end-to-end throughput: ZMap probe construction, bulk
// DNS resolution, full QUIC handshakes and TLS-over-TCP handshakes
// against a live simulated deployment -- the per-target costs that
// bound real scan rates.
#include <benchmark/benchmark.h>

#include "dns/resolver.h"
#include "internet/internet.h"
#include "scanner/qscanner.h"
#include "scanner/tcp_tls.h"
#include "scanner/zmap.h"

namespace {

struct Fixture {
  netsim::EventLoop loop;
  internet::Internet net{{.dns_corpus_scale = 0.001}, 18, loop};
  // One QScanner per network: a scanner's attempt counter feeds its
  // source ports and connection IDs, so a second default-seeded scanner
  // on this network would replay (port, DCID) pairs whose server
  // sessions are still open and time out. Google Benchmark runs each
  // body several times, so the scanner must outlive every run.
  scanner::QScanner qscanner{net.network(), {}};
  netsim::IpAddress cloudflare_addr;
  std::string cloudflare_domain;
  /// A domain with A, AAAA and HTTPS records in this week's zones.
  std::string full_domain;

  Fixture() {
    const auto& pop = net.population();
    for (const auto& domain : pop.domains()) {
      if (domain.v4_hosts.empty()) continue;
      const auto& host = pop.hosts()[domain.v4_hosts[0]];
      if (host.group == "cloudflare" && host.tls_max_version == 0x0304) {
        cloudflare_addr = host.address;
        cloudflare_domain = domain.name;
        break;
      }
    }
    for (const auto& domain : pop.domains()) {
      if (!domain.v4_hosts.empty() && !domain.v6_hosts.empty() &&
          domain.https_rr_since_week > 0 &&
          domain.https_rr_since_week <= pop.week()) {
        full_domain = domain.name;
        break;
      }
    }
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_ZmapProbeBuild(benchmark::State& state) {
  auto& f = fixture();
  scanner::ZmapQuicScanner zmap(f.net.network(), {});
  crypto::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(zmap.build_probe(rng));
}
BENCHMARK(BM_ZmapProbeBuild);

/// Three wire round trips (A, AAAA, HTTPS) on one reused resolver, as
/// DnsScanner::scan_list issues them per input domain.
void BM_DnsResolveOne(benchmark::State& state) {
  auto& f = fixture();
  if (f.full_domain.empty()) {
    state.SkipWithError("no such domain");
    return;
  }
  dns::BulkResolver resolver(f.net.zones());
  for (auto _ : state) {
    auto record = resolver.resolve_one(f.full_domain);
    if (record.a.empty() || record.aaaa.empty() || !record.has_https_rr())
      state.SkipWithError("incomplete answer");
    benchmark::DoNotOptimize(record);
  }
}
BENCHMARK(BM_DnsResolveOne);

/// The bulk of every input list: a name the zones do not hold.
void BM_DnsResolveOneNxdomain(benchmark::State& state) {
  auto& f = fixture();
  dns::BulkResolver resolver(f.net.zones());
  const std::string missing = "nx-" + f.cloudflare_domain;
  for (auto _ : state) benchmark::DoNotOptimize(resolver.resolve_one(missing));
}
BENCHMARK(BM_DnsResolveOneNxdomain);

void BM_ZmapSweepPerTarget(benchmark::State& state) {
  auto& f = fixture();
  std::vector<netsim::IpAddress> targets{f.cloudflare_addr};
  for (auto _ : state) {
    scanner::ZmapQuicScanner zmap(f.net.network(), {});
    benchmark::DoNotOptimize(zmap.scan(targets));
  }
}
BENCHMARK(BM_ZmapSweepPerTarget);

void BM_QuicHandshakeWithSni(benchmark::State& state) {
  auto& f = fixture();
  scanner::QscanTarget target{f.cloudflare_addr, f.cloudflare_domain,
                              {quic::kDraft29}};
  for (auto _ : state) {
    auto result = f.qscanner.scan_one(target);
    if (result.outcome != scanner::QscanOutcome::kSuccess)
      state.SkipWithError("handshake failed");
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_QuicHandshakeWithSni);

void BM_QuicHandshakeRejected(benchmark::State& state) {
  auto& f = fixture();
  scanner::QscanTarget target{f.cloudflare_addr, std::nullopt,
                              {quic::kDraft29}};
  for (auto _ : state) {
    auto result = f.qscanner.scan_one(target);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_QuicHandshakeRejected);

void BM_TlsOverTcpHandshake(benchmark::State& state) {
  auto& f = fixture();
  scanner::TcpTlsScanner tcp(f.net.network(), {});
  scanner::TcpTarget target{f.cloudflare_addr, f.cloudflare_domain};
  for (auto _ : state) {
    auto result = tcp.scan_one(target);
    if (!result.handshake_ok) state.SkipWithError("handshake failed");
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_TlsOverTcpHandshake);

}  // namespace

BENCHMARK_MAIN();
