// Heap-allocation budget of one SNI handshake, client and simulated
// server together. The global operator new is replaced by a counting
// version, so this file is its own test binary. Each target is scanned
// once to build its lazily constructed server host and the process-wide
// keys; the second QScanner (QUIC + TLS 1.3 + HTTP/3) and TcpTlsScanner
// (TLS-over-TCP + HTTP/1.1) scan_one of the same target are counted.
//
// The portable AES backend allocates one 4 KiB GHASH table per GCM
// context (12 per QUIC scan, 8 per TCP scan), which AES-NI contexts do
// not, so its budget is that much larger.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>

#include "crypto/cpu.h"
#include "internet/internet.h"
#include "scanner/qscanner.h"
#include "scanner/tcp_tls.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace scanner;

constexpr size_t kTargets = 20;

struct Budget {
  double quic;
  double tcp;
};

struct Measured {
  size_t targets = 0;
  double quic_mean = 0;
  double tcp_mean = 0;
};

// 20 hosted domains on TLS 1.3 hosts of the three largest providers,
// where both scanners complete the handshake; each counted on its second
// scan.
Measured measure() {
  netsim::EventLoop loop;
  internet::Internet net{{.dns_corpus_scale = 0.01}, 18, loop};
  const auto& pop = net.population();
  QScanner quic_scanner(net.network(), {});
  TcpTlsScanner tcp_scanner(net.network(), {});

  std::map<std::string, size_t> per_group;
  uint64_t quic_total = 0, tcp_total = 0;
  Measured m;
  for (const auto& d : pop.domains()) {
    if (m.targets == kTargets) break;
    if (d.v4_hosts.empty()) continue;
    const auto& host = pop.hosts()[d.v4_hosts[0]];
    if (host.group != "cloudflare" && host.group != "google" &&
        host.group != "facebook")
      continue;
    if (host.tls_max_version != 0x0304 || !host.quic_enabled()) continue;
    // At most 7 per group, so all three providers' flights are counted.
    if (per_group[host.group] == 7) continue;
    const QscanTarget quic_target{host.address, d.name,
                                  host.advertised_versions};
    const TcpTarget tcp_target{host.address, d.name};
    if (quic_scanner.scan_one(quic_target).outcome != QscanOutcome::kSuccess ||
        !tcp_scanner.scan_one(tcp_target).handshake_ok)
      continue;

    uint64_t before = g_allocations.load();
    const bool quic_ok =
        quic_scanner.scan_one(quic_target).outcome == QscanOutcome::kSuccess;
    quic_total += g_allocations.load() - before;
    before = g_allocations.load();
    const bool tcp_ok = tcp_scanner.scan_one(tcp_target).handshake_ok;
    tcp_total += g_allocations.load() - before;
    EXPECT_TRUE(quic_ok && tcp_ok) << d.name;
    ++per_group[host.group];
    ++m.targets;
  }
  if (m.targets > 0) {
    m.quic_mean = static_cast<double>(quic_total) / m.targets;
    m.tcp_mean = static_cast<double>(tcp_total) / m.targets;
  }
  return m;
}

TEST(AllocBudget, SniHandshakesStayWithinBudget) {
  const bool portable =
      crypto::resolve_backend() == crypto::Backend::kPortable;
  const Budget budget = portable ? Budget{312, 183} : Budget{300, 175};
  const Measured m = measure();
  ASSERT_EQ(m.targets, kTargets);
  std::printf(
      "allocations per scan_one (%s backend, mean of %zu targets): "
      "QUIC %.1f (budget %.0f), TCP %.1f (budget %.0f)\n",
      crypto::backend_name(crypto::resolve_backend()), m.targets, m.quic_mean,
      budget.quic, m.tcp_mean, budget.tcp);
  EXPECT_LE(m.quic_mean, budget.quic);
  EXPECT_LE(m.tcp_mean, budget.tcp);
}

// One week's world, built the way every campaign builds it: the
// population's hosts, domains and lists, which are also its DNS zone.
// A second copy of the week (a record store, a per-host domain index)
// would more than double the count.
TEST(AllocBudget, WeekSnapshotStaysWithinBudget) {
  constexpr uint64_t kBudget = 280'000;
  const uint64_t before = g_allocations.load();
  const internet::Snapshot snapshot({.dns_corpus_scale = 0.01}, 18);
  const uint64_t count = g_allocations.load() - before;
  std::printf(
      "allocations of one week-18 Snapshot (%zu hosts, %zu domains): "
      "%llu (budget %llu)\n",
      snapshot.population().hosts().size(),
      snapshot.population().domains().size(),
      static_cast<unsigned long long>(count),
      static_cast<unsigned long long>(kBudget));
  EXPECT_LE(count, kBudget);
}

}  // namespace
