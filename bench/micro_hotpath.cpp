// micro_hotpath: before/after evidence for the PR-3 single-core
// hot-path overhaul (cached AEAD contexts, heap-based event loop,
// allocation-free packet codec).
//
//   ./micro_hotpath [output.json]
//
// Two layers of measurement:
//
//   1. The headline number: the same 10'000-target stateful campaign
//      micro_engine runs, at --jobs 1, in targets/sec. The PR-2
//      baseline on the reference container was 2'674 targets/s
//      (BENCH_engine.json before this PR); the acceptance bar is
//      >= 1.3x that. The baseline constant is embedded here because
//      run_benches.sh rewrites BENCH_engine.json with post-overhaul
//      numbers.
//
//   2. Component microbenches isolating each layer's win:
//        - aead_seal_cached vs aead_seal_rebuild: sealing one 1200-byte
//          packet through a long-lived Aes128Gcm vs rebuilding the key
//          schedule + GHASH table per packet (what the Retry path did).
//        - event_loop_schedule_cancel: the PTO pattern -- schedule a
//          timer, cancel it before it fires (two map-node allocations
//          per timer before the heap + tombstone rewrite).
//        - packet_roundtrip: protect_into + unprotect_into with reused
//          scratch, the steady-state per-packet codec cost.
//
// The AEAD hot loop is additionally swept once per available crypto
// backend (DESIGN.md "Crypto backends") and the per-backend ns/op land
// in the JSON under "backends". Three gates protect the crypto layer:
//   - portable_batched must beat portable (the 4-block ILP win),
//   - aesni must be >= 3x portable where the host has the ISA,
//   - on AES-NI hosts, aead_seal_cached must not regress > 10% against
//     the committed BENCH_hotpath.json this run is about to replace.
//
// Like every bench here the traffic content is deterministic
// (crypto::Rng with fixed seeds); only wall-clock timing varies.
#include <chrono>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "crypto/aes.h"
#include "crypto/cpu.h"
#include "crypto/rng.h"
#include "engine/engine.h"
#include "internet/internet.h"
#include "netsim/event_loop.h"
#include "quic/packet.h"
#include "scanner/qscanner.h"
#include "telemetry/metrics.h"

namespace {

constexpr uint64_t kSeed = 0x5ca9;
constexpr int kWeek = 18;
constexpr size_t kTargets = 10'000;
constexpr internet::PopulationParams kPopulation{.dns_corpus_scale = 0.01};
// PR-2 headline at --jobs 1 on the reference container (the value this
// overhaul is measured against; see git history of BENCH_engine.json).
constexpr double kBaselineTargetsPerSec = 2674.0;

using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Component {
  std::string name;
  double ns_per_op;
  uint64_t iterations;
};

Component bench_aead_seal_cached() {
  crypto::Rng rng(kSeed);
  auto key = rng.bytes(16);
  auto nonce = rng.bytes(12);
  auto aad = rng.bytes(32);
  auto payload = rng.bytes(1200);
  crypto::Aes128Gcm gcm(key);  // built once, reused per packet
  std::vector<uint8_t> out;
  const uint64_t iters = 20'000;
  auto start = Clock::now();
  for (uint64_t i = 0; i < iters; ++i) {
    out.clear();
    gcm.seal_append(nonce, aad, payload, out);
  }
  double ms = elapsed_ms(start);
  if (out.size() != payload.size() + crypto::kGcmTagSize) std::abort();
  return {"aead_seal_cached", ms * 1e6 / static_cast<double>(iters), iters};
}

Component bench_aead_seal_rebuild() {
  crypto::Rng rng(kSeed);
  auto key = rng.bytes(16);
  auto nonce = rng.bytes(12);
  auto aad = rng.bytes(32);
  auto payload = rng.bytes(1200);
  std::vector<uint8_t> out;
  const uint64_t iters = 20'000;
  auto start = Clock::now();
  for (uint64_t i = 0; i < iters; ++i) {
    crypto::Aes128Gcm gcm(key);  // key schedule + GHASH table per packet
    out.clear();
    gcm.seal_append(nonce, aad, payload, out);
  }
  double ms = elapsed_ms(start);
  if (out.size() != payload.size() + crypto::kGcmTagSize) std::abort();
  return {"aead_seal_rebuild", ms * 1e6 / static_cast<double>(iters), iters};
}

Component bench_event_loop_schedule_cancel() {
  netsim::EventLoop loop;
  // The PTO pattern: a timer armed per packet that is almost always
  // cancelled before it fires. Keep a small live set so heap depth
  // matches a busy connection, not an empty loop.
  std::vector<netsim::TimerId> window;
  const uint64_t iters = 200'000;
  uint64_t fired = 0;
  auto start = Clock::now();
  for (uint64_t i = 0; i < iters; ++i) {
    window.push_back(
        loop.schedule_in(1'000 + i % 64, [&fired] { ++fired; }));
    if (window.size() >= 16) {
      loop.cancel(window.front());
      window.erase(window.begin());
    }
  }
  loop.run();
  double ms = elapsed_ms(start);
  if (fired == 0) std::abort();
  return {"event_loop_schedule_cancel", ms * 1e6 / static_cast<double>(iters),
          iters};
}

Component bench_packet_roundtrip() {
  crypto::Rng rng(kSeed);
  auto dcid = rng.bytes(8);
  auto tx = quic::PacketProtector::for_initial(quic::kVersion1, dcid, false);
  auto rx = quic::PacketProtector::for_initial(quic::kVersion1, dcid, false);
  quic::Packet packet;
  packet.type = quic::PacketType::kInitial;
  packet.version = quic::kVersion1;
  packet.dcid = dcid;
  packet.scid = rng.bytes(8);
  auto payload = rng.bytes(1100);
  std::vector<uint8_t> wire_bytes;
  quic::Packet opened;
  const uint64_t iters = 10'000;
  auto start = Clock::now();
  for (uint64_t i = 0; i < iters; ++i) {
    packet.packet_number = i & 0xffff;
    wire_bytes.clear();
    tx.protect_into(packet, payload, wire_bytes);
    size_t offset = 0;
    if (!rx.unprotect_into(wire_bytes, offset, opened)) std::abort();
  }
  double ms = elapsed_ms(start);
  if (opened.payload != payload) std::abort();
  return {"packet_roundtrip", ms * 1e6 / static_cast<double>(iters), iters};
}

struct CampaignResult {
  double wall_ms = 0;
  double targets_per_sec = 0;
  uint64_t attempts = 0;
  uint64_t hotpath_alloc_bytes = 0;
  uint64_t hotpath_aead_reuse = 0;
  std::map<std::string, uint64_t> outcomes;
};

CampaignResult run_campaign(const std::vector<scanner::QscanTarget>& targets) {
  engine::CampaignOptions options;
  options.jobs = 1;
  options.seed = kSeed;
  // Pin one chunk: this bench measures the serial single-world hot
  // path, and its baseline numbers predate chunking.
  options.chunk_size = targets.size();
  options.week = kWeek;
  options.population = kPopulation;
  engine::Campaign campaign(options);

  uint64_t attempts = 0;
  auto start = Clock::now();
  campaign.run(targets.size(), [&](engine::ShardEnv& env) {
    scanner::QscanOptions qopt;
    qopt.seed = env.seed;
    qopt.metrics = env.metrics;
    scanner::QScanner qscanner(env.internet->network(), qopt);
    for (size_t i = env.range.begin; i < env.range.end; ++i) {
      if (!qscanner.compatible(targets[i])) continue;
      qscanner.scan_one(targets[i]);
    }
    attempts = qscanner.attempts();
  });
  double ms = elapsed_ms(start);

  CampaignResult result;
  result.wall_ms = ms;
  result.targets_per_sec =
      static_cast<double>(targets.size()) / (ms / 1000.0);
  result.attempts = attempts;
  const auto* alloc = campaign.metrics().find_counter("hotpath.alloc_bytes");
  const auto* reuse =
      campaign.metrics().find_counter("hotpath.aead_ctx_reuse");
  result.hotpath_alloc_bytes = alloc ? alloc->value() : 0;
  result.hotpath_aead_reuse = reuse ? reuse->value() : 0;
  for (size_t i = 0; i < scanner::kQscanOutcomeCount; ++i) {
    auto name = scanner::to_string(static_cast<scanner::QscanOutcome>(i));
    const auto* counter =
        campaign.metrics().find_counter("qscan.outcome." + name);
    result.outcomes[name] = counter ? counter->value() : 0;
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_hotpath.json";
  const unsigned cores = std::thread::hardware_concurrency();

  std::printf("micro_hotpath: component microbenches\n");
  std::vector<Component> components;
  components.push_back(bench_aead_seal_cached());
  components.push_back(bench_aead_seal_rebuild());
  components.push_back(bench_event_loop_schedule_cancel());
  components.push_back(bench_packet_roundtrip());
  for (const auto& c : components)
    std::printf("  %-28s %10.1f ns/op  (%llu iters)\n", c.name.c_str(),
                c.ns_per_op, static_cast<unsigned long long>(c.iterations));

  // A/B the AEAD hot loop across every backend this host can run. The
  // ciphertext is backend-invariant (tests/test_crypto pins that), so
  // this isolates pure kernel wall-clock.
  std::printf("micro_hotpath: aead_seal_cached per crypto backend "
              "(resolved default: %s)\n",
              crypto::backend_name(crypto::resolve_backend()));
  std::map<std::string, double> backend_ns;
  for (crypto::Backend backend :
       {crypto::Backend::kPortable, crypto::Backend::kPortableBatched,
        crypto::Backend::kAesni}) {
    if (!crypto::backend_available(backend)) continue;
    crypto::ScopedBackendOverride force(backend);
    Component c = bench_aead_seal_cached();
    backend_ns[crypto::backend_name(backend)] = c.ns_per_op;
    std::printf("  %-28s %10.1f ns/op\n", crypto::backend_name(backend),
                c.ns_per_op);
  }
  const double portable_ns = backend_ns.at("portable");
  const double batched_ns = backend_ns.at("portable_batched");
  if (batched_ns >= portable_ns) {
    std::fprintf(stderr,
                 "FAIL: portable_batched (%.1f ns/op) is not faster than "
                 "portable (%.1f ns/op)\n",
                 batched_ns, portable_ns);
    return 1;
  }
  const bool have_aesni = backend_ns.count("aesni") != 0;
  if (have_aesni && portable_ns < 3.0 * backend_ns.at("aesni")) {
    std::fprintf(stderr,
                 "FAIL: aesni (%.1f ns/op) is below the 3x bar against "
                 "portable (%.1f ns/op)\n",
                 backend_ns.at("aesni"), portable_ns);
    return 1;
  }

  // Regression gate against the committed numbers this run replaces:
  // on AES-NI hosts the default-backend aead_seal_cached may not give
  // back more than 10% of the win. (Portable-only hosts skip the gate;
  // their absolute numbers are not comparable to the committed ones.)
  if (have_aesni) {
    std::ifstream committed(out_path);
    std::string text((std::istreambuf_iterator<char>(committed)),
                     std::istreambuf_iterator<char>());
    const std::string field = "\"aead_seal_cached\": ";
    size_t at = text.find(field);
    if (at != std::string::npos) {
      double before = std::strtod(text.c_str() + at + field.size(), nullptr);
      if (before > 0 && components[0].ns_per_op > 1.10 * before) {
        std::fprintf(stderr,
                     "FAIL: aead_seal_cached regressed to %.1f ns/op, "
                     "> 10%% over the committed %.1f ns/op in %s\n",
                     components[0].ns_per_op, before, out_path.c_str());
        return 1;
      }
    }
  }

  netsim::EventLoop planning_loop;
  internet::Internet planning(kPopulation, kWeek, planning_loop);
  std::vector<scanner::QscanTarget> base;
  for (const auto& host : planning.population().hosts()) {
    if (!host.address.is_v4()) continue;
    base.push_back({host.address, std::nullopt, host.advertised_versions});
  }
  std::vector<scanner::QscanTarget> targets;
  targets.reserve(kTargets);
  for (size_t i = 0; i < kTargets; ++i)
    targets.push_back(base[i % base.size()]);

  std::printf("micro_hotpath: %zu-target campaign at --jobs 1 "
              "(PR-2 baseline %.0f targets/s)\n",
              targets.size(), kBaselineTargetsPerSec);
  // Best of three: the campaign is deterministic in its work, so the
  // minimum wall-clock is the least-noisy estimate of the hot path.
  CampaignResult campaign = run_campaign(targets);
  for (int i = 0; i < 2; ++i) {
    CampaignResult again = run_campaign(targets);
    if (again.attempts != campaign.attempts ||
        again.outcomes != campaign.outcomes) {
      std::fprintf(stderr, "FATAL: campaign outcomes drifted across runs\n");
      return 1;
    }
    if (again.wall_ms < campaign.wall_ms) campaign = again;
  }
  double speedup = campaign.targets_per_sec / kBaselineTargetsPerSec;
  std::printf("  %8.1f ms  %9.0f targets/s  %.2fx baseline  "
              "(alloc_bytes=%llu aead_reuse=%llu)\n",
              campaign.wall_ms, campaign.targets_per_sec, speedup,
              static_cast<unsigned long long>(campaign.hotpath_alloc_bytes),
              static_cast<unsigned long long>(campaign.hotpath_aead_reuse));

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  char line[256];
  out << "{\n  \"bench\": \"micro_hotpath\",\n"
      << "  \"targets\": " << targets.size() << ",\n"
      << "  \"attempts\": " << campaign.attempts << ",\n"
      << "  \"hardware_concurrency\": " << cores << ",\n";
  std::snprintf(line, sizeof line,
                "  \"baseline_targets_per_sec\": %.0f,\n"
                "  \"targets_per_sec\": %.0f,\n"
                "  \"wall_ms\": %.1f,\n"
                "  \"speedup_vs_baseline\": %.3f,\n",
                kBaselineTargetsPerSec, campaign.targets_per_sec,
                campaign.wall_ms, speedup);
  out << line;
  out << "  \"hotpath_alloc_bytes\": " << campaign.hotpath_alloc_bytes
      << ",\n  \"hotpath_aead_ctx_reuse\": " << campaign.hotpath_aead_reuse
      << ",\n  \"note\": \"baseline is the PR-2 --jobs 1 number from "
         "BENCH_engine.json before this PR; campaign time is best of "
         "three deterministic runs\",\n"
      << "  \"crypto_backend\": \""
      << crypto::backend_name(crypto::resolve_backend()) << "\",\n"
      << "  \"backends\": {\n";
  {
    size_t i = 0;
    for (const auto& [name, ns] : backend_ns) {
      std::snprintf(line, sizeof line, "    \"%s\": %.1f%s\n", name.c_str(),
                    ns, ++i < backend_ns.size() ? "," : "");
      out << line;
    }
  }
  out << "  },\n"
      << "  \"components_ns_per_op\": {\n";
  for (size_t i = 0; i < components.size(); ++i) {
    std::snprintf(line, sizeof line, "    \"%s\": %.1f%s\n",
                  components[i].name.c_str(), components[i].ns_per_op,
                  i + 1 < components.size() ? "," : "");
    out << line;
  }
  out << "  }\n}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
