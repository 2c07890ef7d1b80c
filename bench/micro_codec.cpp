// google-benchmark microbenchmarks for the wire/crypto hot paths the
// scanners execute millions of times: varints, transport parameters,
// frames, Initial packet protection and the crypto substrate. SHA-256
// and the key derivations built on it run once per SHA-256 kernel the
// host offers (BM_Sha256/scalar/..., BM_Sha256/sha_ni/...).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "crypto/aes.h"
#include "crypto/cpu.h"
#include "crypto/rng.h"
#include "crypto/sha256.h"
#include "internet/tp_catalog.h"
#include "quic/frame.h"
#include "quic/packet.h"
#include "quic/transport_params.h"
#include "tls/key_schedule.h"

namespace {

void BM_VarintEncode(benchmark::State& state) {
  uint64_t value = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    wire::Writer w;
    w.varint(value);
    benchmark::DoNotOptimize(w.data());
  }
}
BENCHMARK(BM_VarintEncode)->Arg(37)->Arg(15293)->Arg(494878333)->Arg(1ll << 40);

void BM_VarintDecode(benchmark::State& state) {
  wire::Writer w;
  w.varint(static_cast<uint64_t>(state.range(0)));
  auto bytes = w.take();
  for (auto _ : state) {
    wire::Reader r(bytes);
    benchmark::DoNotOptimize(r.varint());
  }
}
BENCHMARK(BM_VarintDecode)->Arg(37)->Arg(1ll << 40);

void BM_TransportParamsEncode(benchmark::State& state) {
  const auto& tp =
      internet::tp_catalog()[static_cast<size_t>(state.range(0))].params;
  for (auto _ : state)
    benchmark::DoNotOptimize(quic::encode_transport_parameters(tp));
}
BENCHMARK(BM_TransportParamsEncode)->Arg(0)->Arg(5)->Arg(30);

void BM_TransportParamsDecode(benchmark::State& state) {
  auto bytes = quic::encode_transport_parameters(
      internet::tp_catalog()[static_cast<size_t>(state.range(0))].params);
  for (auto _ : state)
    benchmark::DoNotOptimize(quic::decode_transport_parameters(bytes));
}
BENCHMARK(BM_TransportParamsDecode)->Arg(0)->Arg(5)->Arg(30);

// The backend that selects the kernel is forced for the whole timed
// loop (crypto/cpu.h: portable pins scalar SHA-256).
void BM_Sha256(benchmark::State& state, crypto::Backend backend) {
  crypto::ScopedBackendOverride force(backend);
  crypto::Rng rng(1);
  auto data = rng.bytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

void BM_AesGcmSeal(benchmark::State& state) {
  crypto::Rng rng(2);
  crypto::Aes128Gcm gcm(rng.bytes(16));
  auto nonce = rng.bytes(12);
  auto aad = rng.bytes(32);
  auto payload = rng.bytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(gcm.seal(nonce, aad, payload));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesGcmSeal)->Arg(64)->Arg(1200);

void BM_InitialProtect(benchmark::State& state) {
  crypto::Rng rng(3);
  auto dcid = rng.bytes(8);
  auto protector = quic::PacketProtector::for_initial(quic::kVersion1, dcid,
                                                      false);
  quic::Packet packet;
  packet.type = quic::PacketType::kInitial;
  packet.version = quic::kVersion1;
  packet.dcid = dcid;
  packet.scid = rng.bytes(8);
  packet.packet_number = 1;
  packet.payload = quic::encode_frames(
      {quic::CryptoFrame{0, rng.bytes(300)}, quic::PaddingFrame{850}});
  for (auto _ : state) benchmark::DoNotOptimize(protector.protect(packet));
}
BENCHMARK(BM_InitialProtect);

void BM_InitialUnprotect(benchmark::State& state) {
  crypto::Rng rng(4);
  auto dcid = rng.bytes(8);
  auto protector = quic::PacketProtector::for_initial(quic::kVersion1, dcid,
                                                      false);
  quic::Packet packet;
  packet.type = quic::PacketType::kInitial;
  packet.version = quic::kVersion1;
  packet.dcid = dcid;
  packet.scid = rng.bytes(8);
  packet.packet_number = 1;
  packet.payload = quic::encode_frames(
      {quic::CryptoFrame{0, rng.bytes(300)}, quic::PaddingFrame{850}});
  auto bytes = protector.protect(packet);
  for (auto _ : state) {
    size_t offset = 0;
    benchmark::DoNotOptimize(protector.unprotect(bytes, offset));
  }
}
BENCHMARK(BM_InitialUnprotect);

void BM_InitialKeyDerivation(benchmark::State& state,
                             crypto::Backend backend) {
  crypto::ScopedBackendOverride force(backend);
  crypto::Rng rng(5);
  auto dcid = rng.bytes(8);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        quic::derive_initial_secrets(quic::kVersion1, dcid));
}

// One client plus one server QUIC key schedule per iteration, hashing
// only (no AEAD context is built): the Initial secrets and keys of both
// directions, a fixed ~1 KB transcript, the handshake and application
// secrets and keys, and both Finished values.
void BM_KeySchedule(benchmark::State& state, crypto::Backend backend) {
  crypto::ScopedBackendOverride force(backend);
  crypto::Rng rng(7);
  auto dcid = rng.bytes(8);
  auto shared = rng.bytes(32);
  auto hello = rng.bytes(400);         // ClientHello + ServerHello
  auto server_flight = rng.bytes(600);  // EE + Certificate + CV
  auto server_finished = rng.bytes(36);
  auto quic_keys = [](const auto& secret) {
    return tls::derive_traffic_keys(secret, tls::KeyUsage::kQuic);
  };
  for (auto _ : state) {
    for (int side = 0; side < 2; ++side) {
      auto initial = quic::derive_initial_secrets(quic::kVersion1, dcid);
      benchmark::DoNotOptimize(quic_keys(initial.client));
      benchmark::DoNotOptimize(quic_keys(initial.server));
      tls::KeySchedule ks;
      ks.add_message(hello);
      ks.derive_handshake_secrets(shared);
      benchmark::DoNotOptimize(quic_keys(ks.client_handshake_key()));
      benchmark::DoNotOptimize(quic_keys(ks.server_handshake_key()));
      ks.add_message(server_flight);
      benchmark::DoNotOptimize(
          ks.finished_verify_data(ks.server_handshake_key()));
      ks.add_message(server_finished);
      ks.derive_application_secrets();
      benchmark::DoNotOptimize(quic_keys(ks.client_application_secret()));
      benchmark::DoNotOptimize(quic_keys(ks.server_application_secret()));
      benchmark::DoNotOptimize(
          ks.finished_verify_data(ks.client_handshake_key()));
    }
  }
}

void BM_FrameDecode(benchmark::State& state) {
  crypto::Rng rng(6);
  auto payload = quic::encode_frames(
      {quic::AckFrame{100, 5, 10, {{1, 2}, {3, 4}}},
       quic::CryptoFrame{0, rng.bytes(500)},
       quic::StreamFrame{0, 0, true, rng.bytes(200)},
       quic::PaddingFrame{400}});
  for (auto _ : state) benchmark::DoNotOptimize(quic::decode_frames(payload));
}
BENCHMARK(BM_FrameDecode);

}  // namespace

int main(int argc, char** argv) {
  struct Kernel {
    const char* name;
    crypto::Backend backend;
  };
  // Naming aesni selects SHA-NI; these benches build no AEAD context,
  // so forcing it needs no AES-NI.
  std::vector<Kernel> kernels = {{"scalar", crypto::Backend::kPortable}};
  if (crypto::sha256_hardware_available())
    kernels.push_back({"sha_ni", crypto::Backend::kAesni});
  for (const Kernel& kernel : kernels) {
    benchmark::RegisterBenchmark(
        (std::string("BM_Sha256/") + kernel.name).c_str(), BM_Sha256,
        kernel.backend)
        ->Arg(64)
        ->Arg(1200)
        ->Arg(16384);
    benchmark::RegisterBenchmark(
        (std::string("BM_InitialKeyDerivation/") + kernel.name).c_str(),
        BM_InitialKeyDerivation, kernel.backend);
    benchmark::RegisterBenchmark(
        (std::string("BM_KeySchedule/") + kernel.name).c_str(),
        BM_KeySchedule, kernel.backend);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
