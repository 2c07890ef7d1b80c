#include "crypto/cpu.h"

#include <atomic>
#include <cstdlib>
#include <stdexcept>

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#elif defined(__aarch64__) && defined(__linux__)
#include <sys/auxv.h>
#endif

namespace crypto {

namespace {

CpuFeatures probe_cpu() {
  CpuFeatures features;
#if defined(__x86_64__) || defined(_M_X64)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  bool ssse3_sse41 = false;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
    features.aes = ecx & (1u << 25);     // AES-NI
    features.pclmul = ecx & (1u << 1);   // PCLMULQDQ
    ssse3_sse41 = (ecx & (1u << 9)) && (ecx & (1u << 19));
  }
  // __get_cpuid_count fails cleanly when leaf 7 is above the max leaf.
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx))
    features.sha = ssse3_sse41 && (ebx & (1u << 29));  // SHA extensions
#elif defined(__aarch64__) && defined(__linux__)
  // HWCAP_AES (1<<3) and HWCAP_PMULL (1<<4) from <asm/hwcap.h>, spelled
  // literally so the probe builds against older libc headers too.
  unsigned long hwcap = getauxval(AT_HWCAP);
  features.aes = hwcap & (1ul << 3);
  features.pclmul = hwcap & (1ul << 4);
#endif
  return features;
}

// Override slot: -1 = none, otherwise the Backend enum value. Atomic
// because campaign workers construct AEAD contexts while a test or CLI
// main thread may have set the override just before launching them.
std::atomic<int> g_override{-1};

// QREPRO_CRYPTO_BACKEND, read and parsed once per process: AEAD
// contexts and SHA-256 objects are built per handshake and per hash. A
// bad name leaves the static unset, so every call reads it again and
// throws.
std::optional<Backend> env_backend() {
  static const std::optional<Backend> kEnv = [] {
    const char* env = std::getenv("QREPRO_CRYPTO_BACKEND");
    return env && *env ? parse_backend(env) : std::nullopt;
  }();
  return kEnv;
}

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures kFeatures = probe_cpu();
  return kFeatures;
}

bool backend_available(Backend backend) {
  switch (backend) {
    case Backend::kPortable:
      return true;
    case Backend::kAesni:
#ifdef QREPRO_HAVE_AESNI
      return cpu_features().aes && cpu_features().pclmul;
#else
      return false;
#endif
  }
  return false;
}

Backend best_backend() {
  if (backend_available(Backend::kAesni)) return Backend::kAesni;
  return Backend::kPortable;
}

std::optional<Backend> parse_backend(const std::string& name) {
  Backend backend;
  if (name == "auto") {
    return std::nullopt;
  } else if (name == "portable") {
    backend = Backend::kPortable;
  } else if (name == "aesni") {
    backend = Backend::kAesni;
  } else {
    throw std::invalid_argument("unknown crypto backend '" + name +
                                "' (expected portable, aesni or auto)");
  }
  if (!backend_available(backend))
    throw std::invalid_argument("crypto backend '" + name +
                                "' is not available on this host");
  return backend;
}

const char* backend_name(Backend backend) {
  switch (backend) {
    case Backend::kPortable: return "portable";
    case Backend::kAesni: return "aesni";
  }
  return "unknown";
}

void set_backend_override(std::optional<Backend> backend) {
  g_override.store(backend ? static_cast<int>(*backend) : -1,
                   std::memory_order_relaxed);
}

std::optional<Backend> backend_override() {
  int v = g_override.load(std::memory_order_relaxed);
  if (v < 0) return std::nullopt;
  return static_cast<Backend>(v);
}

Backend resolve_backend() {
  if (auto forced = backend_override()) return *forced;
  return env_backend().value_or(best_backend());
}

bool sha256_hardware_available() {
#ifdef QREPRO_HAVE_SHANI
  return cpu_features().sha;
#else
  return false;
#endif
}

bool sha256_hardware_selected() {
  if (!sha256_hardware_available()) return false;
  if (auto forced = backend_override()) return *forced != Backend::kPortable;
  try {
    return env_backend() != Backend::kPortable;
  } catch (const std::invalid_argument&) {
    return true;  // resolve_backend() reports the bad name
  }
}

}  // namespace crypto
