// Runtime crypto-backend dispatch: a one-time CPU feature probe plus a
// process-wide backend selection that Aes128/Aes128Gcm resolve once per
// context at construction (never per call -- the packet hot path pays
// zero dispatch overhead in steady state).
//
// Backends:
//   kPortable  T-table AES: a round-interleaved 4-block CTR kernel (ILP
//              win on every ISA, including hosts with no AES
//              instructions at all) plus a single-block kernel for
//              header protection and CTR tails. The default wherever
//              AES-NI is absent.
//   kAesni     AES-NI + PCLMULQDQ: hardware key schedule
//              (AESKEYGENASSIST), pipelined AESENC CTR, GHASH via
//              carry-less multiply. Compiled in its own translation unit
//              with per-file ISA flags and only selected when CPUID
//              reports both AES and PCLMUL.
//
// SHA-256 rides on the same selection with no backend value of its own:
// naming kPortable (override or environment) pins the scalar block
// kernel; otherwise the SHA-NI kernel (crypto/sha256_shani.cpp) runs
// wherever it is compiled in and CpuFeatures::sha is set, also when the
// probe picks kPortable. So --crypto-backend portable and
// QREPRO_CRYPTO_BACKEND=portable A/B both SHA-256 kernels as well as
// the AES ones. Each Sha256 object takes its kernel from
// sha256_hardware_selected() at construction.
//
// AES-GCM and SHA-256 are deterministic, so ciphertext, tags and digests
// are backend-invariant by construction: forcing any backend changes
// wall-clock only, never a single output byte (tests/test_crypto and
// the engine differential battery hold every backend to that).
//
// Selection order: API override (set_backend_override, the CLIs'
// --crypto-backend) > QREPRO_CRYPTO_BACKEND environment variable, read
// once per process > best_backend() hardware probe. Requesting an
// unavailable or unknown backend throws std::invalid_argument -- an A/B
// run that silently fell back to another backend would be measuring
// nothing.
#pragma once

#include <optional>
#include <string>

namespace crypto {

// The values are what the hotpath.crypto_backend gauge reports.
enum class Backend {
  kPortable = 0,
  kAesni = 2,
};

/// Result of the one-time hardware probe (CPUID on x86-64, getauxval
/// on AArch64; all-false elsewhere). `aes`/`pclmul` report the x86
/// AES-NI and PCLMULQDQ bits or their AArch64 crypto-extension
/// equivalents (AES/PMULL). `sha` is x86-only: the SHA extensions
/// (CPUID.7.0:EBX[29]) together with the SSSE3 and SSE4.1 shuffles the
/// SHA-NI kernel also needs.
struct CpuFeatures {
  bool aes = false;
  bool pclmul = false;
  bool sha = false;
};

/// Cached hardware probe; the first call runs CPUID/getauxval.
const CpuFeatures& cpu_features();

/// True when `backend` is both compiled into this binary and usable on
/// this CPU. The portable backend is always available.
bool backend_available(Backend backend);

/// The fastest available backend on this host.
Backend best_backend();

/// Parses "portable" / "aesni" / "auto" ("auto" names no backend:
/// nullopt, so the environment and then the probe decide). Throws
/// std::invalid_argument for unknown names or a named backend that is
/// unavailable on this host.
std::optional<Backend> parse_backend(const std::string& name);

const char* backend_name(Backend backend);

/// Process-wide override consulted before the environment variable.
/// Thread-safe (the campaign engine's workers construct AEAD contexts
/// concurrently); pass nullopt to clear. Contexts constructed before
/// the change keep the backend they resolved at construction.
void set_backend_override(std::optional<Backend> backend);
std::optional<Backend> backend_override();

/// The backend a context constructed right now would use:
/// override > QREPRO_CRYPTO_BACKEND > best_backend(). Throws
/// std::invalid_argument when no override is set and the environment
/// names an unknown or unavailable backend (loudly, on every AEAD
/// construction).
Backend resolve_backend();

/// True when the SHA-NI SHA-256 kernel is compiled into this binary and
/// CpuFeatures::sha is set.
bool sha256_hardware_available();

/// Whether a Sha256 constructed right now runs the SHA-NI kernel: it is
/// available and neither the override nor, without one,
/// QREPRO_CRYPTO_BACKEND names kPortable. Never throws: an unknown or
/// unavailable backend name in the environment still fails on the first
/// AEAD construction, not on a hash.
bool sha256_hardware_selected();

/// RAII override for tests: forces `backend` for the scope's lifetime
/// and restores the previous override on destruction.
class ScopedBackendOverride {
 public:
  explicit ScopedBackendOverride(Backend backend)
      : previous_(backend_override()) {
    set_backend_override(backend);
  }
  ~ScopedBackendOverride() { set_backend_override(previous_); }
  ScopedBackendOverride(const ScopedBackendOverride&) = delete;
  ScopedBackendOverride& operator=(const ScopedBackendOverride&) = delete;

 private:
  std::optional<Backend> previous_;
};

}  // namespace crypto
