#include "stamp.h"

#include <thread>

#include "crypto/cpu.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace bench {

namespace {

bool probe_sha_ni() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  return (b >> 29) & 1u;
#else
  return false;
#endif
}

bool built_with_sanitizer() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

}  // namespace

Stamp host_stamp() {
  Stamp stamp;
  stamp.nproc = std::thread::hardware_concurrency();
  stamp.aes = crypto::cpu_features().aes;
  stamp.pclmul = crypto::cpu_features().pclmul;
  stamp.sha_ni = probe_sha_ni();
  stamp.crypto_backend = crypto::backend_name(crypto::resolve_backend());
  stamp.compiler = BENCH_COMPILER;
  stamp.build_type = BENCH_BUILD_TYPE;
  stamp.sanitized = built_with_sanitizer() ||
                    std::string(BENCH_CXX_FLAGS).find("-fsanitize") !=
                        std::string::npos;
  return stamp;
}

std::string Stamp::describe() const {
  auto yes = [](bool b) { return b ? "yes" : "no"; };
  return "nproc=" + std::to_string(nproc) + " aes-ni=" + yes(aes) +
         " pclmul=" + yes(pclmul) + " sha-ni=" + yes(sha_ni) +
         " crypto_backend=" + crypto_backend + " compiler=\"" + compiler +
         "\" build=" + build_type + (sanitized ? " sanitized" : "");
}

}  // namespace bench
