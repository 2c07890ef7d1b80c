// Host and build stamp printed with every result: numbers compare only
// within one host and one optimized build.
#pragma once

#include <string>

namespace bench {

struct Stamp {
  unsigned nproc = 0;
  bool aes = false;     // crypto/cpu.h probe
  bool pclmul = false;  // crypto/cpu.h probe
  bool sha_ni = false;  // CPUID leaf 7 (crypto/cpu.h does not probe it)
  std::string crypto_backend;
  std::string compiler;
  std::string build_type;
  bool sanitized = false;

  /// Timings are reported only from an unsanitized Release build.
  bool timings_valid() const {
    return build_type == "Release" && !sanitized;
  }
  std::string describe() const;
};

Stamp host_stamp();

}  // namespace bench
