// Strict numeric flag values for the scanner CLIs. The whole argument
// must be one unsigned decimal integer (or, where the flag allows it, a
// 0x-prefixed hex one) inside the flag's range. Anything else -- "abc",
// "-5", "12x", "1e3", "" -- throws std::invalid_argument naming the
// flag, the text and the range, which each CLI's main turns into
// "<cli>: <message>" and exit 2. Nothing is coerced.
#pragma once

#include <charconv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace cli {

// Ranges the three scanner CLIs share. Weeks span the synthetic
// population's calendar window; --jobs 0 auto-detects.
inline constexpr uint64_t kMinWeek = 5;
inline constexpr uint64_t kMaxWeek = 18;
inline constexpr uint64_t kMaxJobs = 1024;
inline constexpr uint64_t kMaxRetries = 100;

/// Parses `text`, the value given to `flag` (e.g. "--jobs"), as an
/// integer in [lo, hi] and returns it as a T that holds that range.
template <typename T = uint64_t>
T parse_number(std::string_view flag, std::string_view text, uint64_t lo,
               uint64_t hi, bool allow_hex = false) {
  std::string_view digits = text;
  int base = 10;
  if (allow_hex && (digits.starts_with("0x") || digits.starts_with("0X"))) {
    digits.remove_prefix(2);
    base = 16;
  }
  uint64_t value = 0;
  const char* end = digits.data() + digits.size();
  auto [stop, error] = std::from_chars(digits.data(), end, value, base);
  if (error != std::errc() || stop != end || value < lo || value > hi) {
    throw std::invalid_argument(
        std::string(flag.substr(2)) + " must be in [" + std::to_string(lo) +
        ", " + std::to_string(hi) + "], got " + std::string(flag) + " '" +
        std::string(text) + "'");
  }
  return static_cast<T>(value);
}

}  // namespace cli
