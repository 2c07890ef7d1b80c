// IP address, prefix and endpoint value types for the simulated network.
// Both IPv4 and IPv6 are first-class: the paper's scans and results are
// split by address family throughout (Tables 1-5, Figures 4/8).
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace netsim {

enum class Family : uint8_t { kIpv4 = 4, kIpv6 = 6 };

/// An IPv4 or IPv6 address. IPv4 is held in the low 32 bits of the first
/// 8 bytes being zero-padded form; family disambiguates.
class IpAddress {
 public:
  IpAddress() = default;

  static IpAddress v4(uint32_t value);
  static IpAddress v6(const std::array<uint8_t, 16>& bytes);
  static IpAddress v6(uint64_t hi, uint64_t lo);

  /// Parses dotted-quad or RFC 4291 textual IPv6 (with ::). Returns
  /// nullopt on malformed input.
  static std::optional<IpAddress> parse(std::string_view text);

  Family family() const { return family_; }
  bool is_v4() const { return family_ == Family::kIpv4; }
  bool is_v6() const { return family_ == Family::kIpv6; }

  uint32_t v4_value() const;
  const std::array<uint8_t, 16>& v6_bytes() const { return bytes_; }
  uint64_t v6_hi() const;
  uint64_t v6_lo() const;

  std::string to_string() const;

  auto operator<=>(const IpAddress&) const = default;

  /// Stable hash usable as std::unordered_map key.
  size_t hash() const;

 private:
  Family family_ = Family::kIpv4;
  std::array<uint8_t, 16> bytes_{};  // v4 stored in bytes_[12..15]
};

struct IpAddressHash {
  size_t operator()(const IpAddress& a) const { return a.hash(); }
};

/// Stable 64-bit key derived only from the address bytes + family.
/// Used to key deterministic per-link / per-target RNG streams; unlike
/// hash(), the value is pinned by this header, not the standard
/// library, so replays are portable.
inline uint64_t address_key64(const IpAddress& a) {
  const auto& b = a.v6_bytes();  // v4 lives zero-padded in bytes 12..15
  uint64_t hi = 0, lo = 0;
  for (int i = 0; i < 8; ++i) hi = hi << 8 | b[static_cast<size_t>(i)];
  for (int i = 8; i < 16; ++i) lo = lo << 8 | b[static_cast<size_t>(i)];
  return (hi * 0x9e3779b97f4a7c15ull ^ lo) +
         (a.is_v4() ? 0x3434343434343434ull : 0x6666666666666666ull);
}

/// CIDR prefix, e.g. 104.16.0.0/12 or 2606:4700::/32.
class Prefix {
 public:
  Prefix() = default;
  Prefix(IpAddress base, int length);

  /// Parses "a.b.c.d/len" or "v6::/len".
  static std::optional<Prefix> parse(std::string_view text);

  bool contains(const IpAddress& addr) const;
  const IpAddress& base() const { return base_; }
  int length() const { return length_; }
  Family family() const { return base_.family(); }

  /// The addr with host bits set from `offset` (for deterministic host
  /// enumeration inside a prefix). offset must fit in the host bits.
  IpAddress host_at(uint64_t offset) const;

  /// Number of host addresses in the prefix, capped at 2^63.
  uint64_t host_count() const;

  auto operator<=>(const Prefix&) const = default;

 private:
  IpAddress base_;
  int length_ = 0;
};

struct Endpoint {
  IpAddress addr;
  uint16_t port = 0;

  auto operator<=>(const Endpoint&) const = default;
  std::string to_string() const;
};

struct EndpointHash {
  size_t operator()(const Endpoint& e) const {
    return e.addr.hash() * 31 + e.port;
  }
};

}  // namespace netsim
