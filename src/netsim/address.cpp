#include "netsim/address.h"

#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <vector>

namespace netsim {

IpAddress IpAddress::v4(uint32_t value) {
  IpAddress a;
  a.family_ = Family::kIpv4;
  a.bytes_[12] = static_cast<uint8_t>(value >> 24);
  a.bytes_[13] = static_cast<uint8_t>(value >> 16);
  a.bytes_[14] = static_cast<uint8_t>(value >> 8);
  a.bytes_[15] = static_cast<uint8_t>(value);
  return a;
}

IpAddress IpAddress::v6(const std::array<uint8_t, 16>& bytes) {
  IpAddress a;
  a.family_ = Family::kIpv6;
  a.bytes_ = bytes;
  return a;
}

IpAddress IpAddress::v6(uint64_t hi, uint64_t lo) {
  std::array<uint8_t, 16> b{};
  for (int i = 0; i < 8; ++i) {
    b[static_cast<size_t>(i)] = static_cast<uint8_t>(hi >> (8 * (7 - i)));
    b[static_cast<size_t>(8 + i)] = static_cast<uint8_t>(lo >> (8 * (7 - i)));
  }
  return v6(b);
}

uint32_t IpAddress::v4_value() const {
  if (!is_v4()) throw std::logic_error("v4_value on IPv6 address");
  return static_cast<uint32_t>(bytes_[12]) << 24 |
         static_cast<uint32_t>(bytes_[13]) << 16 |
         static_cast<uint32_t>(bytes_[14]) << 8 | bytes_[15];
}

uint64_t IpAddress::v6_hi() const {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = v << 8 | bytes_[static_cast<size_t>(i)];
  return v;
}

uint64_t IpAddress::v6_lo() const {
  uint64_t v = 0;
  for (int i = 8; i < 16; ++i) v = v << 8 | bytes_[static_cast<size_t>(i)];
  return v;
}

size_t IpAddress::hash() const {
  // FNV-1a over family + bytes.
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&](uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ull;
  };
  mix(static_cast<uint8_t>(family_));
  for (uint8_t b : bytes_) mix(b);
  return static_cast<size_t>(h);
}

namespace {

std::optional<uint32_t> parse_v4_value(std::string_view text) {
  uint32_t value = 0;
  int octets = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t dot = text.find('.', pos);
    std::string_view part = text.substr(pos, dot == std::string_view::npos
                                                 ? std::string_view::npos
                                                 : dot - pos);
    unsigned octet = 0;
    auto [p, ec] = std::from_chars(part.data(), part.data() + part.size(), octet);
    if (ec != std::errc{} || p != part.data() + part.size() || octet > 255 ||
        part.empty())
      return std::nullopt;
    value = value << 8 | octet;
    ++octets;
    if (dot == std::string_view::npos) break;
    pos = dot + 1;
  }
  if (octets != 4) return std::nullopt;
  return value;
}

std::optional<std::array<uint8_t, 16>> parse_v6_bytes(std::string_view text) {
  // Split on "::" into head and tail group lists.
  std::vector<uint16_t> head, tail;
  bool has_gap = false;
  size_t gap = text.find("::");
  std::string_view head_str = has_gap ? text : text,
                   tail_str = {};
  if (gap != std::string_view::npos) {
    has_gap = true;
    head_str = text.substr(0, gap);
    tail_str = text.substr(gap + 2);
    if (tail_str.find("::") != std::string_view::npos) return std::nullopt;
  } else {
    head_str = text;
  }
  auto parse_groups = [](std::string_view s,
                         std::vector<uint16_t>& out) -> bool {
    if (s.empty()) return true;
    size_t pos = 0;
    while (pos <= s.size()) {
      size_t colon = s.find(':', pos);
      std::string_view part = s.substr(
          pos, colon == std::string_view::npos ? std::string_view::npos
                                               : colon - pos);
      if (part.empty() || part.size() > 4) return false;
      unsigned v = 0;
      auto [p, ec] =
          std::from_chars(part.data(), part.data() + part.size(), v, 16);
      if (ec != std::errc{} || p != part.data() + part.size()) return false;
      out.push_back(static_cast<uint16_t>(v));
      if (colon == std::string_view::npos) break;
      pos = colon + 1;
    }
    return true;
  };
  if (!parse_groups(head_str, head) || !parse_groups(tail_str, tail))
    return std::nullopt;
  size_t total = head.size() + tail.size();
  if (has_gap) {
    if (total >= 8) return std::nullopt;  // "::" must cover >= 1 group
  } else {
    if (total != 8) return std::nullopt;
  }
  std::array<uint8_t, 16> bytes{};
  for (size_t i = 0; i < head.size(); ++i) {
    bytes[2 * i] = static_cast<uint8_t>(head[i] >> 8);
    bytes[2 * i + 1] = static_cast<uint8_t>(head[i]);
  }
  for (size_t i = 0; i < tail.size(); ++i) {
    size_t g = 8 - tail.size() + i;
    bytes[2 * g] = static_cast<uint8_t>(tail[i] >> 8);
    bytes[2 * g + 1] = static_cast<uint8_t>(tail[i]);
  }
  return bytes;
}

}  // namespace

std::optional<IpAddress> IpAddress::parse(std::string_view text) {
  if (text.find(':') != std::string_view::npos) {
    auto b = parse_v6_bytes(text);
    if (!b) return std::nullopt;
    return v6(*b);
  }
  auto v = parse_v4_value(text);
  if (!v) return std::nullopt;
  return v4(*v);
}

std::string IpAddress::to_string() const {
  char buf[64];
  if (is_v4()) {
    std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", bytes_[12], bytes_[13],
                  bytes_[14], bytes_[15]);
    return buf;
  }
  // RFC 5952 formatting: lowercase hex groups, compress the longest run
  // of zero groups (>= 2) with "::".
  uint16_t groups[8];
  for (int i = 0; i < 8; ++i)
    groups[i] = static_cast<uint16_t>(bytes_[static_cast<size_t>(2 * i)] << 8 |
                                      bytes_[static_cast<size_t>(2 * i + 1)]);
  int best_start = -1, best_len = 0;
  for (int i = 0; i < 8;) {
    if (groups[i] != 0) {
      ++i;
      continue;
    }
    int j = i;
    while (j < 8 && groups[j] == 0) ++j;
    if (j - i > best_len) {
      best_start = i;
      best_len = j - i;
    }
    i = j;
  }
  if (best_len < 2) best_start = -1;
  std::string out;
  for (int i = 0; i < 8;) {
    if (i == best_start) {
      out += "::";
      i += best_len;
      if (i == 8) return out;
      continue;
    }
    if (!out.empty() && out.back() != ':') out += ':';
    std::snprintf(buf, sizeof buf, "%x", groups[i]);
    out += buf;
    ++i;
  }
  return out;
}

Prefix::Prefix(IpAddress base, int length) : base_(base), length_(length) {
  int max_len = base.is_v4() ? 32 : 128;
  if (length < 0 || length > max_len)
    throw std::invalid_argument("Prefix: bad length");
}

std::optional<Prefix> Prefix::parse(std::string_view text) {
  size_t slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  auto addr = IpAddress::parse(text.substr(0, slash));
  if (!addr) return std::nullopt;
  auto len_str = text.substr(slash + 1);
  int len = 0;
  auto [p, ec] =
      std::from_chars(len_str.data(), len_str.data() + len_str.size(), len);
  if (ec != std::errc{} || p != len_str.data() + len_str.size())
    return std::nullopt;
  int max_len = addr->is_v4() ? 32 : 128;
  if (len < 0 || len > max_len) return std::nullopt;
  return Prefix(*addr, len);
}

bool Prefix::contains(const IpAddress& addr) const {
  if (addr.family() != base_.family()) return false;
  if (base_.is_v4()) {
    if (length_ == 0) return true;
    uint32_t mask =
        length_ == 32 ? ~0u : ~((1u << (32 - length_)) - 1);
    return (addr.v4_value() & mask) == (base_.v4_value() & mask);
  }
  const auto& a = addr.v6_bytes();
  const auto& b = base_.v6_bytes();
  int full = length_ / 8, rem = length_ % 8;
  for (int i = 0; i < full; ++i)
    if (a[static_cast<size_t>(i)] != b[static_cast<size_t>(i)]) return false;
  if (rem != 0) {
    uint8_t mask = static_cast<uint8_t>(0xff << (8 - rem));
    if ((a[static_cast<size_t>(full)] & mask) !=
        (b[static_cast<size_t>(full)] & mask))
      return false;
  }
  return true;
}

IpAddress Prefix::host_at(uint64_t offset) const {
  if (host_count() != 0 && offset >= host_count())
    throw std::out_of_range("Prefix::host_at: offset outside prefix");
  if (base_.is_v4()) {
    return IpAddress::v4(base_.v4_value() + static_cast<uint32_t>(offset));
  }
  uint64_t hi = base_.v6_hi(), lo = base_.v6_lo();
  uint64_t new_lo = lo + offset;
  if (new_lo < lo) ++hi;  // carry
  return IpAddress::v6(hi, new_lo);
}

uint64_t Prefix::host_count() const {
  int host_bits = (base_.is_v4() ? 32 : 128) - length_;
  if (host_bits >= 63) return 0;  // "unbounded" sentinel, capped
  return uint64_t{1} << host_bits;
}

std::string Endpoint::to_string() const {
  if (addr.is_v6()) return "[" + addr.to_string() + "]:" + std::to_string(port);
  return addr.to_string() + ":" + std::to_string(port);
}

}  // namespace netsim
