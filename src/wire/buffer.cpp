#include "wire/buffer.h"

namespace wire {

Writer& scratch_writer() {
  thread_local Writer scratch;
  scratch.clear();
  return scratch;
}

void append_varint(std::vector<uint8_t>& out, uint64_t v) {
  switch (varint_size(v)) {
    case 1: append_u8(out, static_cast<uint8_t>(v)); break;
    case 2: append_u16(out, static_cast<uint16_t>(v | 0x4000)); break;
    case 4: append_u32(out, static_cast<uint32_t>(v | 0x80000000u)); break;
    default: append_u64(out, v | (uint64_t{3} << 62)); break;
  }
}

uint64_t Reader::varint() {
  uint8_t first = u8();
  int prefix = first >> 6;
  uint64_t v = first & 0x3f;
  int extra = (1 << prefix) - 1;
  for (int i = 0; i < extra; ++i) v = v << 8 | u8();
  return v;
}

size_t varint_size(uint64_t v) {
  if (v <= 63) return 1;
  if (v <= 16383) return 2;
  if (v <= 1073741823) return 4;
  if (v <= kVarintMax) return 8;
  throw std::invalid_argument("varint value out of range");
}

std::string to_hex(std::span<const uint8_t> data) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (uint8_t b : data) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

namespace {
int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw std::invalid_argument("invalid hex digit");
}
}  // namespace

std::vector<uint8_t> from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) throw std::invalid_argument("odd-length hex string");
  std::vector<uint8_t> out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    out.push_back(static_cast<uint8_t>(hex_nibble(hex[i]) << 4 |
                                       hex_nibble(hex[i + 1])));
  }
  return out;
}

}  // namespace wire
