// Byte-buffer reader/writer primitives used by every wire codec in the
// repository (QUIC packets, TLS messages, DNS messages, HTTP bodies).
//
// Design: Writer owns a growable std::vector<uint8_t>; Reader is a
// non-owning cursor over a std::span. Both are deliberately dumb --
// protocol-specific framing (length prefixes, varints) lives in the
// protocol codecs, with only the QUIC varint here because three
// subsystems (QUIC, TLS transport-parameter extension, HTTP/3) share it.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace wire {

/// Unaligned big-endian loads/stores. memcpy instead of pointer casts:
/// byte buffers carry no alignment guarantee, so a direct
/// uint32_t*/uint64_t* dereference would be undefined behavior (and a
/// real trap on strict-alignment targets). Compilers fold the
/// memcpy + byte swap into the same single load x86 got from the cast.
inline uint16_t load_u16be(const uint8_t* p) {
  uint16_t v;
  std::memcpy(&v, p, sizeof v);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  return v;
#elif defined(__GNUC__) || defined(__clang__)
  return __builtin_bswap16(v);
#else
  return static_cast<uint16_t>(static_cast<uint16_t>(p[0]) << 8 | p[1]);
#endif
}

inline uint32_t load_u32be(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof v);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  return v;
#elif defined(__GNUC__) || defined(__clang__)
  return __builtin_bswap32(v);
#else
  return static_cast<uint32_t>(p[0]) << 24 | static_cast<uint32_t>(p[1]) << 16 |
         static_cast<uint32_t>(p[2]) << 8 | p[3];
#endif
}

inline uint64_t load_u64be(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof v);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  return v;
#elif defined(__GNUC__) || defined(__clang__)
  return __builtin_bswap64(v);
#else
  return static_cast<uint64_t>(load_u32be(p)) << 32 | load_u32be(p + 4);
#endif
}

inline void store_u32be(uint8_t* p, uint32_t v) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
#elif defined(__GNUC__) || defined(__clang__)
  v = __builtin_bswap32(v);
#else
  uint8_t b[4] = {static_cast<uint8_t>(v >> 24), static_cast<uint8_t>(v >> 16),
                  static_cast<uint8_t>(v >> 8), static_cast<uint8_t>(v)};
  std::memcpy(p, b, sizeof b);
  return;
#endif
  std::memcpy(p, &v, sizeof v);
}

inline void store_u64be(uint8_t* p, uint64_t v) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
#elif defined(__GNUC__) || defined(__clang__)
  v = __builtin_bswap64(v);
#else
  store_u32be(p, static_cast<uint32_t>(v >> 32));
  store_u32be(p + 4, static_cast<uint32_t>(v));
  return;
#endif
  std::memcpy(p, &v, sizeof v);
}

/// Error thrown by Reader when a read runs past the end of input or a
/// decoded value violates the wire grammar.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// Append-only byte writer with big-endian integer primitives.
class Writer {
 public:
  Writer() = default;
  explicit Writer(size_t reserve) { buf_.reserve(reserve); }

  void u8(uint8_t v) { buf_.push_back(v); }
  void u16(uint16_t v) {
    buf_.push_back(static_cast<uint8_t>(v >> 8));
    buf_.push_back(static_cast<uint8_t>(v));
  }
  void u24(uint32_t v) {
    buf_.push_back(static_cast<uint8_t>(v >> 16));
    buf_.push_back(static_cast<uint8_t>(v >> 8));
    buf_.push_back(static_cast<uint8_t>(v));
  }
  void u32(uint32_t v) {
    u16(static_cast<uint16_t>(v >> 16));
    u16(static_cast<uint16_t>(v));
  }
  void u64(uint64_t v) {
    u32(static_cast<uint32_t>(v >> 32));
    u32(static_cast<uint32_t>(v));
  }

  void bytes(std::span<const uint8_t> b) { buf_.insert(buf_.end(), b.begin(), b.end()); }
  void bytes(const uint8_t* p, size_t n) { buf_.insert(buf_.end(), p, p + n); }
  void str(std::string_view s) {
    bytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }
  void zeros(size_t n) { buf_.insert(buf_.end(), n, 0); }

  /// QUIC variable-length integer (RFC 9000 section 16). Throws
  /// std::invalid_argument for values >= 2^62.
  void varint(uint64_t v);

  /// Reserve a big-endian length field of `width` bytes and return its
  /// offset; call fill_length() after writing the framed content.
  size_t begin_length(int width) {
    size_t at = buf_.size();
    zeros(static_cast<size_t>(width));
    return at;
  }
  void fill_length(size_t at, int width) {
    uint64_t len = buf_.size() - at - static_cast<size_t>(width);
    for (int i = 0; i < width; ++i) {
      buf_[at + static_cast<size_t>(i)] =
          static_cast<uint8_t>(len >> (8 * (width - 1 - i)));
    }
  }

  size_t size() const { return buf_.size(); }
  bool empty() const { return buf_.empty(); }
  const std::vector<uint8_t>& data() const { return buf_; }
  std::vector<uint8_t> take() { return std::move(buf_); }
  std::span<const uint8_t> span() const { return buf_; }
  uint8_t& operator[](size_t i) { return buf_[i]; }

  /// Drops the content but keeps the capacity, so one Writer can be
  /// reused across packets without reallocating.
  void clear() { buf_.clear(); }
  size_t capacity() const { return buf_.capacity(); }

 private:
  std::vector<uint8_t> buf_;
};

/// A per-thread scratch Writer for encoders that learn their output's
/// size only by producing it: encode into it, then copy the bytes out
/// once at their exact size. Returned empty, with the capacity earlier
/// uses on this thread left, so steady-state encoding allocates only
/// the copy. Not reentrant: an encoder that holds it must not call
/// another encoder that takes it.
Writer& scratch_writer();

/// Non-owning forward cursor with big-endian integer primitives.
class Reader {
 public:
  explicit Reader(std::span<const uint8_t> data) : data_(data) {}
  Reader(const uint8_t* p, size_t n) : data_(p, n) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }
  size_t position() const { return pos_; }

  uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  uint16_t u16() {
    need(2);
    uint16_t v = load_u16be(data_.data() + pos_);
    pos_ += 2;
    return v;
  }
  uint32_t u24() {
    need(3);
    uint32_t v = static_cast<uint32_t>(data_[pos_]) << 16 |
                 static_cast<uint32_t>(data_[pos_ + 1]) << 8 | data_[pos_ + 2];
    pos_ += 3;
    return v;
  }
  uint32_t u32() {
    need(4);
    uint32_t v = load_u32be(data_.data() + pos_);
    pos_ += 4;
    return v;
  }
  uint64_t u64() {
    need(8);
    uint64_t v = load_u64be(data_.data() + pos_);
    pos_ += 8;
    return v;
  }

  std::span<const uint8_t> bytes(size_t n) {
    need(n);
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  std::vector<uint8_t> bytes_copy(size_t n) {
    auto s = bytes(n);
    return {s.begin(), s.end()};
  }
  std::string str(size_t n) {
    auto s = bytes(n);
    return {reinterpret_cast<const char*>(s.data()), s.size()};
  }
  void skip(size_t n) {
    need(n);
    pos_ += n;
  }
  std::span<const uint8_t> rest() {
    auto out = data_.subspan(pos_);
    pos_ = data_.size();
    return out;
  }
  /// Peek without consuming.
  uint8_t peek_u8() const {
    if (remaining() < 1) throw DecodeError("peek past end");
    return data_[pos_];
  }

  /// QUIC variable-length integer (RFC 9000 section 16).
  uint64_t varint();

 private:
  void need(size_t n) const {
    if (remaining() < n) throw DecodeError("read past end of buffer");
  }
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

/// Append-style primitives writing directly into a caller-owned vector.
/// Hot paths (packet protection, frame encoding) build coalesced
/// datagrams by appending into one reusable buffer instead of
/// round-tripping through a fresh Writer per packet; the encodings are
/// bit-identical to the Writer member functions of the same name.
inline void append_u8(std::vector<uint8_t>& out, uint8_t v) {
  out.push_back(v);
}
inline void append_u16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v));
}
inline void append_u32(std::vector<uint8_t>& out, uint32_t v) {
  append_u16(out, static_cast<uint16_t>(v >> 16));
  append_u16(out, static_cast<uint16_t>(v));
}
inline void append_u64(std::vector<uint8_t>& out, uint64_t v) {
  append_u32(out, static_cast<uint32_t>(v >> 32));
  append_u32(out, static_cast<uint32_t>(v));
}
inline void append_bytes(std::vector<uint8_t>& out,
                         std::span<const uint8_t> b) {
  out.insert(out.end(), b.begin(), b.end());
}

/// QUIC variable-length integer (RFC 9000 section 16). Throws
/// std::invalid_argument for values >= 2^62.
void append_varint(std::vector<uint8_t>& out, uint64_t v);

/// Number of bytes a QUIC varint encoding of `v` occupies (1, 2, 4 or 8).
size_t varint_size(uint64_t v);

/// Maximum value representable as a QUIC varint (2^62 - 1).
inline constexpr uint64_t kVarintMax = (uint64_t{1} << 62) - 1;

std::string to_hex(std::span<const uint8_t> data);
std::vector<uint8_t> from_hex(std::string_view hex);

}  // namespace wire
