#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string_view>

#include "crypto/cpu.h"
#include "crypto/sha256_kernel.h"
#include "wire/buffer.h"

namespace crypto {

namespace {

using sha256_kernel::kRoundConstants;

inline uint32_t rotr(uint32_t x, int n) { return x >> n | x << (32 - n); }

// The reference kernel: FIPS 180-4 section 6.2.2 one block at a time.
void compress_scalar(uint32_t state[8], const uint8_t* p, size_t count) {
  for (; count > 0; --count, p += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = wire::load_u32be(p + 4 * i);
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t t1 = h + s1 + ch + kRoundConstants[i] + w[i];
      uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

decltype(&compress_scalar) select_kernel() {
#ifdef QREPRO_HAVE_SHANI
  if (sha256_hardware_selected()) return sha256_kernel::shani;
#endif
  return compress_scalar;
}

}  // namespace

Sha256::Sha256() : kernel_(select_kernel()) { reset(); }

Sha256::Sha256(const Midstate& midstate) : kernel_(select_kernel()) {
  resume(midstate);
}

void Sha256::resume(const Midstate& midstate) {
  state_ = midstate;
  total_len_ = 64;
  block_len_ = 0;
}

bool Sha256::hardware_kernel() const { return kernel_ != compress_scalar; }

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  total_len_ = 0;
  block_len_ = 0;
}

void Sha256::update(std::span<const uint8_t> data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  if (n == 0) return;  // an empty span may carry a null data()
  total_len_ += n;
  if (block_len_ > 0) {
    size_t take = std::min(n, 64 - block_len_);
    std::memcpy(block_.data() + block_len_, p, take);
    block_len_ += take;
    p += take;
    n -= take;
    if (block_len_ < 64) return;
    kernel_(state_.data(), block_.data(), 1);
    block_len_ = 0;
  }
  if (size_t whole = n / 64) {
    kernel_(state_.data(), p, whole);
    p += whole * 64;
    n -= whole * 64;
  }
  if (n > 0) {
    std::memcpy(block_.data(), p, n);
    block_len_ = n;
  }
}

Sha256Digest Sha256::final() {
  // 0x80, zero fill to 56 mod 64, then the 64-bit big-endian bit length
  // (FIPS 180-4 5.1.1): one compression, or two when the 0x80 leaves no
  // room for the length.
  const uint64_t bit_len = total_len_ * 8;
  block_[block_len_++] = 0x80;
  if (block_len_ > 56) {
    std::memset(block_.data() + block_len_, 0, 64 - block_len_);
    kernel_(state_.data(), block_.data(), 1);
    block_len_ = 0;
  }
  std::memset(block_.data() + block_len_, 0, 56 - block_len_);
  wire::store_u64be(block_.data() + 56, bit_len);
  kernel_(state_.data(), block_.data(), 1);
  Sha256Digest out;
  for (int i = 0; i < 8; ++i) wire::store_u32be(out.data() + 4 * i, state_[i]);
  reset();
  return out;
}

Sha256Digest Sha256::hash(std::span<const uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.final();
}

HmacKey::HmacKey(std::span<const uint8_t> key) {
  std::array<uint8_t, 64> k{};
  if (key.size() > 64) {
    auto d = Sha256::hash(key);
    std::memcpy(k.data(), d.data(), d.size());
  } else if (!key.empty()) {  // empty span has a null data() (UB in memcpy)
    std::memcpy(k.data(), key.data(), key.size());
  }
  std::array<uint8_t, 64> pad{};
  Sha256 h;
  for (int i = 0; i < 64; ++i) pad[i] = k[i] ^ 0x36;
  h.update(pad);
  inner_ = h.state_;
  h.reset();
  for (int i = 0; i < 64; ++i) pad[i] = k[i] ^ 0x5c;
  h.update(pad);
  outer_ = h.state_;
}

Sha256Digest HmacKey::mac(std::span<const uint8_t> data) const {
  return mac({data});
}

Sha256Digest HmacKey::mac(
    std::initializer_list<std::span<const uint8_t>> parts) const {
  Sha256 h = begin();
  for (auto part : parts) h.update(part);
  const Sha256Digest inner_digest = h.final();
  h.resume(outer_);
  h.update(inner_digest);
  return h.final();
}

Sha256Digest hmac_sha256(std::span<const uint8_t> key,
                         std::span<const uint8_t> data) {
  return HmacKey(key).mac(data);
}

Sha256Digest hkdf_extract(std::span<const uint8_t> salt,
                          std::span<const uint8_t> ikm) {
  return HmacKey(salt).mac(ikm);
}

namespace {

void check_expand_length(size_t length) {
  if (length > 255 * kSha256DigestSize)
    throw std::invalid_argument("hkdf_expand: length too large");
}

// HKDF-Expand (RFC 5869 section 2.3) into `out`: T(i) = HMAC(prk,
// T(i-1) || info || i), streamed into the hash without a copy.
void expand(const HmacKey& prk, std::span<const uint8_t> info,
            std::span<uint8_t> out) {
  check_expand_length(out.size());
  Sha256Digest t{};
  std::span<const uint8_t> previous;  // T(0) is empty
  uint8_t counter = 1;
  for (size_t off = 0; off < out.size(); off += t.size(), ++counter) {
    t = prk.mac({previous, info, {&counter, 1}});
    previous = t;
    std::memcpy(out.data() + off, t.data(),
                std::min(t.size(), out.size() - off));
  }
}

}  // namespace

std::vector<uint8_t> hkdf_expand(std::span<const uint8_t> prk,
                                 std::span<const uint8_t> info, size_t length) {
  check_expand_length(length);
  std::vector<uint8_t> out(length);
  expand(HmacKey(prk), info, out);
  return out;
}

void hkdf_expand_label(const HmacKey& secret, std::string_view label,
                       std::span<const uint8_t> context,
                       std::span<uint8_t> out) {
  // struct HkdfLabel { uint16 length; opaque label<7..255>;
  //                    opaque context<0..255>; }, label = "tls13 " || label
  constexpr std::string_view kPrefix = "tls13 ";
  if (label.size() > 255 - kPrefix.size())
    throw std::invalid_argument("hkdf_expand_label: label too long");
  if (context.size() > 255)
    throw std::invalid_argument("hkdf_expand_label: context too long");
  std::array<uint8_t, 2 + 1 + 255 + 1 + 255> info{};
  uint8_t* p = info.data();
  *p++ = static_cast<uint8_t>(out.size() >> 8);  // expand() bounds it
  *p++ = static_cast<uint8_t>(out.size());
  *p++ = static_cast<uint8_t>(kPrefix.size() + label.size());
  p = std::copy(kPrefix.begin(), kPrefix.end(), p);
  p = std::copy(label.begin(), label.end(), p);
  *p++ = static_cast<uint8_t>(context.size());
  p = std::copy(context.begin(), context.end(), p);
  expand(secret, {info.data(), p}, out);
}

std::vector<uint8_t> hkdf_expand_label(std::span<const uint8_t> secret,
                                       std::string_view label,
                                       std::span<const uint8_t> context,
                                       size_t length) {
  check_expand_length(length);
  std::vector<uint8_t> out(length);
  hkdf_expand_label(HmacKey(secret), label, context, out);
  return out;
}

}  // namespace crypto
