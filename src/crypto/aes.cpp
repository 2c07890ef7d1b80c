#include "crypto/aes.h"

#include <cstring>
#include <stdexcept>

#include "crypto/aesni.h"
#include "wire/buffer.h"

namespace crypto {

namespace {

// S-box generated from the AES affine transform; stored literal for clarity.
constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr uint8_t kRcon[10] = {0x01, 0x02, 0x04, 0x08, 0x10,
                               0x20, 0x40, 0x80, 0x1b, 0x36};

inline uint8_t xtime(uint8_t x) {
  return static_cast<uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

inline constexpr uint32_t rotr8_c(uint32_t x) { return x >> 8 | x << 24; }

// Combined SubBytes+MixColumns T-tables (encryption direction), built
// once per process: t0[b] = MixColumn(Sbox[b] placed in lane 0), and
// t1..t3 are its byte rotations. The single-block kernel only reads t0
// and rotates in registers; the interleaved kernel trades 3 KiB more
// table for dropping those 6 rotates per column.
struct TTables {
  uint32_t t0[256];
  uint32_t t1[256];
  uint32_t t2[256];
  uint32_t t3[256];
  TTables() {
    for (int b = 0; b < 256; ++b) {
      uint8_t s = kSbox[b];
      uint8_t s2 = xtime(s);
      uint8_t s3 = static_cast<uint8_t>(s2 ^ s);
      // Column (2s, s, s, 3s) packed big-endian.
      t0[b] = static_cast<uint32_t>(s2) << 24 |
              static_cast<uint32_t>(s) << 16 |
              static_cast<uint32_t>(s) << 8 | s3;
      t1[b] = rotr8_c(t0[b]);
      t2[b] = rotr8_c(t1[b]);
      t3[b] = rotr8_c(t2[b]);
    }
  }
};

const TTables& ttables() {
  static const TTables kT;
  return kT;
}

inline uint32_t rotr8(uint32_t x) { return x >> 8 | x << 24; }

// One T-table encryption of `blocks` consecutive 16-byte states.
// kBlocks == 1 is the single-block kernel (header protection, CTR
// tails): t0 only, with the other three rotations done in registers.
// kBlocks > 1 is the CTR kernel: the per-round loop over independent
// states lets the compiler overlap their lookup/xor dependency chains
// instead of serializing one block's ten rounds at a time, and the
// precomputed t1..t3 rotations cut the ALU work per column from ~10 ops
// to 4 xors so the interleave's extra live state does not just trade
// rotates for spills. The two compute every block independently, so
// tests pit them against each other on every host.
template <int kBlocks>
inline void encrypt_blocks_portable(const uint8_t round_keys[11][16],
                                    const uint8_t* in, uint8_t* out) {
  const TTables& kT = ttables();
  uint32_t rk0[4];
  for (int i = 0; i < 4; ++i)
    rk0[i] = wire::load_u32be(round_keys[0] + 4 * i);

  uint32_t c[kBlocks][4];
  for (int b = 0; b < kBlocks; ++b)
    for (int i = 0; i < 4; ++i)
      c[b][i] = wire::load_u32be(in + 16 * b + 4 * i) ^ rk0[i];

  for (int round = 1; round <= 9; ++round) {
    uint32_t rk[4];
    for (int i = 0; i < 4; ++i)
      rk[i] = wire::load_u32be(round_keys[round] + 4 * i);
    for (int b = 0; b < kBlocks; ++b) {
      const uint32_t c0 = c[b][0], c1 = c[b][1], c2 = c[b][2], c3 = c[b][3];
      if constexpr (kBlocks == 1) {
        // Column i draws bytes from columns i, i+1, i+2, i+3 (ShiftRows).
        c[b][0] = kT.t0[c0 >> 24] ^ rotr8(kT.t0[(c1 >> 16) & 0xff]) ^
                  rotr8(rotr8(kT.t0[(c2 >> 8) & 0xff])) ^
                  rotr8(rotr8(rotr8(kT.t0[c3 & 0xff]))) ^ rk[0];
        c[b][1] = kT.t0[c1 >> 24] ^ rotr8(kT.t0[(c2 >> 16) & 0xff]) ^
                  rotr8(rotr8(kT.t0[(c3 >> 8) & 0xff])) ^
                  rotr8(rotr8(rotr8(kT.t0[c0 & 0xff]))) ^ rk[1];
        c[b][2] = kT.t0[c2 >> 24] ^ rotr8(kT.t0[(c3 >> 16) & 0xff]) ^
                  rotr8(rotr8(kT.t0[(c0 >> 8) & 0xff])) ^
                  rotr8(rotr8(rotr8(kT.t0[c1 & 0xff]))) ^ rk[2];
        c[b][3] = kT.t0[c3 >> 24] ^ rotr8(kT.t0[(c0 >> 16) & 0xff]) ^
                  rotr8(rotr8(kT.t0[(c1 >> 8) & 0xff])) ^
                  rotr8(rotr8(rotr8(kT.t0[c2 & 0xff]))) ^ rk[3];
      } else {
        c[b][0] = kT.t0[c0 >> 24] ^ kT.t1[(c1 >> 16) & 0xff] ^
                  kT.t2[(c2 >> 8) & 0xff] ^ kT.t3[c3 & 0xff] ^ rk[0];
        c[b][1] = kT.t0[c1 >> 24] ^ kT.t1[(c2 >> 16) & 0xff] ^
                  kT.t2[(c3 >> 8) & 0xff] ^ kT.t3[c0 & 0xff] ^ rk[1];
        c[b][2] = kT.t0[c2 >> 24] ^ kT.t1[(c3 >> 16) & 0xff] ^
                  kT.t2[(c0 >> 8) & 0xff] ^ kT.t3[c1 & 0xff] ^ rk[2];
        c[b][3] = kT.t0[c3 >> 24] ^ kT.t1[(c0 >> 16) & 0xff] ^
                  kT.t2[(c1 >> 8) & 0xff] ^ kT.t3[c2 & 0xff] ^ rk[3];
      }
    }
  }

  // Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
  for (int b = 0; b < kBlocks; ++b) {
    const uint32_t c0 = c[b][0], c1 = c[b][1], c2 = c[b][2], c3 = c[b][3];
    uint8_t s[16];
    auto store = [&](int col, uint32_t a, uint32_t bb, uint32_t cc,
                     uint32_t d) {
      s[4 * col] = kSbox[a >> 24];
      s[4 * col + 1] = kSbox[(bb >> 16) & 0xff];
      s[4 * col + 2] = kSbox[(cc >> 8) & 0xff];
      s[4 * col + 3] = kSbox[d & 0xff];
    };
    store(0, c0, c1, c2, c3);
    store(1, c1, c2, c3, c0);
    store(2, c2, c3, c0, c1);
    store(3, c3, c0, c1, c2);
    for (int i = 0; i < 16; ++i)
      out[16 * b + i] = s[i] ^ round_keys[10][i];
  }
}

}  // namespace

Aes128::Aes128(std::span<const uint8_t> key) : backend_(resolve_backend()) {
  if (key.size() != kAes128KeySize)
    throw std::invalid_argument("Aes128: key must be 16 bytes");
#ifdef QREPRO_HAVE_AESNI
  if (backend_ == Backend::kAesni) {
    // AESKEYGENASSIST expansion; byte-identical to the scalar schedule.
    aesni::expand_key(key.data(), round_keys_);
    return;
  }
#endif
  std::memcpy(round_keys_[0], key.data(), 16);
  for (int r = 1; r <= 10; ++r) {
    const uint8_t* prev = round_keys_[r - 1];
    uint8_t* rk = round_keys_[r];
    // RotWord + SubWord + Rcon on the last word of the previous key.
    uint8_t t[4] = {static_cast<uint8_t>(kSbox[prev[13]] ^ kRcon[r - 1]),
                    kSbox[prev[14]], kSbox[prev[15]], kSbox[prev[12]]};
    for (int i = 0; i < 4; ++i) rk[i] = prev[i] ^ t[i];
    for (int i = 4; i < 16; ++i) rk[i] = prev[i] ^ rk[i - 4];
  }
}

void Aes128::encrypt_block(const uint8_t* in, uint8_t* out) const {
#ifdef QREPRO_HAVE_AESNI
  if (backend_ == Backend::kAesni) {
    aesni::encrypt_block(round_keys_, in, out);
    return;
  }
#endif
  encrypt_blocks_portable<1>(round_keys_, in, out);
}

void Aes128::encrypt4_blocks(const uint8_t* in, uint8_t* out) const {
  encrypt_blocks_portable<4>(round_keys_, in, out);
}

std::array<uint8_t, kAesBlockSize> Aes128::encrypt_block(
    std::span<const uint8_t> block) const {
  if (block.size() != kAesBlockSize)
    throw std::invalid_argument("Aes128: block must be 16 bytes");
  std::array<uint8_t, kAesBlockSize> out;
  encrypt_block(block.data(), out.data());
  return out;
}

namespace {

// Reduction constants for shifting a GHASH state right by one byte
// (Shoup's method): kReduce8.t[b] = the fold of dropped byte b back into
// the top 16 bits of the state. Key-independent, built once per process
// by simulating eight single-bit right shifts with the 0xe1 fold.
struct Reduce8 {
  uint16_t t[256];
  Reduce8() {
    for (int b = 0; b < 256; ++b) {
      uint64_t hi = 0, lo = static_cast<uint64_t>(b);
      for (int k = 0; k < 8; ++k) {
        bool bit = lo & 1;
        lo = lo >> 1 | hi << 63;
        hi >>= 1;
        if (bit) hi ^= 0xe1ull << 56;
      }
      t[b] = static_cast<uint16_t>(hi >> 48);
    }
  }
};

const Reduce8 kReduce8;

}  // namespace

Aes128Gcm::Aes128Gcm(std::span<const uint8_t> key) : aes_(key) {
  Block zero{};
  aes_.encrypt_block(zero.data(), h_.data());
#ifdef QREPRO_HAVE_AESNI
  // The PCLMUL backend multiplies by H directly: no 4 KiB table to
  // allocate or build (the build dominated portable context
  // construction).
  if (aes_.backend() == Backend::kAesni) return;
#endif
  htable8_.resize(256);
  // Single-bit entries first: bit 7 of the index byte is x^0, so
  // htable8_[0x80] = H, and each lower bit is one multiply-by-x (shift
  // right one bit, folding 0xe1 when the x^127 coefficient drops out).
  Gf128 v;
  v.hi = wire::load_u64be(h_.data());
  v.lo = wire::load_u64be(h_.data() + 8);
  for (int bit = 0x80; bit != 0; bit >>= 1) {
    htable8_[static_cast<size_t>(bit)] = v;
    bool lsb = v.lo & 1;
    v.lo = v.lo >> 1 | v.hi << 63;
    v.hi >>= 1;
    if (lsb) v.hi ^= 0xe1ull << 56;
  }
  // GF(2^128) multiplication is linear over xor, so every remaining
  // entry is the xor of its single-bit components.
  for (int i = 2; i < 256; i <<= 1) {
    for (int j = 1; j < i; ++j) {
      htable8_[static_cast<size_t>(i | j)] = {
          htable8_[static_cast<size_t>(i)].hi ^
              htable8_[static_cast<size_t>(j)].hi,
          htable8_[static_cast<size_t>(i)].lo ^
              htable8_[static_cast<size_t>(j)].lo};
    }
  }
}

void Aes128Gcm::ghash_mul(Gf128& x) const {
  // Horner evaluation over the 16 bytes of x, highest exponent first
  // (byte 15): z = (z * x^8) + htable8_[byte] per step, where the x^8
  // shift drops one byte that folds back via kReduce8.
  uint8_t bytes[16];
  wire::store_u64be(bytes, x.hi);
  wire::store_u64be(bytes + 8, x.lo);
  Gf128 z;
  for (int i = 15; i >= 0; --i) {
    if (i != 15) {
      uint8_t dropped = static_cast<uint8_t>(z.lo);
      z.lo = z.lo >> 8 | z.hi << 56;
      z.hi >>= 8;
      z.hi ^= static_cast<uint64_t>(kReduce8.t[dropped]) << 48;
    }
    const Gf128& t = htable8_[bytes[i]];
    z.hi ^= t.hi;
    z.lo ^= t.lo;
  }
  x = z;
}

Aes128Gcm::Block Aes128Gcm::ghash(std::span<const uint8_t> aad,
                                  std::span<const uint8_t> ct) const {
  Block out;
#ifdef QREPRO_HAVE_AESNI
  if (aes_.backend() == Backend::kAesni) {
    aesni::ghash(h_.data(), aad.data(), aad.size(), ct.data(), ct.size(),
                 out.data());
    return out;
  }
#endif
  Gf128 y;
  auto absorb = [&](std::span<const uint8_t> data) {
    for (size_t off = 0; off < data.size(); off += 16) {
      size_t n = std::min<size_t>(16, data.size() - off);
      uint8_t block[16] = {};
      std::memcpy(block, data.data() + off, n);
      y.hi ^= wire::load_u64be(block);
      y.lo ^= wire::load_u64be(block + 8);
      ghash_mul(y);
    }
  };
  absorb(aad);
  absorb(ct);
  y.hi ^= aad.size() * 8;
  y.lo ^= ct.size() * 8;
  ghash_mul(y);
  wire::store_u64be(out.data(), y.hi);
  wire::store_u64be(out.data() + 8, y.lo);
  return out;
}

void Aes128Gcm::ctr_xor(const Block& initial_counter,
                        std::span<const uint8_t> in, uint8_t* out) const {
#ifdef QREPRO_HAVE_AESNI
  if (aes_.backend() == Backend::kAesni) {
    aesni::ctr_xor(aes_.round_keys_, initial_counter.data(), in.data(), out,
                   in.size());
    return;
  }
#endif
  Block counter = initial_counter;
  auto inc32 = [&] {
    // Increment the low 32 bits (inc32).
    for (int i = 15; i >= 12; --i)
      if (++counter[i] != 0) break;
  };
  // Four counter blocks per pass through the round-interleaved scalar
  // kernel: same keystream, overlapping dependency chains.
  size_t off = 0;
  uint8_t counters[64];
  uint8_t keystream4[64];
  while (off + 64 <= in.size()) {
    for (int b = 0; b < 4; ++b) {
      inc32();
      std::memcpy(counters + 16 * b, counter.data(), 16);
    }
    aes_.encrypt4_blocks(counters, keystream4);
    for (size_t i = 0; i < 64; ++i) out[off + i] = in[off + i] ^ keystream4[i];
    off += 64;
  }
  Block keystream;
  while (off < in.size()) {
    inc32();
    aes_.encrypt_block(counter.data(), keystream.data());
    size_t n = std::min<size_t>(16, in.size() - off);
    for (size_t i = 0; i < n; ++i) out[off + i] = in[off + i] ^ keystream[i];
    off += n;
  }
}

Aes128Gcm::Block Aes128Gcm::tag(const Block& j0,
                                std::span<const uint8_t> aad,
                                std::span<const uint8_t> ct) const {
  Block s = ghash(aad, ct);
  Block ek_j0;
  aes_.encrypt_block(j0.data(), ek_j0.data());
  for (size_t i = 0; i < kGcmTagSize; ++i) s[i] ^= ek_j0[i];
  return s;
}

void Aes128Gcm::seal_append(std::span<const uint8_t> nonce,
                            std::span<const uint8_t> aad,
                            std::span<const uint8_t> plaintext,
                            std::vector<uint8_t>& out) const {
  if (nonce.size() != kGcmIvSize)
    throw std::invalid_argument("Aes128Gcm: nonce must be 12 bytes");
  Block j0{};
  std::memcpy(j0.data(), nonce.data(), 12);
  j0[15] = 1;
  const size_t base = out.size();
  out.resize(base + plaintext.size() + kGcmTagSize);
  ctr_xor(j0, plaintext, out.data() + base);
  Block t = tag(j0, aad, {out.data() + base, plaintext.size()});
  std::memcpy(out.data() + base + plaintext.size(), t.data(), kGcmTagSize);
}

bool Aes128Gcm::open_append(std::span<const uint8_t> nonce,
                            std::span<const uint8_t> aad,
                            std::span<const uint8_t> ct_and_tag,
                            std::vector<uint8_t>& out) const {
  if (nonce.size() != kGcmIvSize || ct_and_tag.size() < kGcmTagSize)
    return false;
  auto ct = ct_and_tag.first(ct_and_tag.size() - kGcmTagSize);
  auto expected = ct_and_tag.last(kGcmTagSize);
  Block j0{};
  std::memcpy(j0.data(), nonce.data(), 12);
  j0[15] = 1;
  Block t = tag(j0, aad, ct);
  uint8_t diff = 0;
  for (size_t i = 0; i < kGcmTagSize; ++i)
    diff |= static_cast<uint8_t>(t[i] ^ expected[i]);
  if (diff != 0) return false;
  const size_t base = out.size();
  out.resize(base + ct.size());
  ctr_xor(j0, ct, out.data() + base);
  return true;
}

std::vector<uint8_t> Aes128Gcm::seal(std::span<const uint8_t> nonce,
                                     std::span<const uint8_t> aad,
                                     std::span<const uint8_t> plaintext) const {
  std::vector<uint8_t> out;
  out.reserve(plaintext.size() + kGcmTagSize);
  seal_append(nonce, aad, plaintext, out);
  return out;
}

std::optional<std::vector<uint8_t>> Aes128Gcm::open(
    std::span<const uint8_t> nonce, std::span<const uint8_t> aad,
    std::span<const uint8_t> ct_and_tag) const {
  std::vector<uint8_t> out;
  if (ct_and_tag.size() >= kGcmTagSize)
    out.reserve(ct_and_tag.size() - kGcmTagSize);
  if (!open_append(nonce, aad, ct_and_tag, out)) return std::nullopt;
  return out;
}

}  // namespace crypto
