// Crypto substrate tests against published vectors: FIPS 180-4 (SHA-256),
// RFC 4231 (HMAC), RFC 5869 (HKDF), FIPS 197 (AES), NIST GCM vectors.
#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/aes.h"
#include "crypto/dh.h"
#include "crypto/rng.h"
#include "crypto/sha256.h"
#include "wire/buffer.h"

using wire::from_hex;
using wire::to_hex;

namespace crypto {

// Reaches HmacKey::begin(), the resumed inner hash every MAC runs on.
struct HmacKeyTestPeer {
  static bool runs_hardware_kernel(const HmacKey& key) {
    return key.begin().hardware_kernel();
  }
};

}  // namespace crypto

namespace {

std::vector<uint8_t> str_bytes(std::string_view s) {
  return {s.begin(), s.end()};
}

// SHA-256 kernels under test: the scalar reference, which naming the
// portable backend pins, and SHA-NI, which naming aesni selects where the
// host has it (crypto/cpu.h). The FIPS 180-4, RFC 4231 and RFC 5869
// vectors below run under each; tests that need SHA-NI skip visibly
// without it. They build no AEAD context, so forcing aesni needs no
// AES-NI.
struct Sha256Kernel {
  const char* name;
  crypto::Backend backend;  // a backend that selects this kernel
};

std::vector<Sha256Kernel> sha256_kernels() {
  std::vector<Sha256Kernel> kernels = {
      {"scalar", crypto::Backend::kPortable}};
  if (crypto::sha256_hardware_available())
    kernels.push_back({"sha_ni", crypto::Backend::kAesni});
  return kernels;
}

TEST(Sha256, EmptyInput) {
  for (const auto& kernel : sha256_kernels()) {
    crypto::ScopedBackendOverride force(kernel.backend);
    EXPECT_EQ(to_hex(crypto::Sha256::hash({})),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
        << kernel.name;
  }
}

TEST(Sha256, Abc) {
  auto in = str_bytes("abc");
  for (const auto& kernel : sha256_kernels()) {
    crypto::ScopedBackendOverride force(kernel.backend);
    EXPECT_EQ(to_hex(crypto::Sha256::hash(in)),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
        << kernel.name;
  }
}

TEST(Sha256, TwoBlockMessage) {
  auto in = str_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  for (const auto& kernel : sha256_kernels()) {
    crypto::ScopedBackendOverride force(kernel.backend);
    EXPECT_EQ(to_hex(crypto::Sha256::hash(in)),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1")
        << kernel.name;
  }
}

TEST(Sha256, MillionAs) {
  std::vector<uint8_t> chunk(1000, 'a');
  for (const auto& kernel : sha256_kernels()) {
    crypto::ScopedBackendOverride force(kernel.backend);
    crypto::Sha256 h;
    for (int i = 0; i < 1000; ++i) h.update(chunk);
    EXPECT_EQ(to_hex(h.final()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0")
        << kernel.name;
  }
}

TEST(Sha256, IncrementalMatchesOneShot) {
  std::vector<uint8_t> data(300);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
  for (const auto& kernel : sha256_kernels()) {
    crypto::ScopedBackendOverride force(kernel.backend);
    for (size_t split = 0; split <= data.size(); split += 37) {
      crypto::Sha256 h;
      h.update({data.data(), split});
      h.update({data.data() + split, data.size() - split});
      EXPECT_EQ(h.final(), crypto::Sha256::hash(data))
          << kernel.name << " split=" << split;
    }
  }
}

TEST(Sha256, EveryPrefixLengthMatchesIndependentDigest) {
  // SHA-256 over the digests of data[0..len) for len = 0..300: every
  // padding shape (0x80 and the bit length in one block, or spilling
  // into a second) at every block offset, pinned from an independent
  // implementation (Python's hashlib).
  std::vector<uint8_t> data(300);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
  for (const auto& kernel : sha256_kernels()) {
    crypto::ScopedBackendOverride force(kernel.backend);
    crypto::Sha256 outer;
    for (size_t len = 0; len <= data.size(); ++len)
      outer.update(crypto::Sha256::hash({data.data(), len}));
    EXPECT_EQ(to_hex(outer.final()),
              "ddbdb189f5834c274dbe603d6d2874adf7234fd8a075c3d1bfbadc2107a75676")
        << kernel.name;
  }
}

TEST(Sha256Kernels, PortableBackendPinsScalar) {
  {
    crypto::ScopedBackendOverride force(crypto::Backend::kPortable);
    EXPECT_FALSE(crypto::sha256_hardware_selected());
    EXPECT_FALSE(crypto::Sha256().hardware_kernel());
  }
  {
    crypto::ScopedBackendOverride force(crypto::Backend::kAesni);
    EXPECT_EQ(crypto::sha256_hardware_selected(),
              crypto::sha256_hardware_available());
    EXPECT_EQ(crypto::Sha256().hardware_kernel(),
              crypto::sha256_hardware_available());
  }
  // An object keeps the kernel it was built with; copies keep it too.
  crypto::Sha256 hw = [] {
    crypto::ScopedBackendOverride force(crypto::Backend::kAesni);
    return crypto::Sha256();
  }();
  crypto::ScopedBackendOverride force(crypto::Backend::kPortable);
  EXPECT_EQ(hw.hardware_kernel(), crypto::sha256_hardware_available());
  EXPECT_EQ(crypto::Sha256(hw).hardware_kernel(), hw.hardware_kernel());
}

TEST(Sha256Kernels, ShaNiMatchesScalarAcrossPaddingEdges) {
  if (!crypto::sha256_hardware_available())
    GTEST_SKIP() << "no SHA-NI on this CPU (or not compiled in): the "
                    "SHA-256/HMAC/HKDF vectors ran on the scalar kernel "
                    "only and the scalar-vs-SHA-NI sweep did not run";
  crypto::Rng rng(0x5a256);
  const auto data = rng.bytes(300);
  auto hash_split = [&](crypto::Backend backend, size_t len, size_t split) {
    crypto::ScopedBackendOverride force(backend);
    crypto::Sha256 h;
    h.update({data.data(), split});
    h.update({data.data() + split, len - split});
    return h.final();
  };
  // Padding edges: a tail of up to 55 bytes leaves room for the 0x80
  // and the length in its block, 56..63 spill into a second one (55/56
  // in the first block, 119/120 in the second), and 63/64 straddle a
  // whole-block boundary.
  const size_t kEdges[] = {55, 56, 63, 64, 119, 120};
  for (size_t len = 0; len <= data.size(); ++len) {
    const auto reference = hash_split(crypto::Backend::kPortable, len, 0);
    std::vector<size_t> splits = {0, len, rng.below(len + 1),
                                  rng.below(len + 1)};
    for (size_t edge : kEdges) {
      for (size_t at = edge - 1; at <= edge + 1; ++at)
        if (at <= len) splits.push_back(at);
      // Every split of a message whose length sits on an edge.
      if (len + 1 >= edge && len <= edge + 1)
        for (size_t at = 0; at <= len; ++at) splits.push_back(at);
    }
    for (size_t split : splits) {
      ASSERT_EQ(hash_split(crypto::Backend::kAesni, len, split), reference)
          << "len=" << len << " split=" << split;
      ASSERT_EQ(hash_split(crypto::Backend::kPortable, len, split), reference)
          << "scalar len=" << len << " split=" << split;
    }
  }
}

TEST(Hmac, Rfc4231Case1) {
  std::vector<uint8_t> key(20, 0x0b);
  for (const auto& kernel : sha256_kernels()) {
    crypto::ScopedBackendOverride force(kernel.backend);
    auto mac = crypto::hmac_sha256(key, str_bytes("Hi There"));
    EXPECT_EQ(to_hex(mac),
              "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7")
        << kernel.name;
  }
}

TEST(Hmac, Rfc4231Case2) {
  for (const auto& kernel : sha256_kernels()) {
    crypto::ScopedBackendOverride force(kernel.backend);
    auto mac = crypto::hmac_sha256(str_bytes("Jefe"),
                                   str_bytes("what do ya want for nothing?"));
    EXPECT_EQ(to_hex(mac),
              "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843")
        << kernel.name;
  }
}

TEST(Hmac, Rfc4231Case6LongKey) {
  std::vector<uint8_t> key(131, 0xaa);
  for (const auto& kernel : sha256_kernels()) {
    crypto::ScopedBackendOverride force(kernel.backend);
    auto mac = crypto::hmac_sha256(
        key,
        str_bytes("Test Using Larger Than Block-Size Key - Hash Key First"));
    EXPECT_EQ(to_hex(mac),
              "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54")
        << kernel.name;
  }
}

TEST(Hkdf, Rfc5869Case1) {
  std::vector<uint8_t> ikm(22, 0x0b);
  auto salt = from_hex("000102030405060708090a0b0c");
  auto info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  for (const auto& kernel : sha256_kernels()) {
    crypto::ScopedBackendOverride force(kernel.backend);
    auto prk = crypto::hkdf_extract(salt, ikm);
    EXPECT_EQ(to_hex(prk),
              "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5")
        << kernel.name;
    auto okm = crypto::hkdf_expand(prk, info, 42);
    EXPECT_EQ(to_hex(okm),
              "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
              "34007208d5b887185865")
        << kernel.name;
  }
}

TEST(Hkdf, Rfc5869Case3ZeroSaltInfo) {
  std::vector<uint8_t> ikm(22, 0x0b);
  for (const auto& kernel : sha256_kernels()) {
    crypto::ScopedBackendOverride force(kernel.backend);
    auto prk = crypto::hkdf_extract({}, ikm);
    auto okm = crypto::hkdf_expand(prk, {}, 42);
    EXPECT_EQ(to_hex(okm),
              "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
              "9d201395faa4b61a96c8")
        << kernel.name;
  }
}

TEST(Aes128, Fips197Vector) {
  auto key = from_hex("000102030405060708090a0b0c0d0e0f");
  auto pt = from_hex("00112233445566778899aabbccddeeff");
  crypto::Aes128 aes(key);
  auto ct = aes.encrypt_block(pt);
  EXPECT_EQ(to_hex(ct), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes128Gcm, NistCase1EmptyEverything) {
  crypto::Aes128Gcm gcm(from_hex("00000000000000000000000000000000"));
  auto out = gcm.seal(from_hex("000000000000000000000000"), {}, {});
  EXPECT_EQ(to_hex(out), "58e2fccefa7e3061367f1d57a4e7455a");
}

TEST(Aes128Gcm, NistCase2SingleBlock) {
  crypto::Aes128Gcm gcm(from_hex("00000000000000000000000000000000"));
  auto out = gcm.seal(from_hex("000000000000000000000000"), {},
                      from_hex("00000000000000000000000000000000"));
  EXPECT_EQ(to_hex(out),
            "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf");
}

TEST(Aes128Gcm, NistCase4WithAad) {
  crypto::Aes128Gcm gcm(from_hex("feffe9928665731c6d6a8f9467308308"));
  auto pt = from_hex(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  auto aad = from_hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  auto out = gcm.seal(from_hex("cafebabefacedbaddecaf888"), aad, pt);
  EXPECT_EQ(to_hex(out),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
            "5bc94fbc3221a5db94fae95ae7121a47");
}

TEST(Aes128Gcm, SealOpenRoundTrip) {
  crypto::Rng rng(42);
  crypto::Aes128Gcm gcm(rng.bytes(16));
  auto nonce = rng.bytes(12);
  for (size_t len : {size_t{0}, size_t{1}, size_t{15}, size_t{16}, size_t{17},
                     size_t{100}, size_t{1200}}) {
    auto pt = rng.bytes(len);
    auto aad = rng.bytes(20);
    auto sealed = gcm.seal(nonce, aad, pt);
    auto opened = gcm.open(nonce, aad, sealed);
    ASSERT_TRUE(opened.has_value()) << "len=" << len;
    EXPECT_EQ(*opened, pt);
  }
}

TEST(Aes128Gcm, TamperedCiphertextRejected) {
  crypto::Rng rng(43);
  crypto::Aes128Gcm gcm(rng.bytes(16));
  auto nonce = rng.bytes(12);
  auto sealed = gcm.seal(nonce, {}, rng.bytes(64));
  for (size_t i = 0; i < sealed.size(); i += 7) {
    auto bad = sealed;
    bad[i] ^= 0x01;
    EXPECT_FALSE(gcm.open(nonce, {}, bad).has_value()) << "flip at " << i;
  }
}

TEST(Aes128Gcm, WrongAadRejected) {
  crypto::Rng rng(44);
  crypto::Aes128Gcm gcm(rng.bytes(16));
  auto nonce = rng.bytes(12);
  auto sealed = gcm.seal(nonce, str_bytes("header-a"), rng.bytes(32));
  EXPECT_FALSE(gcm.open(nonce, str_bytes("header-b"), sealed).has_value());
  EXPECT_TRUE(gcm.open(nonce, str_bytes("header-a"), sealed).has_value());
}

TEST(Dh, SharedSecretAgrees) {
  auto a = crypto::dh_generate(123456789);
  auto b = crypto::dh_generate(987654321);
  EXPECT_NE(a.public_value, b.public_value);
  EXPECT_EQ(crypto::dh_shared(a.secret, b.public_value),
            crypto::dh_shared(b.secret, a.public_value));
}

TEST(Dh, RejectsDegeneratePublicValues) {
  auto a = crypto::dh_generate(1);
  EXPECT_THROW(crypto::dh_shared(a.secret, 0), std::invalid_argument);
  EXPECT_THROW(crypto::dh_shared(a.secret, 1), std::invalid_argument);
  EXPECT_THROW(crypto::dh_shared(a.secret, crypto::kDhPrime),
               std::invalid_argument);
}

// The folded reduction against the 128-bit remainder it replaced, on
// the fold's edge values (products near multiples of 2^64 and p) and
// on seeded random operands.
TEST(Dh, FoldedMulMatchesInt128Remainder) {
  using u128 = unsigned __int128;
  auto reference = [](uint64_t a, uint64_t b) {
    return static_cast<uint64_t>(static_cast<u128>(a) * b % crypto::kDhPrime);
  };
  const uint64_t edges[] = {0,  1,  2, 58, 59, 60, uint64_t{1} << 63,
                            (uint64_t{1} << 63) + 1, crypto::kDhPrime - 1};
  for (uint64_t a : edges)
    for (uint64_t b : edges)
      ASSERT_EQ(crypto::mod_mul(a, b), reference(a, b)) << a << " * " << b;
  crypto::Rng rng(0xd1f01d);
  for (int i = 0; i < 1'000'000; ++i) {
    const uint64_t a = rng.below(crypto::kDhPrime);
    const uint64_t b = rng.below(crypto::kDhPrime);
    ASSERT_EQ(crypto::mod_mul(a, b), reference(a, b)) << a << " * " << b;
  }
}

// Public values computed with the 128-bit remainder reduction.
TEST(Dh, GeneratedPublicValuesArePinned) {
  const std::pair<uint64_t, uint64_t> pins[] = {
      {42, 0xf52e487b4bdadce0ull},
      {0x5ca9, 0x849c1550475f3603ull},
      {0x0123456789abcdefull, 0xad5de56be45ec6fbull},
      {0x9e3779b97f4a7c15ull, 0xd2baea79d9c49388ull},
      {0xffffffffffffffffull, 0x3ccb1b5dafb74fbaull},
  };
  for (const auto& [seed, public_value] : pins)
    EXPECT_EQ(crypto::dh_generate(seed).public_value, public_value) << seed;
}

TEST(Dh, EncodeDecodeRoundTrip) {
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{0xdeadbeefcafebabe},
                     crypto::kDhPrime - 1}) {
    EXPECT_EQ(crypto::dh_decode(crypto::dh_encode(v)), v);
  }
}

TEST(Rng, Deterministic) {
  crypto::Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, FillDrawsExactlyLikeBytes) {
  for (size_t n = 0; n <= 40; ++n) {
    crypto::Rng filled_rng(n + 11), bytes_rng(n + 11);
    std::vector<uint8_t> filled(n, 0xa5);
    filled_rng.fill(filled);
    EXPECT_EQ(filled, bytes_rng.bytes(n)) << "n=" << n;
    EXPECT_EQ(filled_rng.next(), bytes_rng.next()) << "n=" << n;
  }
}

TEST(Rng, ForkIndependentOfDrawOrder) {
  crypto::Rng a(7);
  auto child1 = a.fork("alpha");
  crypto::Rng b(7);
  auto child2 = b.fork("alpha");
  EXPECT_EQ(child1.next(), child2.next());
  auto other = b.fork("beta");
  EXPECT_NE(child2.next(), other.next());
}

TEST(Rng, BelowIsInRangeAndCoversValues) {
  crypto::Rng rng(99);
  bool seen[10] = {};
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.below(10);
    ASSERT_LT(v, 10u);
    seen[v] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Rng, WeightedRespectsZeroWeights) {
  crypto::Rng rng(5);
  double weights[] = {0.0, 1.0, 0.0};
  for (int i = 0; i < 200; ++i) EXPECT_EQ(rng.weighted(weights), 1u);
}

TEST(Rng, UniformInUnitInterval) {
  crypto::Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(HkdfExpandLabel, MatchesQuicInitialClientKey) {
  // RFC 9001 Appendix A.1: client_initial_secret for DCID 8394c8f03e515708.
  auto salt = from_hex("38762cf7f55934b34d179ae6a4c80cadccbb7f0a");
  auto dcid = from_hex("8394c8f03e515708");
  auto initial_secret = crypto::hkdf_extract(salt, dcid);
  auto client_secret =
      crypto::hkdf_expand_label(initial_secret, "client in", {}, 32);
  EXPECT_EQ(to_hex(client_secret),
            "c00cf151ca5be075ed0ebfb5c80323c42d6b7db67881289af4008f1f6c357aea");
  auto key = crypto::hkdf_expand_label(client_secret, "quic key", {}, 16);
  EXPECT_EQ(to_hex(key), "1f369613dd76d5467730efcbe3b1a22d");
  auto iv = crypto::hkdf_expand_label(client_secret, "quic iv", {}, 12);
  EXPECT_EQ(to_hex(iv), "fa044b2f42a3fd3b46fb255c");
  auto hp = crypto::hkdf_expand_label(client_secret, "quic hp", {}, 16);
  EXPECT_EQ(to_hex(hp), "9f50449e04a0e810283a1e9933adedd2");
}

TEST(Hkdf, ExpandRejectsOversizedOutput) {
  std::vector<uint8_t> prk(32, 1);
  EXPECT_NO_THROW(crypto::hkdf_expand(prk, {}, 255 * 32));
  EXPECT_THROW(crypto::hkdf_expand(prk, {}, 255 * 32 + 1),
               std::invalid_argument);
}

TEST(Hmac, EmptyKeyAndData) {
  // HMAC with empty key/data is well-defined; pin the vector.
  auto mac = crypto::hmac_sha256({}, {});
  EXPECT_EQ(wire::to_hex(mac),
            "b613679a0814d9ec772f95d778c35fc5ff1697c493715653c6c712144292c5ad");
}

TEST(Rng, RangeInclusiveBounds) {
  crypto::Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    uint64_t v = rng.range(5, 8);
    ASSERT_GE(v, 5u);
    ASSERT_LE(v, 8u);
    if (v == 5) saw_lo = true;
    if (v == 8) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Aes128, RejectsBadKeyAndBlockSizes) {
  std::vector<uint8_t> short_key(8, 0);
  EXPECT_THROW(crypto::Aes128 aes(short_key), std::invalid_argument);
  crypto::Aes128 aes(std::vector<uint8_t>(16, 0));
  std::vector<uint8_t> short_block(8, 0);
  EXPECT_THROW(aes.encrypt_block(std::span<const uint8_t>(short_block)),
               std::invalid_argument);
}

TEST(Aes128Gcm, RejectsBadNonceAndShortCiphertext) {
  crypto::Aes128Gcm gcm(std::vector<uint8_t>(16, 7));
  std::vector<uint8_t> bad_nonce(8, 0);
  EXPECT_THROW(gcm.seal(bad_nonce, {}, {}), std::invalid_argument);
  std::vector<uint8_t> nonce(12, 0);
  std::vector<uint8_t> too_short(8, 0);
  EXPECT_FALSE(gcm.open(nonce, {}, too_short).has_value());
}


// ---------------------------------------------------------------------------
// Backend-dispatch battery: every available kernel backend (portable,
// and aesni when the host has the ISA) must produce byte-identical
// ciphertext and tags. The KAT vectors are NIST CAVP gcmEncryptExtIV128
// entries plus the McGrew-Viega GCM test cases the earlier Aes128Gcm
// tests already pin for the default backend.

std::vector<crypto::Backend> available_backends() {
  std::vector<crypto::Backend> backends = {crypto::Backend::kPortable};
  if (crypto::backend_available(crypto::Backend::kAesni))
    backends.push_back(crypto::Backend::kAesni);
  return backends;
}

struct GcmKat {
  const char* name;
  const char* key;
  const char* iv;
  const char* aad;
  const char* pt;
  const char* ct;  // ciphertext without the tag
  const char* tag;
};

// CAVP gcmEncryptExtIV128.rsp entries (96-bit IV sections) plus
// McGrew-Viega cases 2-4; between them they cover empty-everything,
// AAD-only, PT-only, block-aligned, multi-block and ragged-tail shapes.
const GcmKat kGcmKats[] = {
    {"cavp_pt0_aad0", "11754cd72aec309bf52f7687212e8957",
     "3c819d9a9bed087615030b65", "", "", "",
     "250327c674aaf477aef2675748cf6971"},
    {"cavp_pt0_aad16", "77be63708971c4e240d1cb79e8d77feb",
     "e0e00f19fed7ba0136a797f3", "7a43ec1d9c0a5a78a0b16533a6213cab", "", "",
     "209fcc8d3675ed938e9c7166709dd946"},
    {"cavp_pt16_aad0", "7fddb57453c241d03efbed3ac44e371c",
     "ee283a3fc75575e33efd4887", "", "d5de42b461646c255c87bd2962d3b9a2",
     "2ccda4a5415cb91e135c2a0f78c9b2fd", "b36d1df9b9d5e596f83e8b7f52971cb3"},
    {"cavp_pt16_aad16", "c939cc13397c1d37de6ae0e1cb7c423c",
     "b3d8cc017cbb89b39e0f67e2", "24825602bd12a984e0092d3e448eda5f",
     "c3b3c41f113a31b73d9a5cd432103069", "93fe7d9e9bfd10348a5606e5cafa7354",
     "0032a1dc85f1c9786925a2e71d8272dd"},
    {"mcgrew_case2", "00000000000000000000000000000000",
     "000000000000000000000000", "", "00000000000000000000000000000000",
     "0388dace60b6a392f328c2b971b2fe78", "ab6e47d42cec13bdf53a67b21257bddf"},
    {"mcgrew_case3", "feffe9928665731c6d6a8f9467308308",
     "cafebabefacedbaddecaf888", "",
     "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
     "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
     "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
     "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
     "4d5c2af327cd64a62cf35abd2ba6fab4"},
    {"mcgrew_case4", "feffe9928665731c6d6a8f9467308308",
     "cafebabefacedbaddecaf888", "feedfacedeadbeeffeedfacedeadbeefabaddad2",
     "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
     "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
     "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
     "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
     "5bc94fbc3221a5db94fae95ae7121a47"},
};

TEST(Aes128GcmBackends, CavpEncryptKats) {
  for (crypto::Backend backend : available_backends()) {
    crypto::ScopedBackendOverride force(backend);
    for (const GcmKat& kat : kGcmKats) {
      SCOPED_TRACE(std::string(crypto::backend_name(backend)) + "/" +
                   kat.name);
      crypto::Aes128Gcm gcm(from_hex(kat.key));
      EXPECT_EQ(gcm.backend(), backend);
      auto sealed =
          gcm.seal(from_hex(kat.iv), from_hex(kat.aad), from_hex(kat.pt));
      EXPECT_EQ(to_hex(sealed), std::string(kat.ct) + kat.tag);
    }
  }
}

TEST(Aes128GcmBackends, CavpDecryptKats) {
  for (crypto::Backend backend : available_backends()) {
    crypto::ScopedBackendOverride force(backend);
    for (const GcmKat& kat : kGcmKats) {
      SCOPED_TRACE(std::string(crypto::backend_name(backend)) + "/" +
                   kat.name);
      crypto::Aes128Gcm gcm(from_hex(kat.key));
      auto sealed = from_hex(std::string(kat.ct) + kat.tag);
      auto opened = gcm.open(from_hex(kat.iv), from_hex(kat.aad), sealed);
      ASSERT_TRUE(opened.has_value());
      EXPECT_EQ(to_hex(*opened), kat.pt);
      // Any single flipped bit -- ciphertext, or either tag half --
      // must fail authentication.
      for (size_t at : {size_t{0}, sealed.size() - 16, sealed.size() - 1}) {
        auto bad = sealed;
        bad[at] ^= 0x80;
        EXPECT_FALSE(
            gcm.open(from_hex(kat.iv), from_hex(kat.aad), bad).has_value())
            << "flip at " << at;
      }
    }
  }
}

TEST(Aes128GcmBackends, CavpDecryptTagOnlyVector) {
  // CAVP gcmDecrypt128.rsp entry: ciphertext is just a 16-byte tag over
  // the empty plaintext. Every backend must authenticate it, and reject
  // the same tag under a different key or with any byte disturbed.
  const auto iv = from_hex("113b9785971864c83b01c787");
  const auto tag = from_hex("72ac8493e3a5228b5d130a69d2510e42");
  for (crypto::Backend backend : available_backends()) {
    crypto::ScopedBackendOverride force(backend);
    SCOPED_TRACE(crypto::backend_name(backend));
    crypto::Aes128Gcm gcm(from_hex("cf063a34d4a9a76c2c86787d3f96db71"));
    auto opened = gcm.open(iv, {}, tag);
    ASSERT_TRUE(opened.has_value());
    EXPECT_TRUE(opened->empty());

    auto bad_tag = tag;
    bad_tag[3] ^= 0x04;
    EXPECT_FALSE(gcm.open(iv, {}, bad_tag).has_value());
    crypto::Aes128Gcm wrong_key(from_hex("cf063a34d4a9a76c2c86787d3f96db72"));
    EXPECT_FALSE(wrong_key.open(iv, {}, tag).has_value());
  }
}

TEST(Aes128GcmBackends, AllBackendsByteIdentical) {
  // Differential sweep: portable is the reference; every other backend
  // must agree on ciphertext, tag, and open() for lengths that cover
  // the batched kernels' 64-byte main loop, its ragged tail, and the
  // short path (plus QUIC's typical 1200-byte datagram).
  crypto::Rng rng(0x9000);
  for (size_t len : {size_t{0}, size_t{1}, size_t{16}, size_t{48}, size_t{63},
                     size_t{64}, size_t{65}, size_t{127}, size_t{128},
                     size_t{300}, size_t{1200}}) {
    auto key = rng.bytes(16);
    auto nonce = rng.bytes(12);
    auto aad = rng.bytes(len % 32);
    auto pt = rng.bytes(len);

    std::optional<std::vector<uint8_t>> reference;
    for (crypto::Backend backend : available_backends()) {
      crypto::ScopedBackendOverride force(backend);
      SCOPED_TRACE(std::string(crypto::backend_name(backend)) + "/len=" +
                   std::to_string(len));
      crypto::Aes128Gcm gcm(key);
      auto sealed = gcm.seal(nonce, aad, pt);
      if (!reference) {
        reference = sealed;
      } else {
        EXPECT_EQ(to_hex(sealed), to_hex(*reference));
      }
      auto opened = gcm.open(nonce, aad, sealed);
      ASSERT_TRUE(opened.has_value());
      EXPECT_EQ(*opened, pt);
    }
  }
}

TEST(Aes128Backends, Encrypt4MatchesSingleBlocks) {
  crypto::Rng rng(0x51);
  auto key = rng.bytes(16);
  auto in = rng.bytes(64);
  for (crypto::Backend backend : available_backends()) {
    crypto::ScopedBackendOverride force(backend);
    SCOPED_TRACE(crypto::backend_name(backend));
    crypto::Aes128 aes(key);
    uint8_t batched[64];
    aes.encrypt4_blocks(in.data(), batched);
    for (int b = 0; b < 4; ++b) {
      uint8_t one[16];
      aes.encrypt_block(in.data() + 16 * b, one);
      EXPECT_EQ(std::memcmp(one, batched + 16 * b, 16), 0) << "block " << b;
    }
  }
}

TEST(CryptoCpu, ParseBackendNamesAndOverride) {
  EXPECT_EQ(crypto::parse_backend("portable"), crypto::Backend::kPortable);
  // "auto" names no backend: the environment, then the probe, decide.
  EXPECT_EQ(crypto::parse_backend("auto"), std::nullopt);
  EXPECT_THROW(crypto::parse_backend("sse9000"), std::invalid_argument);
  EXPECT_THROW(crypto::parse_backend(""), std::invalid_argument);
  if (!crypto::backend_available(crypto::Backend::kAesni)) {
    EXPECT_THROW(crypto::parse_backend("aesni"), std::invalid_argument);
  }

  EXPECT_TRUE(crypto::backend_available(crypto::best_backend()));
  for (crypto::Backend backend : available_backends()) {
    EXPECT_EQ(crypto::parse_backend(crypto::backend_name(backend)), backend);
    crypto::ScopedBackendOverride force(backend);
    EXPECT_EQ(crypto::resolve_backend(), backend);
  }
  EXPECT_FALSE(crypto::backend_override().has_value());
}

// --- HmacKey: cached ipad/opad midstates ---------------------------------

// RFC 2104 written out over crypto::Sha256, with fresh pads on every
// call: the model HmacKey and its wrappers are held to.
crypto::Sha256Digest reference_hmac(std::span<const uint8_t> key,
                                    std::span<const uint8_t> data) {
  std::array<uint8_t, 64> k{};
  if (key.size() > 64) {
    auto d = crypto::Sha256::hash(key);
    std::copy(d.begin(), d.end(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }
  std::array<uint8_t, 64> ipad, opad;
  for (size_t i = 0; i < 64; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  crypto::Sha256 inner;
  inner.update(ipad);
  inner.update(data);
  auto inner_digest = inner.final();
  crypto::Sha256 outer;
  outer.update(opad);
  outer.update(inner_digest);
  return outer.final();
}

TEST(HmacKey, MatchesReferenceAcrossKeyAndDataLengths) {
  // Key lengths 0-200 cross the 64-byte block (longer keys are hashed
  // first); data lengths 0-200 cross the 55/56/64 padding edges of the
  // resumed inner hash. Each sweeps against a spread of the other.
  crypto::Rng rng(0x2104);
  const auto bytes = rng.bytes(200);
  auto prefix = [&](size_t n) { return std::span(bytes).first(n); };
  for (const auto& kernel : sha256_kernels()) {
    crypto::ScopedBackendOverride force(kernel.backend);
    SCOPED_TRACE(kernel.name);
    for (size_t key_len = 0; key_len <= 200; ++key_len) {
      crypto::HmacKey key(prefix(key_len));
      for (size_t data_len : {size_t{0}, size_t{1}, size_t{55}, size_t{56},
                              size_t{64}, size_t{119}, key_len}) {
        auto data = std::span(bytes).last(data_len);
        ASSERT_EQ(to_hex(key.mac(data)),
                  to_hex(reference_hmac(prefix(key_len), data)))
            << "key_len=" << key_len << " data_len=" << data_len;
      }
    }
    for (size_t data_len = 0; data_len <= 200; ++data_len) {
      auto data = prefix(data_len);
      for (size_t key_len : {size_t{0}, size_t{20}, size_t{32}, size_t{63},
                             size_t{64}, size_t{65}, size_t{131}}) {
        auto key = std::span(bytes).last(key_len);
        auto expected = to_hex(reference_hmac(key, data));
        ASSERT_EQ(to_hex(crypto::HmacKey(key).mac(data)), expected)
            << "key_len=" << key_len << " data_len=" << data_len;
        ASSERT_EQ(to_hex(crypto::hmac_sha256(key, data)), expected);
        // The multi-part form streams the same bytes.
        const size_t split = data_len / 3;
        ASSERT_EQ(to_hex(crypto::HmacKey(key).mac(
                      {data.first(split), data.subspan(split, split),
                       data.subspan(2 * split)})),
                  expected)
            << "key_len=" << key_len << " data_len=" << data_len;
      }
    }
  }
}

TEST(HmacKey, ReusedKeyMatchesFreshKeys) {
  // mac() is const: one key MACs many messages exactly as a fresh key
  // per message would, in any order.
  crypto::Rng rng(0x5eed);
  for (const auto& kernel : sha256_kernels()) {
    crypto::ScopedBackendOverride force(kernel.backend);
    SCOPED_TRACE(kernel.name);
    auto secret = rng.bytes(32);
    const crypto::HmacKey key(secret);
    std::vector<std::vector<uint8_t>> messages;
    for (int i = 0; i < 40; ++i) messages.push_back(rng.bytes(rng.below(150)));
    std::vector<std::string> first_pass;
    for (const auto& m : messages) {
      first_pass.push_back(to_hex(key.mac(m)));
      EXPECT_EQ(first_pass.back(), to_hex(crypto::HmacKey(secret).mac(m)));
      EXPECT_EQ(first_pass.back(), to_hex(reference_hmac(secret, m)));
    }
    for (size_t i = messages.size(); i-- > 0;)
      EXPECT_EQ(to_hex(key.mac(messages[i])), first_pass[i]) << "message " << i;
  }
}

TEST(HmacKey, KeyBuiltUnderOneKernelRunsTheForcedOne) {
  if (!crypto::sha256_hardware_available())
    GTEST_SKIP() << "no SHA-NI on this CPU (or not compiled in): one "
                    "kernel only";
  const auto secret = from_hex("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b");
  const auto data = str_bytes("Hi There");
  const std::string rfc4231_case1 =
      "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7";
  auto build = [&](crypto::Backend backend) {
    crypto::ScopedBackendOverride force(backend);
    return crypto::HmacKey(secret);
  };
  const crypto::HmacKey built_hw = build(crypto::Backend::kAesni);
  const crypto::HmacKey built_scalar = build(crypto::Backend::kPortable);
  for (const crypto::HmacKey* key : {&built_hw, &built_scalar}) {
    {
      crypto::ScopedBackendOverride force(crypto::Backend::kPortable);
      EXPECT_FALSE(crypto::HmacKeyTestPeer::runs_hardware_kernel(*key));
      EXPECT_EQ(to_hex(key->mac(data)), rfc4231_case1);
    }
    crypto::ScopedBackendOverride force(crypto::Backend::kAesni);
    EXPECT_TRUE(crypto::HmacKeyTestPeer::runs_hardware_kernel(*key));
    EXPECT_EQ(to_hex(key->mac(data)), rfc4231_case1);
  }
}

TEST(Hkdf, ExpandMatchesReferenceLoopAcrossBlocks) {
  // RFC 5869 section 2.3: T(i) = HMAC(PRK, T(i-1) || info || i).
  crypto::Rng rng(0x5869);
  const auto prk = rng.bytes(32);
  const auto info = rng.bytes(23);
  for (const auto& kernel : sha256_kernels()) {
    crypto::ScopedBackendOverride force(kernel.backend);
    SCOPED_TRACE(kernel.name);
    for (size_t length : {size_t{1}, size_t{32}, size_t{33}, size_t{64},
                          size_t{255 * 32}}) {
      std::vector<uint8_t> expected;
      std::vector<uint8_t> t;
      for (uint8_t i = 1; expected.size() < length; ++i) {
        std::vector<uint8_t> block = t;
        block.insert(block.end(), info.begin(), info.end());
        block.push_back(i);
        auto d = reference_hmac(prk, block);
        t.assign(d.begin(), d.end());
        expected.insert(expected.end(), t.begin(), t.end());
      }
      expected.resize(length);
      EXPECT_EQ(crypto::hkdf_expand(prk, info, length), expected)
          << "length=" << length;
    }
  }
}

TEST(HkdfExpandLabel, RejectsLabelAndContextLengthsItCannotEncode) {
  // RFC 8446 section 7.1: opaque label<7..255> holds "tls13 " plus the
  // label, so 249 bytes is the longest label; context<0..255>.
  const std::vector<uint8_t> secret(32, 0x42);
  const crypto::HmacKey key(secret);
  const std::vector<uint8_t> context_255(255, 0x01);
  const std::vector<uint8_t> context_256(256, 0x01);
  std::array<uint8_t, 32> out;
  EXPECT_NO_THROW(
      crypto::hkdf_expand_label(secret, std::string(249, 'x'), {}, 32));
  EXPECT_THROW(crypto::hkdf_expand_label(secret, std::string(250, 'x'), {}, 32),
               std::invalid_argument);
  EXPECT_NO_THROW(crypto::hkdf_expand_label(secret, "l", context_255, 32));
  EXPECT_THROW(crypto::hkdf_expand_label(secret, "l", context_256, 32),
               std::invalid_argument);
  EXPECT_NO_THROW(
      crypto::hkdf_expand_label(key, std::string(249, 'x'), {}, out));
  EXPECT_THROW(crypto::hkdf_expand_label(key, std::string(250, 'x'), {}, out),
               std::invalid_argument);
  EXPECT_NO_THROW(crypto::hkdf_expand_label(key, "l", context_255, out));
  EXPECT_THROW(crypto::hkdf_expand_label(key, "l", context_256, out),
               std::invalid_argument);
  // The longest label still encodes its length byte: 6 + 249 = 0xff.
  std::vector<uint8_t> info = {0x00, 0x20, 0xff};
  const std::string tls13_label = "tls13 " + std::string(249, 'x');
  info.insert(info.end(), tls13_label.begin(), tls13_label.end());
  info.push_back(0x00);
  EXPECT_EQ(crypto::hkdf_expand_label(secret, std::string(249, 'x'), {}, 32),
            crypto::hkdf_expand(secret, info, 32));
}

// --- AEAD contexts: copies, moves and size ---------------------------------

TEST(Aes128GcmContexts, CopiesAndMovesSealLikeAFreshContext) {
  crypto::Rng rng(0x6c3);
  const auto key = rng.bytes(16);
  const auto nonce = rng.bytes(12);
  const auto aad = rng.bytes(20);
  const auto pt = rng.bytes(300);
  for (crypto::Backend backend : available_backends()) {
    crypto::ScopedBackendOverride force(backend);
    SCOPED_TRACE(crypto::backend_name(backend));
    const crypto::Aes128Gcm fresh(key);
    const auto sealed = fresh.seal(nonce, aad, pt);

    crypto::Aes128Gcm source(key);
    crypto::Aes128Gcm copied(source);
    crypto::Aes128Gcm copy_assigned(rng.bytes(16));
    copy_assigned = source;
    crypto::Aes128Gcm moved(std::move(source));
    crypto::Aes128Gcm move_assigned(rng.bytes(16));
    move_assigned = crypto::Aes128Gcm(key);
    for (const crypto::Aes128Gcm* gcm :
         {&copied, &copy_assigned, &moved, &move_assigned}) {
      EXPECT_EQ(gcm->backend(), backend);
      EXPECT_EQ(to_hex(gcm->seal(nonce, aad, pt)), to_hex(sealed));
      auto opened = gcm->open(nonce, aad, sealed);
      ASSERT_TRUE(opened.has_value());
      EXPECT_EQ(*opened, pt);
    }
  }
}

TEST(Aes128GcmContexts, ContextStaysSmall) {
  // The portable backend's 4 KiB GHASH table lives on the heap; an
  // inline table would put the context back above 4 KiB.
  EXPECT_LE(sizeof(crypto::Aes128Gcm), 512u);
}

}  // namespace
