// SHA-NI SHA-256 block kernel. This file is compiled with -msha -mssse3
// -msse4.1 (per-file, see CMakeLists.txt); nothing outside may assume
// those ISA extensions, and sha256.cpp only enters it behind
// crypto/cpu.cpp's CPUID gate.
#ifdef QREPRO_HAVE_SHANI

#include <immintrin.h>

#include "crypto/sha256_kernel.h"

namespace crypto::sha256_kernel {

namespace {

// Loads 16 message bytes as four big-endian words.
inline __m128i load_be(const uint8_t* p) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  return _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)),
                          kByteSwap);
}

// Four rounds: SHA256RNDS2 does two rounds on the (ABEF, CDGH) register
// pair with W+K in the low two lanes, so the high pair is shifted down
// for the second half.
inline void rounds4(__m128i& abef, __m128i& cdgh, __m128i w, int group) {
  const __m128i wk = _mm_add_epi32(
      w, _mm_load_si128(
             reinterpret_cast<const __m128i*>(&kRoundConstants[4 * group])));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
}

// Message schedule: W[t..t+3] from W[t-16..t-1] held four per register.
// MSG1 adds sigma0(W[t-15]) to W[t-16], the alignr supplies W[t-7], and
// MSG2 adds sigma1(W[t-2]), including the two words it just produced.
inline __m128i schedule(__m128i w0, __m128i w1, __m128i w2, __m128i w3) {
  const __m128i t =
      _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(t, w3);
}

}  // namespace

void shani(uint32_t state[8], const uint8_t* blocks, size_t count) {
  // The round instructions keep the state as ABEF / CDGH lane pairs.
  const __m128i dcba =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (; count > 0; --count, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w0 = load_be(blocks);
    __m128i w1 = load_be(blocks + 16);
    __m128i w2 = load_be(blocks + 32);
    __m128i w3 = load_be(blocks + 48);
    rounds4(abef, cdgh, w0, 0);
    rounds4(abef, cdgh, w1, 1);
    rounds4(abef, cdgh, w2, 2);
    rounds4(abef, cdgh, w3, 3);
    for (int group = 4; group < 16; group += 4) {
      w0 = schedule(w0, w1, w2, w3);
      rounds4(abef, cdgh, w0, group);
      w1 = schedule(w1, w2, w3, w0);
      rounds4(abef, cdgh, w1, group + 1);
      w2 = schedule(w2, w3, w0, w1);
      rounds4(abef, cdgh, w2, group + 2);
      w3 = schedule(w3, w0, w1, w2);
      rounds4(abef, cdgh, w3, group + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

}  // namespace crypto::sha256_kernel

#endif  // QREPRO_HAVE_SHANI
