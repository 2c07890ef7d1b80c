// SHA-256 block kernels, internal to src/crypto: sha256.cpp holds the
// scalar kernel and picks one per Sha256 object (see crypto/cpu.h); the
// SHA-NI kernel lives in its own translation unit, sha256_shani.cpp,
// compiled with per-file -msha -mssse3 -msse4.1 (the aesni.cpp
// arrangement), so no other object emits those instructions.
//
// The SHA-NI declaration exists on every platform; its definition is
// only compiled when CMake detects the ISA flags (QREPRO_HAVE_SHANI) --
// never call it unless sha256_hardware_available() is true.
#pragma once

#include <cstddef>
#include <cstdint>

namespace crypto::sha256_kernel {

/// FIPS 180-4 section 4.2.2 round constants, 16-byte aligned so the
/// SHA-NI kernel loads them four rounds at a time.
alignas(16) inline constexpr uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

/// SHA-256 compression over `count` consecutive 64-byte blocks,
/// updating the working state H0..H7 in place. Word-for-word identical
/// to the scalar kernel.
void shani(uint32_t state[8], const uint8_t* blocks, size_t count);

}  // namespace crypto::sha256_kernel
