// TLS record layer (RFC 8446 section 5) used on the TCP path of the
// simulation. Handshake flights before key establishment travel as
// plaintext handshake records; everything after is sealed AES-128-GCM
// TLSInnerPlaintext under the negotiated traffic keys.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "crypto/aes.h"
#include "tls/key_schedule.h"
#include "tls/types.h"
#include "wire/buffer.h"

namespace tls {

enum class ContentType : uint8_t {
  kAlert = 21,
  kHandshake = 22,
  kApplicationData = 23,
};

struct Record {
  ContentType type = ContentType::kHandshake;
  uint16_t legacy_version = 0x0303;
  std::vector<uint8_t> payload;
};

std::vector<uint8_t> encode_record(const Record& record);

/// Appends a plaintext record of `type` carrying `payload` to `out`
/// without building a Record (the hot path builds multi-record flights
/// in one buffer this way).
void encode_record_into(ContentType type, std::span<const uint8_t> payload,
                        std::vector<uint8_t>& out,
                        uint16_t legacy_version = kVersion12);

/// Splits a byte stream into records; throws wire::DecodeError on a
/// truncated stream.
std::vector<Record> decode_records(std::span<const uint8_t> stream);

/// Seals/opens TLS 1.3 records for one direction. Sequence numbers are
/// managed internally (RFC 8446 section 5.3: nonce = iv XOR seq). Like
/// quic::PacketProtector, the AEAD context lives as long as the
/// crypter: one key schedule + GHASH material per traffic secret.
class RecordCrypter {
 public:
  explicit RecordCrypter(const TrafficKeys& keys);

  /// Appends one encrypted record carrying `payload` of `inner_type`
  /// to `out`. `payload` must not alias `out`.
  void seal_into(ContentType inner_type, std::span<const uint8_t> payload,
                 std::vector<uint8_t>& out);

  /// Produces one encrypted record carrying `payload` of `inner_type`.
  std::vector<uint8_t> seal(ContentType inner_type,
                            std::span<const uint8_t> payload);

  struct Opened {
    ContentType type;
    std::vector<uint8_t> payload;
  };
  /// Opens one encrypted record (outer type must be application_data).
  std::optional<Opened> open(const Record& record);

 private:
  std::array<uint8_t, crypto::kGcmIvSize> nonce_for(uint64_t seq) const;
  crypto::Aes128Gcm gcm_;
  AeadIv iv_;
  uint64_t seal_seq_ = 0;
  uint64_t open_seq_ = 0;
  // TLSInnerPlaintext scratch (payload || content type), reused across
  // seals so steady-state records allocate nothing.
  std::vector<uint8_t> scratch_inner_;
};

}  // namespace tls
