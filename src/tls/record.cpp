#include "tls/record.h"

#include "crypto/aes.h"

namespace tls {

void encode_record_into(ContentType type, std::span<const uint8_t> payload,
                        std::vector<uint8_t>& out, uint16_t legacy_version) {
  wire::append_u8(out, static_cast<uint8_t>(type));
  wire::append_u16(out, legacy_version);
  wire::append_u16(out, static_cast<uint16_t>(payload.size()));
  wire::append_bytes(out, payload);
}

std::vector<uint8_t> encode_record(const Record& record) {
  std::vector<uint8_t> out;
  out.reserve(5 + record.payload.size());
  encode_record_into(record.type, record.payload, out, record.legacy_version);
  return out;
}

std::vector<Record> decode_records(std::span<const uint8_t> stream) {
  // Count the records first (their headers give the lengths), so the
  // vector is sized once; a truncated stream throws below.
  size_t count = 0;
  for (size_t at = 0; at + 5 <= stream.size(); ++count)
    at += 5 + wire::load_u16be(stream.data() + at + 3);
  std::vector<Record> out;
  out.reserve(count);
  wire::Reader r(stream);
  while (!r.done()) {
    Record rec;
    rec.type = static_cast<ContentType>(r.u8());
    rec.legacy_version = r.u16();
    rec.payload = r.bytes_copy(r.u16());
    out.push_back(std::move(rec));
  }
  return out;
}

RecordCrypter::RecordCrypter(const TrafficKeys& keys)
    : gcm_(keys.key), iv_(keys.iv) {}

std::array<uint8_t, crypto::kGcmIvSize> RecordCrypter::nonce_for(
    uint64_t seq) const {
  std::array<uint8_t, crypto::kGcmIvSize> nonce = iv_;
  for (int i = 0; i < 8; ++i)
    nonce[nonce.size() - 1 - static_cast<size_t>(i)] ^=
        static_cast<uint8_t>(seq >> (8 * i));
  return nonce;
}

void RecordCrypter::seal_into(ContentType inner_type,
                              std::span<const uint8_t> payload,
                              std::vector<uint8_t>& out) {
  scratch_inner_.reserve(payload.size() + 1);
  scratch_inner_.assign(payload.begin(), payload.end());
  scratch_inner_.push_back(static_cast<uint8_t>(inner_type));
  // Additional data is the record header with the ciphertext length,
  // which is also the plaintext record header we emit.
  size_t ct_len = scratch_inner_.size() + crypto::kGcmTagSize;
  uint8_t header[5] = {static_cast<uint8_t>(ContentType::kApplicationData),
                       0x03, 0x03, static_cast<uint8_t>(ct_len >> 8),
                       static_cast<uint8_t>(ct_len)};
  wire::append_bytes(out, header);
  gcm_.seal_append(nonce_for(seal_seq_++), header, scratch_inner_, out);
}

std::vector<uint8_t> RecordCrypter::seal(ContentType inner_type,
                                         std::span<const uint8_t> payload) {
  std::vector<uint8_t> out;
  out.reserve(5 + payload.size() + 1 + crypto::kGcmTagSize);
  seal_into(inner_type, payload, out);
  return out;
}

std::optional<RecordCrypter::Opened> RecordCrypter::open(
    const Record& record) {
  if (record.type != ContentType::kApplicationData) return std::nullopt;
  uint8_t aad[5] = {static_cast<uint8_t>(ContentType::kApplicationData), 0x03,
                    0x03, static_cast<uint8_t>(record.payload.size() >> 8),
                    static_cast<uint8_t>(record.payload.size())};
  auto inner = gcm_.open(nonce_for(open_seq_), {aad, 5}, record.payload);
  if (!inner) return std::nullopt;
  ++open_seq_;
  // Strip zero padding, then the real content type (RFC 8446 5.4).
  while (!inner->empty() && inner->back() == 0) inner->pop_back();
  if (inner->empty()) return std::nullopt;
  Opened opened;
  opened.type = static_cast<ContentType>(inner->back());
  inner->pop_back();
  opened.payload = std::move(*inner);
  return opened;
}

}  // namespace tls
