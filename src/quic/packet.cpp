#include "quic/packet.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace quic {

namespace {

constexpr size_t kPnLen = 2;
constexpr size_t kHpSampleSize = 16;

// Long header type bits (RFC 9000 section 17.2).
constexpr uint8_t long_type_bits(PacketType type) {
  switch (type) {
    case PacketType::kInitial: return 0x0;
    case PacketType::kZeroRtt: return 0x1;
    case PacketType::kHandshake: return 0x2;
    case PacketType::kRetry: return 0x3;
    default: throw std::logic_error("not a long-header type");
  }
}

PacketType type_from_bits(uint8_t bits) {
  switch (bits & 0x3) {
    case 0x0: return PacketType::kInitial;
    case 0x1: return PacketType::kZeroRtt;
    case 0x2: return PacketType::kHandshake;
    default: return PacketType::kRetry;
  }
}

}  // namespace

std::optional<DatagramInfo> peek_datagram(std::span<const uint8_t> datagram) {
  if (datagram.empty()) return std::nullopt;
  DatagramInfo info;
  info.payload_bytes = datagram.size();
  uint8_t first = datagram[0];
  info.long_header = first & 0x80;
  info.fixed_bit = first & 0x40;
  try {
    wire::Reader r(datagram);
    r.u8();
    if (info.long_header) {
      info.version = r.u32();
      info.type = info.version == 0 ? PacketType::kVersionNegotiation
                                    : type_from_bits(first >> 4);
      size_t dcid_len = r.u8();
      if (dcid_len > 20 && info.version != 0) return std::nullopt;
      info.dcid = r.bytes_copy(dcid_len);
      size_t scid_len = r.u8();
      if (scid_len > 20 && info.version != 0) return std::nullopt;
      info.scid = r.bytes_copy(scid_len);
    } else {
      info.type = PacketType::kOneRtt;
      // Short headers carry no DCID length; the simulation uses 8-byte
      // connection IDs uniformly.
      info.dcid = r.bytes_copy(8);
    }
  } catch (const wire::DecodeError&) {
    return std::nullopt;
  }
  return info;
}

std::vector<uint8_t> encode_version_negotiation(
    const VersionNegotiationPacket& vn, uint8_t random_bits) {
  wire::Writer w;
  // Header form 1, remaining 7 bits unused/random (RFC 9000 s. 17.2.1).
  w.u8(0x80 | (random_bits & 0x7f));
  w.u32(0);  // version 0 identifies VN
  w.u8(static_cast<uint8_t>(vn.dcid.size()));
  w.bytes(vn.dcid);
  w.u8(static_cast<uint8_t>(vn.scid.size()));
  w.bytes(vn.scid);
  for (Version v : vn.supported_versions) w.u32(v);
  return w.take();
}

std::optional<VersionNegotiationPacket> decode_version_negotiation(
    std::span<const uint8_t> datagram) {
  try {
    wire::Reader r(datagram);
    uint8_t first = r.u8();
    if (!(first & 0x80)) return std::nullopt;
    if (r.u32() != 0) return std::nullopt;
    VersionNegotiationPacket vn;
    vn.dcid = r.bytes_copy(r.u8());
    vn.scid = r.bytes_copy(r.u8());
    while (!r.done()) vn.supported_versions.push_back(r.u32());
    if (vn.supported_versions.empty()) return std::nullopt;
    return vn;
  } catch (const wire::DecodeError&) {
    return std::nullopt;
  }
}

namespace {

// The three version families that differ in their Initial salt and
// Retry integrity key: v1 and draft-33 or later, drafts 29-32, and
// draft 28 or earlier. Each table below is indexed by this.
size_t version_family(Version version) {
  // v1 and any non-draft version in the simulation use the RFC values.
  if (!is_ietf_draft(version)) return 0;
  int n = static_cast<int>(version & 0xff);
  if (n >= 33) return 0;
  if (n >= 29) return 1;
  return 2;
}

// RFC 9001 section 5.2 (v1 / draft-33+), draft-ietf-quic-tls-29..32 and
// draft-ietf-quic-tls-23..28, in that order.
constexpr uint8_t kInitialSalts[3][20] = {
    {0x38, 0x76, 0x2c, 0xf7, 0xf5, 0x59, 0x34, 0xb3, 0x4d, 0x17,
     0x9a, 0xe6, 0xa4, 0xc8, 0x0c, 0xad, 0xcc, 0xbb, 0x7f, 0x0a},
    {0xaf, 0xbf, 0xec, 0x28, 0x99, 0x93, 0xd2, 0x4c, 0x9e, 0x97,
     0x86, 0xf1, 0x9c, 0x61, 0x11, 0xe0, 0x43, 0x90, 0xa8, 0x99},
    {0xc3, 0xee, 0xf7, 0x12, 0xc7, 0x2e, 0xbb, 0x5a, 0x11, 0xa7,
     0xd2, 0x43, 0x2b, 0xb4, 0x63, 0x65, 0xbe, 0xf9, 0xf5, 0x02},
};

// initial_secret = HKDF-Extract(salt, client_dcid), as a key for the
// "client in" / "server in" expansions. The salts are constants, so
// their HMAC keys are built once per process.
crypto::HmacKey initial_secret_key(Version version,
                                   std::span<const uint8_t> client_dcid) {
  static const crypto::HmacKey kSaltKeys[3] = {
      crypto::HmacKey(kInitialSalts[0]), crypto::HmacKey(kInitialSalts[1]),
      crypto::HmacKey(kInitialSalts[2])};
  return crypto::HmacKey(kSaltKeys[version_family(version)].mac(client_dcid));
}

}  // namespace

std::span<const uint8_t> initial_salt(Version version) {
  return kInitialSalts[version_family(version)];
}

InitialSecrets derive_initial_secrets(Version version,
                                      std::span<const uint8_t> client_dcid) {
  const auto initial = initial_secret_key(version, client_dcid);
  InitialSecrets secrets;
  crypto::hkdf_expand_label(initial, "client in", {}, secrets.client);
  crypto::hkdf_expand_label(initial, "server in", {}, secrets.server);
  return secrets;
}

namespace {

const tls::AeadKey& require_hp(const tls::TrafficKeys& keys) {
  if (!keys.hp)
    throw std::invalid_argument(
        "PacketProtector requires QUIC keys (hp missing)");
  return *keys.hp;
}

}  // namespace

PacketProtector::PacketProtector(const tls::TrafficKeys& keys)
    : aead_(keys.key), hp_(require_hp(keys)), iv_(keys.iv) {}

PacketProtector PacketProtector::for_initial(
    Version version, std::span<const uint8_t> client_dcid, bool is_server) {
  crypto::Sha256Digest secret{};  // this direction's only
  crypto::hkdf_expand_label(initial_secret_key(version, client_dcid),
                            is_server ? "server in" : "client in", {}, secret);
  return PacketProtector(tls::derive_traffic_keys(secret,
                                                  tls::KeyUsage::kQuic));
}

std::array<uint8_t, crypto::kGcmIvSize> PacketProtector::nonce_for(
    uint64_t pn) const {
  std::array<uint8_t, crypto::kGcmIvSize> nonce = iv_;
  for (int i = 0; i < 8; ++i)
    nonce[nonce.size() - 1 - static_cast<size_t>(i)] ^=
        static_cast<uint8_t>(pn >> (8 * i));
  return nonce;
}

void PacketProtector::note_aead_use() const {
  if (aead_used_) {
    if (stats_) ++stats_->aead_ctx_reuse;
  } else {
    aead_used_ = true;
  }
}

void PacketProtector::protect_into(const Packet& packet,
                                   std::span<const uint8_t> payload,
                                   std::vector<uint8_t>& out) const {
  // Header protection samples 16 bytes of ciphertext starting
  // 4 - pn_len bytes into it, so the plaintext payload must be at least
  // 4 bytes; real stacks append PADDING frames exactly like this
  // (RFC 9001 section 5.4.2).
  uint8_t pad[4] = {};  // 0x00 == PADDING
  if (payload.size() < 4) {
    if (!payload.empty()) std::memcpy(pad, payload.data(), payload.size());
    payload = {pad, 4};
  }

  const size_t base = out.size();
  const size_t cap_before = out.capacity();
  size_t pn_offset;
  if (packet.type == PacketType::kOneRtt) {
    // Short header: 0b01000000 | key phase 0 | pn_len-1.
    wire::append_u8(out, 0x40 | (kPnLen - 1));
    wire::append_bytes(out, packet.dcid);
    pn_offset = out.size() - base;
  } else {
    uint8_t first = static_cast<uint8_t>(
        0x80 | 0x40 | (long_type_bits(packet.type) << 4) | (kPnLen - 1));
    wire::append_u8(out, first);
    wire::append_u32(out, packet.version);
    wire::append_u8(out, static_cast<uint8_t>(packet.dcid.size()));
    wire::append_bytes(out, packet.dcid);
    wire::append_u8(out, static_cast<uint8_t>(packet.scid.size()));
    wire::append_bytes(out, packet.scid);
    if (packet.type == PacketType::kInitial) {
      wire::append_varint(out, packet.token.size());
      wire::append_bytes(out, packet.token);
    }
    // Length covers packet number + sealed payload.
    wire::append_varint(out, kPnLen + payload.size() + crypto::kGcmTagSize);
    pn_offset = out.size() - base;
  }
  wire::append_u16(out, static_cast<uint16_t>(packet.packet_number));

  // AEAD: AAD is the whole header, nonce is iv XOR pn. The AAD span
  // aliases `out`, so reserve the final size first — seal_append must
  // not reallocate underneath it.
  out.reserve(out.size() + payload.size() + crypto::kGcmTagSize);
  std::span<const uint8_t> header(out.data() + base, out.size() - base);
  note_aead_use();
  aead_.seal_append(nonce_for(packet.packet_number), header, payload, out);

  // Header protection (RFC 9001 section 5.4): sample 16 bytes of
  // ciphertext starting 4 - pn_len bytes after the pn field.
  size_t sample_at = pn_offset + 4;
  if (base + sample_at + kHpSampleSize > out.size())
    throw std::invalid_argument("packet too short to header-protect");
  auto mask = hp_.encrypt_block(
      std::span<const uint8_t>(out.data() + base + sample_at, kHpSampleSize));
  out[base] ^= mask[0] & (out[base] & 0x80 ? 0x0f : 0x1f);
  for (size_t i = 0; i < kPnLen; ++i)
    out[base + pn_offset + i] ^= mask[1 + i];
  if (stats_ && out.capacity() > cap_before)
    stats_->alloc_bytes += out.capacity() - cap_before;
}

size_t max_protected_size(const Packet& packet, size_t payload_size) {
  // first byte, version, both CID lengths and CIDs, the token with an
  // 8-byte length, an 8-byte Length, the packet number, the padded
  // payload and the tag: never less than protect_into writes.
  return 1 + 4 + 1 + packet.dcid.size() + 1 + packet.scid.size() + 8 +
         packet.token.size() + 8 + kPnLen + std::max<size_t>(payload_size, 4) +
         crypto::kGcmTagSize;
}

std::vector<uint8_t> PacketProtector::protect(const Packet& packet) const {
  std::vector<uint8_t> out;
  out.reserve(max_protected_size(packet, packet.payload.size()));
  protect_into(packet, packet.payload, out);
  return out;
}

bool PacketProtector::unprotect_into(std::span<const uint8_t> datagram,
                                     size_t& offset, Packet& out) const {
  try {
    auto remaining = datagram.subspan(offset);
    wire::Reader r(remaining);
    out.version = kVersion1;
    out.token.clear();
    out.scid.clear();
    uint8_t first = r.u8();
    size_t pn_offset;
    size_t sealed_len;
    if (first & 0x80) {
      out.version = r.u32();
      out.type = type_from_bits(first >> 4);
      auto dcid = r.bytes(r.u8());
      out.dcid.assign(dcid.begin(), dcid.end());
      auto scid = r.bytes(r.u8());
      out.scid.assign(scid.begin(), scid.end());
      if (out.type == PacketType::kInitial) {
        auto token = r.bytes(r.varint());
        out.token.assign(token.begin(), token.end());
      }
      uint64_t length = r.varint();
      pn_offset = r.position();
      if (length < kPnLen + crypto::kGcmTagSize || length > r.remaining())
        return false;
      sealed_len = static_cast<size_t>(length) - kPnLen;
    } else {
      out.type = PacketType::kOneRtt;
      auto dcid = r.bytes(8);
      out.dcid.assign(dcid.begin(), dcid.end());
      pn_offset = r.position();
      if (r.remaining() < kPnLen + crypto::kGcmTagSize) return false;
      sealed_len = r.remaining() - kPnLen;
    }

    // Undo header protection. The use is noted here, not at the AEAD
    // open below: this is where the protector first does cipher work,
    // and everything before this point is structural (lengths and
    // cleartext header bits). Whether the masked pn-length check or the
    // tag check pass depends on key material, i.e. on per-connection
    // entropy -- counting only past those checks made the campaign's
    // merged reuse counter depend on how targets were partitioned
    // across shards.
    size_t sample_at = pn_offset + 4;
    if (sample_at + kHpSampleSize > remaining.size()) return false;
    note_aead_use();
    auto mask = hp_.encrypt_block(remaining.subspan(sample_at, kHpSampleSize));
    const size_t header_cap = scratch_header_.capacity();
    scratch_header_.assign(remaining.begin(),
                           remaining.begin() +
                               static_cast<long>(pn_offset + kPnLen));
    auto& header = scratch_header_;
    header[0] ^= mask[0] & (header[0] & 0x80 ? 0x0f : 0x1f);
    size_t pn_len = (header[0] & 0x03) + 1u;
    if (pn_len != kPnLen) return false;  // peer must use our encoding
    uint64_t pn = 0;
    for (size_t i = 0; i < kPnLen; ++i) {
      header[pn_offset + i] ^= mask[1 + i];
      pn = pn << 8 | header[pn_offset + i];
    }
    // Truncated pn == full pn: simulated handshakes stay far below 2^16.
    out.packet_number = pn;

    auto sealed = remaining.subspan(pn_offset + kPnLen, sealed_len);
    const size_t payload_cap = out.payload.capacity();
    out.payload.clear();
    if (!aead_.open_append(nonce_for(pn), header, sealed, out.payload))
      return false;
    if (stats_) {
      if (scratch_header_.capacity() > header_cap)
        stats_->alloc_bytes += scratch_header_.capacity() - header_cap;
      if (out.payload.capacity() > payload_cap)
        stats_->alloc_bytes += out.payload.capacity() - payload_cap;
    }
    offset += pn_offset + kPnLen + sealed_len;
    return true;
  } catch (const wire::DecodeError&) {
    return false;
  }
}

std::optional<Packet> PacketProtector::unprotect(
    std::span<const uint8_t> datagram, size_t& offset) const {
  Packet packet;
  if (!unprotect_into(datagram, offset, packet)) return std::nullopt;
  return packet;
}

PacketSpaces::PacketSpaces(bool is_server, HotpathStats* stats)
    : is_server_(is_server), stats_(stats) {}

std::optional<PacketSpaces::Space> PacketSpaces::space_of(PacketType type) {
  switch (type) {
    case PacketType::kInitial: return Space::kInitial;
    case PacketType::kHandshake: return Space::kHandshake;
    case PacketType::kOneRtt: return Space::kApplication;
    default: return std::nullopt;
  }
}

void PacketSpaces::start(Version version,
                         std::span<const uint8_t> client_dcid) {
  for (SpaceState& k : spaces_) {
    k.tx.reset();
    k.rx.reset();
    k.next_pn = 0;
  }
  tx_header_.version = version;
  const InitialSecrets initial = derive_initial_secrets(version, client_dcid);
  install(Space::kInitial,
          tls::derive_traffic_keys(initial.client, tls::KeyUsage::kQuic),
          tls::derive_traffic_keys(initial.server, tls::KeyUsage::kQuic));
}

void PacketSpaces::install(Space space, const tls::TrafficKeys& client,
                           const tls::TrafficKeys& server) {
  SpaceState& k = state(space);
  k.tx.emplace(is_server_ ? server : client);
  k.rx.emplace(is_server_ ? client : server);
  k.tx->set_stats(stats_);
  k.rx->set_stats(stats_);
}

void PacketSpaces::set_cids(std::span<const uint8_t> dcid,
                            std::span<const uint8_t> scid) {
  tx_header_.dcid.assign(dcid.begin(), dcid.end());
  tx_header_.scid.assign(scid.begin(), scid.end());
}

Packet& PacketSpaces::next_header(PacketType type) {
  const auto space = space_of(type);
  if (!space) throw std::logic_error("packet type has no packet-number space");
  tx_header_.type = type;
  tx_header_.token.clear();
  tx_header_.packet_number = state(*space).next_pn++;
  frames_.clear();
  return tx_header_;
}

uint64_t PacketSpaces::next_number(PacketType type) const {
  return spaces_[static_cast<size_t>(space_of(type).value())].next_pn;
}

void PacketSpaces::seal_into(std::vector<uint8_t>& datagram) {
  const SpaceState& k = state(*space_of(tx_header_.type));
  if (!k.tx) throw std::logic_error("no keys to seal this packet with");
  if (stats_ && frames_.capacity() > frames_counted_) {
    stats_->alloc_bytes += frames_.capacity() - frames_counted_;
    frames_counted_ = frames_.capacity();
  }
  k.tx->protect_into(tx_header_, frames_.span(), datagram);
}

std::vector<uint8_t> PacketSpaces::seal(size_t room) {
  std::vector<uint8_t> datagram;
  datagram.reserve(max_protected_size(tx_header_, frames_.size()) + room);
  seal_into(datagram);
  return datagram;
}

const Packet* PacketSpaces::open(PacketType type,
                                 std::span<const uint8_t> datagram,
                                 size_t& offset) {
  const auto space = space_of(type);
  const SpaceState* k = space ? &state(*space) : nullptr;
  if (k && k->rx && k->rx->unprotect_into(datagram, offset, rx_packet_))
    return &rx_packet_;
  if (stats_) ++stats_->undecryptable;
  return nullptr;
}

namespace {

// RFC 9001 section 5.8 Retry integrity keys and nonces (v1 /
// draft-33+), and the draft-29..32 and draft-25..28 equivalents,
// indexed by version_family.
constexpr uint8_t kRetryKeys[3][16] = {
    {0xbe, 0x0c, 0x69, 0x0b, 0x9f, 0x66, 0x57, 0x5a, 0x1d, 0x76, 0x6b, 0x54,
     0xe3, 0x68, 0xc8, 0x4e},
    {0xcc, 0xce, 0x18, 0x7e, 0xd0, 0x9a, 0x09, 0xd0, 0x57, 0x28, 0x15, 0x5a,
     0x6c, 0xb9, 0x6b, 0xe1},
    {0x4d, 0x32, 0xec, 0xdb, 0x2a, 0x21, 0x33, 0xc8, 0x41, 0xe4, 0x04, 0x3d,
     0xf2, 0x7d, 0x44, 0x30},
};
constexpr uint8_t kRetryNonces[3][12] = {
    {0x46, 0x15, 0x99, 0xd3, 0x5d, 0x63, 0x2b, 0xf2, 0x23, 0x98, 0x25, 0xbb},
    {0xe5, 0x49, 0x30, 0xf9, 0x7f, 0x21, 0x36, 0xf0, 0x53, 0x0a, 0x8c, 0x1c},
    {0x4d, 0x16, 0x11, 0xd0, 0x55, 0x13, 0xa5, 0x52, 0xc5, 0x87, 0xd5, 0x75},
};

/// Long-lived AEAD context for a version family's Retry integrity key.
/// The keys are protocol constants, so the key schedules are built once
/// per process instead of per Retry packet. A magic static makes
/// initialization thread-safe; the contexts are immutable afterwards,
/// so shard threads share them freely.
const crypto::Aes128Gcm& retry_aead(size_t family) {
  static const crypto::Aes128Gcm kGcm[3] = {
      crypto::Aes128Gcm(kRetryKeys[0]), crypto::Aes128Gcm(kRetryKeys[1]),
      crypto::Aes128Gcm(kRetryKeys[2])};
  return kGcm[family];
}

/// Retry packet bytes without the tag, given the header fields.
std::vector<uint8_t> retry_header(const RetryPacket& retry) {
  wire::Writer w;
  w.u8(0x80 | 0x40 | (long_type_bits(PacketType::kRetry) << 4));
  w.u32(retry.version);
  w.u8(static_cast<uint8_t>(retry.dcid.size()));
  w.bytes(retry.dcid);
  w.u8(static_cast<uint8_t>(retry.scid.size()));
  w.bytes(retry.scid);
  w.bytes(retry.token);
  return w.take();
}

/// The integrity tag is the GCM tag of an empty plaintext with the
/// Retry pseudo-packet (ODCID-prefixed Retry) as AAD.
std::array<uint8_t, 16> retry_tag(std::span<const uint8_t> header,
                                  std::span<const uint8_t> odcid,
                                  Version version) {
  wire::Writer pseudo;
  pseudo.u8(static_cast<uint8_t>(odcid.size()));
  pseudo.bytes(odcid);
  pseudo.bytes(header);
  const size_t family = version_family(version);
  auto sealed =
      retry_aead(family).seal(kRetryNonces[family], pseudo.span(), {});
  std::array<uint8_t, 16> tag{};
  std::copy(sealed.begin(), sealed.end(), tag.begin());
  return tag;
}

}  // namespace

std::vector<uint8_t> encode_retry(const RetryPacket& retry,
                                  std::span<const uint8_t> odcid) {
  auto bytes = retry_header(retry);
  auto tag = retry_tag(bytes, odcid, retry.version);
  bytes.insert(bytes.end(), tag.begin(), tag.end());
  return bytes;
}

std::optional<RetryPacket> decode_retry(std::span<const uint8_t> datagram,
                                        std::span<const uint8_t> odcid) {
  try {
    wire::Reader r(datagram);
    uint8_t first = r.u8();
    if (!(first & 0x80)) return std::nullopt;
    RetryPacket retry;
    retry.version = r.u32();
    if (retry.version == 0 ||
        type_from_bits(first >> 4) != PacketType::kRetry)
      return std::nullopt;
    retry.dcid = r.bytes_copy(r.u8());
    retry.scid = r.bytes_copy(r.u8());
    auto rest = r.rest();
    if (rest.size() < 16) return std::nullopt;
    retry.token.assign(rest.begin(), rest.end() - 16);
    std::span<const uint8_t> tag = rest.subspan(rest.size() - 16);
    auto expected = retry_tag(
        std::span<const uint8_t>(datagram.data(), datagram.size() - 16),
        odcid, retry.version);
    uint8_t diff = 0;
    for (size_t i = 0; i < 16; ++i) diff |= tag[i] ^ expected[i];
    if (diff != 0) return std::nullopt;
    return retry;
  } catch (const wire::DecodeError&) {
    return std::nullopt;
  }
}

}  // namespace quic
