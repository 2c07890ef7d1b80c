// QUIC packet layer: long/short header codec (RFC 9000 section 17),
// Version Negotiation packets, packet protection (RFC 9001 section 5)
// including version-specific Initial salts and AES-based header
// protection, and PacketSpaces, the one endpoint-side owner of the
// packet-number spaces that both QUIC endpoints build on. Coalesced
// datagrams (Initial + Handshake in one UDP payload) are supported by
// the incremental unprotect API.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "crypto/aes.h"
#include "quic/version.h"
#include "tls/key_schedule.h"
#include "wire/buffer.h"

namespace quic {

enum class PacketType : uint8_t {
  kInitial,
  kZeroRtt,
  kHandshake,
  kRetry,
  kOneRtt,              // short header
  kVersionNegotiation,  // long header, version 0
};

using ConnectionId = std::vector<uint8_t>;

/// A plaintext packet before protection / after unprotection.
struct Packet {
  PacketType type = PacketType::kInitial;
  Version version = kVersion1;  // long-header packets only
  ConnectionId dcid;
  ConnectionId scid;                 // long-header packets only
  std::vector<uint8_t> token;        // Initial only
  uint64_t packet_number = 0;
  std::vector<uint8_t> payload;      // encoded frames
};

/// Minimal datagram triage without keys: enough for a stateless
/// responder (ZMap-style) or connection demultiplexing.
struct DatagramInfo {
  bool long_header = false;
  bool fixed_bit = false;
  Version version = 0;
  PacketType type = PacketType::kOneRtt;
  ConnectionId dcid;
  ConnectionId scid;  // long header only
  size_t payload_bytes = 0;  // datagram size, for padding checks
};

std::optional<DatagramInfo> peek_datagram(std::span<const uint8_t> datagram);

/// --- Version negotiation -------------------------------------------------

struct VersionNegotiationPacket {
  ConnectionId dcid;  // echo of client SCID
  ConnectionId scid;  // echo of client DCID
  std::vector<Version> supported_versions;
};

std::vector<uint8_t> encode_version_negotiation(
    const VersionNegotiationPacket& vn, uint8_t random_bits);
std::optional<VersionNegotiationPacket> decode_version_negotiation(
    std::span<const uint8_t> datagram);

/// --- Initial secrets ------------------------------------------------------

/// The version-specific salt (RFC 9001 section 5.2 and the draft
/// predecessors). Drafts <= 28, drafts 29-32 and draft-33+/v1 each used
/// a different salt; a scanner probing with the wrong version cannot
/// even unprotect the server's Initial, which is why version agility
/// matters for QScanner.
std::span<const uint8_t> initial_salt(Version version);

struct InitialSecrets {
  crypto::Sha256Digest client{};
  crypto::Sha256Digest server{};
};

/// Both directions' Initial secrets from one HKDF-Extract of the
/// client's DCID.
InitialSecrets derive_initial_secrets(Version version,
                                      std::span<const uint8_t> client_dcid);

/// --- Packet protection ----------------------------------------------------

/// Running totals for the per-attempt hot path, owned by whoever drives
/// a connection (the scanner attempt) and surfaced through telemetry as
/// `hotpath.alloc_bytes` / `hotpath.aead_ctx_reuse` /
/// `hotpath.undecryptable`. alloc_bytes counts capacity growth of the
/// reusable scratch buffers — zero growth in steady state means the
/// packet path ran allocation-free. undecryptable counts received
/// packets that failed AEAD open or arrived without usable keys (e.g.
/// corrupted in flight, or reordered ahead of the key-bearing flight);
/// they are dropped and counted, never abort the attempt.
struct HotpathStats {
  uint64_t alloc_bytes = 0;
  uint64_t aead_ctx_reuse = 0;
  uint64_t undecryptable = 0;
};

/// Seals/opens packets for one direction of one encryption level.
///
/// Construction derives the AES key schedules and the GHASH material once;
/// the protector is then reused for every packet of its level, which is
/// the AEAD-context-lifetime half of the hot-path contract (the other
/// half is the append-into-caller-buffer API below).
class PacketProtector {
 public:
  explicit PacketProtector(const tls::TrafficKeys& keys);

  /// Convenience: one direction's Initial-level protector. An endpoint
  /// that needs both builds them from derive_initial_secrets().
  static PacketProtector for_initial(Version version,
                                     std::span<const uint8_t> client_dcid,
                                     bool is_server);

  /// Points hot-path accounting at `stats` (may be nullptr to detach).
  void set_stats(HotpathStats* stats) { stats_ = stats; }

  /// Serializes, seals and header-protects `packet`, appending the
  /// protected bytes to `out` — append again to coalesce several
  /// packets into one datagram. `payload` is the plaintext frame bytes
  /// (packet.payload is ignored) and must not alias `out`. Packet
  /// numbers are encoded in 2 bytes (ample for simulated handshakes).
  void protect_into(const Packet& packet, std::span<const uint8_t> payload,
                    std::vector<uint8_t>& out) const;

  /// Serializes, seals and header-protects `packet`.
  std::vector<uint8_t> protect(const Packet& packet) const;

  /// Opens the packet starting at `offset` within `datagram` into
  /// `out`, reusing out's buffers (dcid/scid/token/payload keep their
  /// capacity across calls); on success advances `offset` past it
  /// (coalesced packet support). Returns false on authentication
  /// failure or malformed input, leaving `out` unspecified.
  bool unprotect_into(std::span<const uint8_t> datagram, size_t& offset,
                      Packet& out) const;

  /// Opens the packet starting at `offset` within `datagram`; on
  /// success advances `offset` past it (coalesced packet support).
  /// Returns nullopt on authentication failure or malformed input.
  std::optional<Packet> unprotect(std::span<const uint8_t> datagram,
                                  size_t& offset) const;

 private:
  std::array<uint8_t, crypto::kGcmIvSize> nonce_for(
      uint64_t packet_number) const;
  void note_aead_use() const;

  crypto::Aes128Gcm aead_;
  crypto::Aes128 hp_;
  tls::AeadIv iv_;
  HotpathStats* stats_ = nullptr;
  mutable bool aead_used_ = false;
  // Unmasked-header copy reused across unprotect calls (the AEAD's AAD).
  mutable std::vector<uint8_t> scratch_header_;
};

/// An upper bound on the bytes protect_into appends for `packet` with a
/// payload of `payload_size` bytes, for sizing a datagram buffer once.
size_t max_protected_size(const Packet& packet, size_t payload_size);

inline constexpr size_t kMinInitialDatagramSize = 1200;  // RFC 9000 s. 14.1

/// --- Packet-number spaces -------------------------------------------------

/// One endpoint's three packet-number spaces (RFC 9000 section 12.3):
/// for Initial, Handshake and application data, the keys that seal and
/// open the space's packets (RFC 9001 section 4) and the number its next
/// packet gets. It also owns the endpoint's reused packet buffers -- one
/// tx header, one rx Packet and the frame scratch a payload is encoded
/// into -- so steady-state packets allocate nothing beyond their
/// datagrams.
class PacketSpaces {
 public:
  enum class Space : uint8_t { kInitial, kHandshake, kApplication };

  /// `is_server` picks which side's keys install() seals with. With
  /// `stats`, every protector installed reports to it, and so do the
  /// frame scratch's growth and every packet open() cannot open.
  explicit PacketSpaces(bool is_server, HotpathStats* stats = nullptr);

  /// (Re)starts the connection at `version`: Initial keys derived from
  /// the client's DCID (RFC 9001 section 5.2), no keys in the other
  /// spaces, and every space numbering from 0 again.
  void start(Version version, std::span<const uint8_t> client_dcid);
  /// Installs `space`'s keys from the client's and the server's traffic
  /// keys: this endpoint seals with its own side's and opens with its
  /// peer's.
  void install(Space space, const tls::TrafficKeys& client,
               const tls::TrafficKeys& server);
  /// The connection IDs every header handed out carries.
  void set_cids(std::span<const uint8_t> dcid, std::span<const uint8_t> scid);

  /// Begins the next packet of `type`: its header, numbered in its space
  /// and without a token, and an empty frames() for its payload. The
  /// header is one reused Packet that the next call overwrites.
  Packet& next_header(PacketType type);
  /// The number the next packet of `type`'s space gets; an ACK in that
  /// space can only acknowledge packets below it.
  uint64_t next_number(PacketType type) const;
  /// The payload of the packet begun by next_header().
  wire::Writer& frames() { return frames_; }
  /// Seals frames() as the packet begun by next_header(), with its
  /// space's keys, and appends it to `datagram`; append again to
  /// coalesce.
  void seal_into(std::vector<uint8_t>& datagram);
  /// The same into a new datagram sized once, with `room` bytes to spare
  /// for packets coalesced after it.
  std::vector<uint8_t> seal(size_t room = 0);

  /// Opens the packet at `offset` of `datagram` with the keys of
  /// `type`'s space and advances `offset` past it. nullptr, counted as
  /// undecryptable, when that space has no keys yet or the packet does
  /// not open (corrupted, or overtaking the flight that carried the
  /// keys). The Packet is reused by the next open.
  const Packet* open(PacketType type, std::span<const uint8_t> datagram,
                     size_t& offset);
  /// Walks `datagram`'s coalesced packets in order (RFC 9000 section
  /// 12.2), opening each with its own space's keys and handing it to
  /// `on_packet(packet, size)` while that returns true. The walk ends at
  /// a piece that does not parse or does not open.
  template <typename OnPacket>
  void open_each(std::span<const uint8_t> datagram, OnPacket&& on_packet) {
    size_t offset = 0;
    while (offset < datagram.size()) {
      const auto piece = peek_datagram(datagram.subspan(offset));
      if (!piece) return;
      const size_t start = offset;
      const Packet* packet = open(piece->type, datagram, offset);
      if (!packet || !on_packet(*packet, offset - start)) return;
    }
  }

 private:
  struct SpaceState {
    std::optional<PacketProtector> tx, rx;
    uint64_t next_pn = 0;
  };
  /// The space of `type`'s packets: none for Retry and Version
  /// Negotiation, and none for 0-RTT, whose keys no endpoint here
  /// derives.
  static std::optional<Space> space_of(PacketType type);
  SpaceState& state(Space space) {
    return spaces_[static_cast<size_t>(space)];
  }

  bool is_server_;
  HotpathStats* stats_;
  std::array<SpaceState, 3> spaces_;
  Packet tx_header_;
  Packet rx_packet_;
  wire::Writer frames_;
  size_t frames_counted_ = 0;  // frames_ capacity already in stats_
};

/// --- Retry packets (RFC 9000 section 17.2.5, RFC 9001 section 5.8) ---

struct RetryPacket {
  Version version = kVersion1;
  ConnectionId dcid;  // client's SCID
  ConnectionId scid;  // server-chosen CID the client must use next
  std::vector<uint8_t> token;
};

/// Encodes a Retry packet including its integrity tag, which is the
/// AES-128-GCM tag over the Retry pseudo-packet keyed by the
/// version-specific constants from RFC 9001 section 5.8 (and the draft
/// predecessors).
std::vector<uint8_t> encode_retry(const RetryPacket& retry,
                                  std::span<const uint8_t> odcid);

/// Decodes and *verifies* a Retry packet; nullopt when the datagram is
/// not a Retry or its integrity tag does not validate for `odcid`.
std::optional<RetryPacket> decode_retry(std::span<const uint8_t> datagram,
                                        std::span<const uint8_t> odcid);

}  // namespace quic
