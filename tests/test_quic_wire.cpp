// QUIC wire-format tests: version registry, transport-parameter codec,
// frames, packets, version negotiation and RFC 9001 Initial protection.
#include <gtest/gtest.h>

#include "crypto/cpu.h"
#include "crypto/rng.h"
#include "quic/frame.h"
#include "quic/packet.h"
#include "quic/transport_params.h"
#include "quic/version.h"
#include "wire/buffer.h"

namespace {

using namespace quic;

TEST(Version, Names) {
  EXPECT_EQ(version_name(kVersion1), "ietf-01");
  EXPECT_EQ(version_name(kDraft29), "draft-29");
  EXPECT_EQ(version_name(kDraft27), "draft-27");
  EXPECT_EQ(version_name(kQ050), "Q050");
  EXPECT_EQ(version_name(kT051), "T051");
  EXPECT_EQ(version_name(kMvfst2), "mvfst-2");
  EXPECT_EQ(version_name(kMvfstE), "mvfst-e");
  EXPECT_EQ(version_name(0xdeadbeef), "0xdeadbeef");
}

TEST(Version, WireValues) {
  EXPECT_EQ(kDraft29, 0xff00001du);
  EXPECT_EQ(kQ043, 0x51303433u);
  EXPECT_EQ(kT051, 0x54303531u);
  EXPECT_EQ(kVersion1, 0x00000001u);
}

TEST(Version, NameRoundTrip) {
  for (Version v : {kVersion1, kDraft27, kDraft28, kDraft29, kDraft32, kDraft34,
                    kQ039, kQ043, kQ046, kQ048, kQ050, kQ099, kT048, kT051,
                    kMvfst1, kMvfst2, kMvfstE}) {
    auto name = version_name(v);
    auto back = version_from_name(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, v) << name;
  }
}

TEST(Version, Classification) {
  EXPECT_TRUE(is_ietf(kVersion1));
  EXPECT_TRUE(is_ietf(kDraft29));
  EXPECT_FALSE(is_ietf(kQ050));
  EXPECT_TRUE(is_google(kQ050));
  EXPECT_TRUE(is_google(kT051));
  EXPECT_FALSE(is_google(kMvfst1));
  EXPECT_TRUE(is_mvfst(kMvfstE));
  EXPECT_TRUE(is_force_negotiation(0x1a2a3a4a));
  EXPECT_TRUE(is_force_negotiation(0xfafafafa));
  EXPECT_FALSE(is_force_negotiation(kVersion1));
  EXPECT_FALSE(is_force_negotiation(kDraft29));
}

TEST(Version, SetNameMatchesPaperOrdering) {
  EXPECT_EQ(version_set_name({kQ043, kDraft29, kQ046, kQ050, kT051}),
            "draft-29 T051 Q050 Q046 Q043");
  EXPECT_EQ(version_set_name({kDraft27, kDraft28, kDraft29, kVersion1}),
            "ietf-01 draft-29 draft-28 draft-27");
  EXPECT_EQ(version_set_name({kDraft27, kMvfst1, kMvfst2, kDraft29, kMvfstE}),
            "mvfst-2 mvfst-1 mvfst-e draft-29 draft-27");
}

TEST(TransportParams, EmptyRoundTrip) {
  TransportParameters tp;
  auto decoded = decode_transport_parameters(encode_transport_parameters(tp));
  EXPECT_EQ(decoded, tp);
}

TEST(TransportParams, FullRoundTrip) {
  TransportParameters tp;
  tp.max_idle_timeout = 30000;
  tp.max_udp_payload_size = 1500;
  tp.initial_max_data = 1048576;
  tp.initial_max_stream_data_bidi_local = 66560;
  tp.initial_max_stream_data_bidi_remote = 66560;
  tp.initial_max_stream_data_uni = 66560;
  tp.initial_max_streams_bidi = 100;
  tp.initial_max_streams_uni = 3;
  tp.ack_delay_exponent = 3;
  tp.max_ack_delay = 25;
  tp.active_connection_id_limit = 4;
  tp.disable_active_migration = true;
  tp.original_destination_connection_id =
      std::vector<uint8_t>{1, 2, 3, 4, 5, 6, 7, 8};
  tp.initial_source_connection_id = std::vector<uint8_t>{9, 10, 11, 12};
  tp.stateless_reset_token = std::vector<uint8_t>(16, 0xab);
  auto decoded = decode_transport_parameters(encode_transport_parameters(tp));
  EXPECT_EQ(decoded, tp);
}

TEST(TransportParams, UnknownAndGreasePreserved) {
  TransportParameters tp;
  tp.unknown.emplace_back(0x4a5a, std::vector<uint8_t>{0xde, 0xad});
  auto decoded = decode_transport_parameters(encode_transport_parameters(tp));
  EXPECT_EQ(decoded.unknown, tp.unknown);
}

TEST(TransportParams, RejectsDuplicates) {
  wire::Writer w;
  w.varint(0x01);
  w.varint(1);
  w.varint(5);
  w.varint(0x01);
  w.varint(1);
  w.varint(6);
  EXPECT_THROW(decode_transport_parameters(w.span()), wire::DecodeError);
}

TEST(TransportParams, RejectsInvalidValues) {
  auto encode_one = [](uint64_t id, uint64_t value) {
    wire::Writer w;
    w.varint(id);
    w.varint(wire::varint_size(value));
    w.varint(value);
    return std::vector<uint8_t>(w.span().begin(), w.span().end());
  };
  // max_udp_payload_size < 1200
  EXPECT_THROW(decode_transport_parameters(encode_one(0x03, 1199)),
               wire::DecodeError);
  // ack_delay_exponent > 20
  EXPECT_THROW(decode_transport_parameters(encode_one(0x0a, 21)),
               wire::DecodeError);
  // active_connection_id_limit < 2
  EXPECT_THROW(decode_transport_parameters(encode_one(0x0e, 1)),
               wire::DecodeError);
  // max_ack_delay >= 2^14
  EXPECT_THROW(decode_transport_parameters(encode_one(0x0b, 1 << 14)),
               wire::DecodeError);
}

TEST(TransportParams, ConfigKeyIgnoresSessionSpecificValues) {
  TransportParameters a, b;
  a.initial_max_data = 1048576;
  b.initial_max_data = 1048576;
  a.initial_source_connection_id = std::vector<uint8_t>{1, 2, 3};
  b.initial_source_connection_id = std::vector<uint8_t>{4, 5, 6};
  a.stateless_reset_token = std::vector<uint8_t>(16, 1);
  b.stateless_reset_token = std::vector<uint8_t>(16, 2);
  EXPECT_EQ(a.config_key(), b.config_key());
  b.initial_max_data = 8192;
  EXPECT_NE(a.config_key(), b.config_key());
}

TEST(TransportParams, DefaultsApplied) {
  TransportParameters tp;
  EXPECT_EQ(tp.effective_max_udp_payload_size(), 65527u);
  tp.max_udp_payload_size = 1500;
  EXPECT_EQ(tp.effective_max_udp_payload_size(), 1500u);
}

TEST(Frames, RoundTripEachType) {
  std::vector<Frame> frames{
      PingFrame{},
      AckFrame{42, 10, 2, {{1, 3}, {0, 1}}},
      CryptoFrame{0, {1, 2, 3, 4}},
      StreamFrame{4, 100, true, {9, 9, 9}},
      ConnectionCloseFrame{0x128, false, 0x06, "handshake failure"},
      ConnectionCloseFrame{7, true, 0, "app close"},
      HandshakeDoneFrame{},
      PaddingFrame{17},
  };
  auto decoded = decode_frames(encode_frames(frames));
  ASSERT_EQ(decoded.size(), frames.size());
  for (size_t i = 0; i < frames.size(); ++i)
    EXPECT_EQ(decoded[i], frames[i]) << "frame " << i;
}

TEST(Frames, PaddingRunsCollapse) {
  wire::Writer w;
  w.zeros(100);
  auto frames = decode_frames(w.span());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(std::get<PaddingFrame>(frames[0]).length, 100u);
}

TEST(Frames, UnknownTypeThrows) {
  wire::Writer w;
  w.varint(0x42);  // MAX_DATA, not implemented
  w.varint(100);
  EXPECT_THROW(decode_frames(w.span()), wire::DecodeError);
}

TEST(VersionNegotiation, RoundTrip) {
  VersionNegotiationPacket vn;
  vn.dcid = {1, 2, 3, 4};
  vn.scid = {5, 6, 7, 8, 9, 10, 11, 12};
  vn.supported_versions = {kDraft29, kDraft28, kDraft27, kQ050};
  auto bytes = encode_version_negotiation(vn, 0x55);
  auto decoded = decode_version_negotiation(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->dcid, vn.dcid);
  EXPECT_EQ(decoded->scid, vn.scid);
  EXPECT_EQ(decoded->supported_versions, vn.supported_versions);
}

TEST(VersionNegotiation, PeekClassifiesAsVn) {
  VersionNegotiationPacket vn;
  vn.dcid = {1};
  vn.scid = {2};
  vn.supported_versions = {kVersion1};
  auto bytes = encode_version_negotiation(vn, 0);
  auto info = peek_datagram(bytes);
  ASSERT_TRUE(info.has_value());
  EXPECT_TRUE(info->long_header);
  EXPECT_EQ(info->type, PacketType::kVersionNegotiation);
  EXPECT_EQ(info->version, 0u);
}

TEST(VersionNegotiation, RejectsEmptyVersionList) {
  wire::Writer w;
  w.u8(0x80);
  w.u32(0);
  w.u8(0);
  w.u8(0);
  EXPECT_FALSE(decode_version_negotiation(w.span()).has_value());
}

TEST(InitialSalt, VersionSpecific) {
  EXPECT_EQ(wire::to_hex(initial_salt(kVersion1)),
            "38762cf7f55934b34d179ae6a4c80cadccbb7f0a");
  EXPECT_EQ(wire::to_hex(initial_salt(kDraft29)),
            "afbfec289993d24c9e9786f19c6111e04390a899");
  EXPECT_EQ(wire::to_hex(initial_salt(kDraft32)),
            "afbfec289993d24c9e9786f19c6111e04390a899");
  EXPECT_EQ(wire::to_hex(initial_salt(kDraft27)),
            "c3eef712c72ebb5a11a7d2432bb46365bef9f502");
  EXPECT_EQ(wire::to_hex(initial_salt(kDraft34)),
            "38762cf7f55934b34d179ae6a4c80cadccbb7f0a");
}

TEST(InitialSecrets, MatchRfc9001AppendixA) {
  auto dcid = wire::from_hex("8394c8f03e515708");
  auto secrets = derive_initial_secrets(kVersion1, dcid);
  EXPECT_EQ(wire::to_hex(secrets.client),
            "c00cf151ca5be075ed0ebfb5c80323c42d6b7db67881289af4008f1f6c357aea");
  EXPECT_EQ(wire::to_hex(secrets.server),
            "3c199828fd139efd216c155ad844cc81fb82fa8d7446fa7d78be803acdda951b");
}

TEST(InitialSecrets, BothSidesMatchRfc9001AppendixA1OnEveryKernel) {
  // RFC 9001 Appendix A.1: both directions' secrets and packet
  // protection keys for DCID 8394c8f03e515708, under each backend the
  // host offers: portable pins the scalar SHA-256 kernel, and aesni
  // selects SHA-NI where the host has it.
  auto dcid = wire::from_hex("8394c8f03e515708");
  std::vector<crypto::Backend> backends = {crypto::Backend::kPortable};
  if (crypto::backend_available(crypto::Backend::kAesni))
    backends.push_back(crypto::Backend::kAesni);
  for (crypto::Backend backend : backends) {
    crypto::ScopedBackendOverride force(backend);
    SCOPED_TRACE(crypto::backend_name(backend));
    auto secrets = derive_initial_secrets(kVersion1, dcid);
    EXPECT_EQ(wire::to_hex(secrets.client),
              "c00cf151ca5be075ed0ebfb5c80323c42d6b7db67881289af4008f1f6c357aea");
    EXPECT_EQ(wire::to_hex(secrets.server),
              "3c199828fd139efd216c155ad844cc81fb82fa8d7446fa7d78be803acdda951b");
    auto client =
        tls::derive_traffic_keys(secrets.client, tls::KeyUsage::kQuic);
    EXPECT_EQ(wire::to_hex(client.key), "1f369613dd76d5467730efcbe3b1a22d");
    EXPECT_EQ(wire::to_hex(client.iv), "fa044b2f42a3fd3b46fb255c");
    EXPECT_EQ(wire::to_hex(*client.hp), "9f50449e04a0e810283a1e9933adedd2");
    auto server =
        tls::derive_traffic_keys(secrets.server, tls::KeyUsage::kQuic);
    EXPECT_EQ(wire::to_hex(server.key), "cf3a5331653c364c88f0f379b6067e37");
    EXPECT_EQ(wire::to_hex(server.iv), "0ac1493ca1905853b0bba03e");
    EXPECT_EQ(wire::to_hex(*server.hp), "c206b8d9b9f0f37644430b490eeaa314");

    // for_initial derives one direction only; each side's protector
    // must open what the keys above seal.
    Packet packet;
    packet.type = PacketType::kInitial;
    packet.version = kVersion1;
    packet.dcid = dcid;
    packet.scid = wire::from_hex("f067a5502a4262b5");
    packet.packet_number = 1;
    packet.payload = encode_frames({CryptoFrame{0, std::vector<uint8_t>(90, 7)},
                                    PaddingFrame{1100}});
    for (bool is_server : {false, true}) {
      auto sealed =
          PacketProtector(is_server ? server : client).protect(packet);
      size_t offset = 0;
      auto opened = PacketProtector::for_initial(kVersion1, dcid, is_server)
                        .unprotect(sealed, offset);
      ASSERT_TRUE(opened.has_value()) << "is_server=" << is_server;
      EXPECT_EQ(opened->payload, packet.payload);
    }
  }
}

TEST(PacketProtectorContexts, CopiesAndMovesProtectLikeAFreshProtector) {
  crypto::Rng rng(0x6c4);
  auto dcid = rng.bytes(8);
  auto keys = tls::derive_traffic_keys(rng.bytes(32), tls::KeyUsage::kQuic);
  auto other = tls::derive_traffic_keys(rng.bytes(32), tls::KeyUsage::kQuic);
  Packet packet;
  packet.type = PacketType::kHandshake;
  packet.version = kVersion1;
  packet.dcid = dcid;
  packet.scid = rng.bytes(8);
  packet.packet_number = 5;
  packet.payload = encode_frames({CryptoFrame{0, rng.bytes(400)}});
  std::vector<crypto::Backend> backends = {crypto::Backend::kPortable};
  if (crypto::backend_available(crypto::Backend::kAesni))
    backends.push_back(crypto::Backend::kAesni);
  for (crypto::Backend backend : backends) {
    crypto::ScopedBackendOverride force(backend);
    SCOPED_TRACE(crypto::backend_name(backend));
    const auto sealed = PacketProtector(keys).protect(packet);

    PacketProtector source(keys);
    PacketProtector copied(source);
    PacketProtector moved(std::move(source));
    PacketProtector move_assigned(other);
    move_assigned = PacketProtector(keys);
    for (const PacketProtector* p : {&copied, &moved, &move_assigned}) {
      EXPECT_EQ(p->protect(packet), sealed);
      size_t offset = 0;
      auto opened = p->unprotect(sealed, offset);
      ASSERT_TRUE(opened.has_value());
      EXPECT_EQ(opened->payload, packet.payload);
      EXPECT_EQ(offset, sealed.size());
    }
  }
}

TEST(PacketProtectorContexts, ProtectorStaysSmall) {
  // Two AES schedules, the GHASH key and an IV: no inline 4 KiB table.
  EXPECT_LE(sizeof(PacketProtector), 1024u);
}

class PacketProtectionTest : public ::testing::TestWithParam<Version> {};

TEST_P(PacketProtectionTest, InitialProtectUnprotectRoundTrip) {
  Version version = GetParam();
  crypto::Rng rng(1234);
  auto dcid = rng.bytes(8);

  Packet packet;
  packet.type = PacketType::kInitial;
  packet.version = version;
  packet.dcid = dcid;
  packet.scid = rng.bytes(8);
  packet.packet_number = 3;
  packet.payload = encode_frames({CryptoFrame{0, rng.bytes(300)},
                                  PaddingFrame{900}});

  auto tx = PacketProtector::for_initial(version, dcid, false);
  auto rx = PacketProtector::for_initial(version, dcid, false);
  auto wire_bytes = tx.protect(packet);
  EXPECT_GE(wire_bytes.size(), 1200u);

  size_t offset = 0;
  auto opened = rx.unprotect(wire_bytes, offset);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(offset, wire_bytes.size());
  EXPECT_EQ(opened->type, PacketType::kInitial);
  EXPECT_EQ(opened->version, version);
  EXPECT_EQ(opened->dcid, packet.dcid);
  EXPECT_EQ(opened->scid, packet.scid);
  EXPECT_EQ(opened->packet_number, packet.packet_number);
  EXPECT_EQ(opened->payload, packet.payload);
}

INSTANTIATE_TEST_SUITE_P(Versions, PacketProtectionTest,
                         ::testing::Values(kVersion1, kDraft29, kDraft32,
                                           kDraft34, kDraft27, kDraft28));

TEST(PacketProtection, WrongVersionSaltCannotUnprotect) {
  crypto::Rng rng(99);
  auto dcid = rng.bytes(8);
  Packet packet;
  packet.type = PacketType::kInitial;
  packet.version = kDraft29;
  packet.dcid = dcid;
  packet.scid = rng.bytes(8);
  packet.packet_number = 0;
  packet.payload = encode_frames({CryptoFrame{0, rng.bytes(100)},
                                  PaddingFrame{1100}});
  auto tx = PacketProtector::for_initial(kDraft29, dcid, false);
  auto bytes = tx.protect(packet);
  // draft-27 uses a different salt; keys differ, authentication fails.
  auto rx_wrong = PacketProtector::for_initial(kDraft27, dcid, false);
  size_t offset = 0;
  EXPECT_FALSE(rx_wrong.unprotect(bytes, offset).has_value());
}

TEST(PacketProtection, ClientServerKeysDiffer) {
  crypto::Rng rng(7);
  auto dcid = rng.bytes(8);
  Packet packet;
  packet.type = PacketType::kInitial;
  packet.version = kVersion1;
  packet.dcid = dcid;
  packet.scid = {};
  packet.packet_number = 0;
  packet.payload = encode_frames({PaddingFrame{1200}});
  auto client = PacketProtector::for_initial(kVersion1, dcid, false);
  auto server = PacketProtector::for_initial(kVersion1, dcid, true);
  auto bytes = client.protect(packet);
  size_t offset = 0;
  EXPECT_FALSE(server.unprotect(bytes, offset).has_value());
  offset = 0;
  EXPECT_TRUE(client.unprotect(bytes, offset).has_value());
}

TEST(PacketProtection, TrialDecryptUseCountIsKeyIndependent) {
  // A trial decrypt of an undecryptable datagram must cost exactly one
  // AEAD-context use no matter which keys the protector holds: the
  // masked pn-length and tag checks depend on key material (i.e. on
  // per-connection entropy), so counting uses only past them would make
  // the campaign's merged hotpath.aead_ctx_reuse counter depend on how
  // targets were partitioned across shards. Adversarial garbage bursts
  // made exactly that happen before the use was noted at the header-
  // protection step.
  crypto::Rng noise_rng(0x6761);
  auto garbage = noise_rng.bytes(64);
  garbage[0] = 0x40 | (garbage[0] & 0x3f);  // plausible short header
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    crypto::Rng rng(seed);
    auto dcid = rng.bytes(8);
    auto protector = PacketProtector::for_initial(kVersion1, dcid, false);
    HotpathStats stats;
    protector.set_stats(&stats);
    // Prime the context so the garbage decrypt below is a "reuse".
    Packet prime;
    prime.type = PacketType::kInitial;
    prime.version = kVersion1;
    prime.dcid = dcid;
    prime.packet_number = 0;
    prime.payload = encode_frames({PaddingFrame{1200}});
    protector.protect(prime);
    size_t offset = 0;
    EXPECT_FALSE(protector.unprotect(garbage, offset).has_value());
    EXPECT_EQ(stats.aead_ctx_reuse, 1u) << "seed " << seed;
  }
}

TEST(PacketProtection, TamperingDetected) {
  crypto::Rng rng(8);
  auto dcid = rng.bytes(8);
  Packet packet;
  packet.type = PacketType::kInitial;
  packet.version = kVersion1;
  packet.dcid = dcid;
  packet.scid = rng.bytes(8);
  packet.packet_number = 1;
  packet.payload = encode_frames({CryptoFrame{0, rng.bytes(64)},
                                  PaddingFrame{1100}});
  auto prot = PacketProtector::for_initial(kVersion1, dcid, false);
  auto bytes = prot.protect(packet);
  bytes[bytes.size() / 2] ^= 0x40;
  size_t offset = 0;
  EXPECT_FALSE(prot.unprotect(bytes, offset).has_value());
}

TEST(PacketProtection, CoalescedDatagram) {
  crypto::Rng rng(9);
  auto dcid = rng.bytes(8);
  auto initial_keys = derive_initial_secrets(kVersion1, dcid);
  PacketProtector initial(tls::derive_traffic_keys(initial_keys.client,
                                                   tls::KeyUsage::kQuic));
  auto hs_secret = rng.bytes(32);
  PacketProtector handshake(
      tls::derive_traffic_keys(hs_secret, tls::KeyUsage::kQuic));

  Packet p1;
  p1.type = PacketType::kInitial;
  p1.version = kVersion1;
  p1.dcid = dcid;
  p1.scid = rng.bytes(8);
  p1.packet_number = 0;
  p1.payload = encode_frames({CryptoFrame{0, rng.bytes(50)}, PaddingFrame{40}});
  Packet p2;
  p2.type = PacketType::kHandshake;
  p2.version = kVersion1;
  p2.dcid = dcid;
  p2.scid = p1.scid;
  p2.packet_number = 0;
  p2.payload = encode_frames({CryptoFrame{0, rng.bytes(200)}});

  auto datagram = initial.protect(p1);
  auto hs_bytes = handshake.protect(p2);
  datagram.insert(datagram.end(), hs_bytes.begin(), hs_bytes.end());

  size_t offset = 0;
  auto first = initial.unprotect(datagram, offset);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->type, PacketType::kInitial);
  auto second = handshake.unprotect(datagram, offset);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->type, PacketType::kHandshake);
  EXPECT_EQ(offset, datagram.size());
}

// A client and a server PacketSpaces keyed for the same connection:
// Initial keys from the client's DCID, Handshake keys from one pair of
// secrets, and each side's headers addressed to the other.
struct SpacesPair {
  std::vector<uint8_t> client_cid, server_cid;
  HotpathStats client_stats;
  PacketSpaces client{/*is_server=*/false, &client_stats};
  PacketSpaces server{/*is_server=*/true};

  explicit SpacesPair(crypto::Rng& rng)
      : client_cid(rng.bytes(8)), server_cid(rng.bytes(8)) {
    for (PacketSpaces* spaces : {&client, &server})
      spaces->start(kVersion1, client_cid);
    client.set_cids(server_cid, client_cid);
    server.set_cids(client_cid, server_cid);
  }
  void install_handshake(crypto::Rng& rng) {
    const auto client_secret = rng.bytes(32);
    const auto server_secret = rng.bytes(32);
    for (PacketSpaces* spaces : {&client, &server})
      spaces->install(
          PacketSpaces::Space::kHandshake,
          tls::derive_traffic_keys(client_secret, tls::KeyUsage::kQuic),
          tls::derive_traffic_keys(server_secret, tls::KeyUsage::kQuic));
  }
};

TEST(PacketSpaces, NumbersEachSpaceOnItsOwnAndRestartsAtStart) {
  crypto::Rng rng(21);
  SpacesPair pair(rng);
  PacketSpaces& spaces = pair.client;
  EXPECT_EQ(spaces.next_header(PacketType::kInitial).packet_number, 0u);
  EXPECT_EQ(spaces.next_header(PacketType::kInitial).packet_number, 1u);
  EXPECT_EQ(spaces.next_header(PacketType::kHandshake).packet_number, 0u);
  EXPECT_EQ(spaces.next_header(PacketType::kOneRtt).packet_number, 0u);
  EXPECT_EQ(spaces.next_header(PacketType::kInitial).packet_number, 2u);
  EXPECT_EQ(spaces.next_number(PacketType::kInitial), 3u);
  EXPECT_EQ(spaces.next_number(PacketType::kHandshake), 1u);
  EXPECT_EQ(spaces.next_number(PacketType::kOneRtt), 1u);
  // A header carries the path, no token, and starts an empty payload.
  spaces.frames().u8(0x01);
  const Packet& header = spaces.next_header(PacketType::kHandshake);
  EXPECT_EQ(header.version, kVersion1);
  EXPECT_EQ(header.dcid, pair.server_cid);
  EXPECT_EQ(header.scid, pair.client_cid);
  EXPECT_TRUE(header.token.empty());
  EXPECT_EQ(spaces.frames().size(), 0u);
  EXPECT_THROW(spaces.next_header(PacketType::kRetry), std::logic_error);
  // A restart (after Version Negotiation or Retry) numbers from 0 again.
  spaces.start(kDraft29, pair.client_cid);
  EXPECT_EQ(spaces.next_header(PacketType::kInitial).version, kDraft29);
  EXPECT_EQ(spaces.next_number(PacketType::kInitial), 1u);
  EXPECT_EQ(spaces.next_number(PacketType::kHandshake), 0u);
}

TEST(PacketSpaces, OpensCoalescedInitialAndHandshakePieceByPiece) {
  crypto::Rng rng(22);
  SpacesPair pair(rng);
  pair.install_handshake(rng);
  // The server's flight: Initial(CRYPTO) + Handshake(CRYPTO) in one
  // datagram, each sealed with its own space's keys.
  std::vector<uint8_t> datagram;
  pair.server.next_header(PacketType::kInitial);
  encode_frame(pair.server.frames(), CryptoFrame{0, rng.bytes(90)});
  pair.server.seal_into(datagram);
  const size_t initial_size = datagram.size();
  pair.server.next_header(PacketType::kHandshake);
  encode_frame(pair.server.frames(), CryptoFrame{0, rng.bytes(300)});
  pair.server.seal_into(datagram);

  std::vector<std::pair<PacketType, size_t>> pieces;
  pair.client.open_each(datagram, [&](const Packet& packet, size_t size) {
    pieces.emplace_back(packet.type, size);
    EXPECT_EQ(packet.packet_number, 0u);
    EXPECT_EQ(packet.dcid, pair.client_cid);
    return true;
  });
  const std::vector<std::pair<PacketType, size_t>> expected = {
      {PacketType::kInitial, initial_size},
      {PacketType::kHandshake, datagram.size() - initial_size}};
  EXPECT_EQ(pieces, expected);
  EXPECT_EQ(pair.client_stats.undecryptable, 0u);

  // on_packet returning false ends the walk after the first piece.
  pieces.clear();
  pair.client.open_each(datagram, [&](const Packet& packet, size_t size) {
    pieces.emplace_back(packet.type, size);
    return false;
  });
  EXPECT_EQ(pieces.size(), 1u);
}

TEST(PacketSpaces, PieceWithoutKeysEndsTheWalk) {
  crypto::Rng rng(23);
  SpacesPair pair(rng);
  pair.install_handshake(rng);
  // The Handshake piece comes first here; the client has no Handshake
  // keys yet, so the walk stops at it and never reaches the Initial.
  PacketSpaces client(/*is_server=*/false, &pair.client_stats);
  client.start(kVersion1, pair.client_cid);
  std::vector<uint8_t> datagram;
  pair.server.next_header(PacketType::kHandshake);
  encode_frame(pair.server.frames(), CryptoFrame{0, rng.bytes(60)});
  pair.server.seal_into(datagram);
  pair.server.next_header(PacketType::kInitial);
  encode_frame(pair.server.frames(), CryptoFrame{0, rng.bytes(60)});
  pair.server.seal_into(datagram);

  size_t opened = 0;
  client.open_each(datagram, [&](const Packet&, size_t) {
    ++opened;
    return true;
  });
  EXPECT_EQ(opened, 0u);
  EXPECT_EQ(pair.client_stats.undecryptable, 1u);

  // The same pieces open once the keys are in.
  pair.client.open_each(datagram, [&](const Packet&, size_t) {
    ++opened;
    return true;
  });
  EXPECT_EQ(opened, 2u);
  EXPECT_EQ(pair.client_stats.undecryptable, 1u);
}

TEST(PacketProtection, OneRttShortHeader) {
  crypto::Rng rng(10);
  auto secret = rng.bytes(32);
  PacketProtector prot(tls::derive_traffic_keys(secret, tls::KeyUsage::kQuic));
  Packet p;
  p.type = PacketType::kOneRtt;
  p.dcid = rng.bytes(8);
  p.packet_number = 17;
  p.payload = encode_frames({StreamFrame{0, 0, true, rng.bytes(100)}});
  auto bytes = prot.protect(p);
  EXPECT_EQ(bytes[0] & 0x80, 0);  // short header
  size_t offset = 0;
  auto opened = prot.unprotect(bytes, offset);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(opened->type, PacketType::kOneRtt);
  EXPECT_EQ(opened->dcid, p.dcid);
  EXPECT_EQ(opened->packet_number, 17u);
  EXPECT_EQ(opened->payload, p.payload);
}

TEST(Peek, MalformedDatagramsRejected) {
  EXPECT_FALSE(peek_datagram({}).has_value());
  std::vector<uint8_t> junk{0xc3};  // long header, truncated
  EXPECT_FALSE(peek_datagram(junk).has_value());
}

TEST(PacketProtection, InitialWithTokenRoundTrip) {
  crypto::Rng rng(77);
  auto dcid = rng.bytes(8);
  Packet packet;
  packet.type = PacketType::kInitial;
  packet.version = kVersion1;
  packet.dcid = dcid;
  packet.scid = rng.bytes(8);
  packet.token = rng.bytes(24);  // post-Retry token travels in clear
  packet.packet_number = 2;
  packet.payload = encode_frames({CryptoFrame{0, rng.bytes(100)},
                                  PaddingFrame{1000}});
  auto protector = PacketProtector::for_initial(kVersion1, dcid, false);
  auto bytes = protector.protect(packet);
  size_t offset = 0;
  auto opened = protector.unprotect(bytes, offset);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(opened->token, packet.token);
  // Tampering with the (cleartext) token still breaks authentication:
  // the header is AEAD-associated data.
  auto tampered = bytes;
  tampered[20] ^= 0xff;
  offset = 0;
  EXPECT_FALSE(protector.unprotect(tampered, offset).has_value());
}

TEST(Peek, RetryAndVnShapes) {
  // VN: version field zero.
  VersionNegotiationPacket vn;
  vn.dcid = {1};
  vn.scid = {2};
  vn.supported_versions = {kDraft29};
  auto vn_bytes = encode_version_negotiation(vn, 3);
  auto vn_info = peek_datagram(vn_bytes);
  ASSERT_TRUE(vn_info.has_value());
  EXPECT_EQ(vn_info->type, PacketType::kVersionNegotiation);

  RetryPacket retry;
  retry.version = kVersion1;
  retry.dcid = {1, 2};
  retry.scid = {3, 4};
  retry.token = {9, 9, 9};
  std::vector<uint8_t> odcid{5, 6, 7, 8};
  auto retry_bytes = encode_retry(retry, odcid);
  auto retry_info = peek_datagram(retry_bytes);
  ASSERT_TRUE(retry_info.has_value());
  EXPECT_EQ(retry_info->type, PacketType::kRetry);
  EXPECT_EQ(retry_info->dcid, retry.dcid);
  EXPECT_EQ(retry_info->scid, retry.scid);
}

}  // namespace
