// Decoder fuzz sweeps: every network-facing parser must handle
// adversarial bytes by throwing wire::DecodeError or returning an empty
// optional -- never crashing, looping or reading out of bounds. Inputs
// are seeded random buffers plus mutated valid messages.
#include <gtest/gtest.h>

#include "crypto/rng.h"
#include "dns/resolver.h"
#include "dns/wire.h"
#include "http/alt_svc.h"
#include "http/h3.h"
#include "http/message.h"
#include "quic/frame.h"
#include "quic/packet.h"
#include "quic/transport_params.h"
#include "tls/handshake.h"
#include "tls/record.h"

namespace {

class FuzzSeed : public ::testing::TestWithParam<int> {
 protected:
  crypto::Rng rng{static_cast<uint64_t>(GetParam()) * 2654435761u + 17};
};

TEST_P(FuzzSeed, QuicFrameDecoderNeverCrashes) {
  for (int round = 0; round < 40; ++round) {
    auto bytes = rng.bytes(rng.below(300));
    try {
      auto frames = quic::decode_frames(bytes);
      // If it decodes, re-encoding must not throw either.
      quic::encode_frames(frames);
    } catch (const wire::DecodeError&) {
    }
  }
}

TEST_P(FuzzSeed, TransportParamsDecoderNeverCrashes) {
  for (int round = 0; round < 40; ++round) {
    auto bytes = rng.bytes(rng.below(200));
    try {
      quic::decode_transport_parameters(bytes);
    } catch (const wire::DecodeError&) {
    }
  }
}

TEST_P(FuzzSeed, TlsHandshakeDecoderNeverCrashes) {
  for (int round = 0; round < 40; ++round) {
    auto bytes = rng.bytes(rng.below(400));
    try {
      tls::decode_handshake_flight(bytes);
    } catch (const wire::DecodeError&) {
    }
  }
}

TEST_P(FuzzSeed, TlsRecordDecoderNeverCrashes) {
  for (int round = 0; round < 40; ++round) {
    auto bytes = rng.bytes(rng.below(400));
    try {
      tls::decode_records(bytes);
    } catch (const wire::DecodeError&) {
    }
  }
}

TEST_P(FuzzSeed, DnsMessageDecoderNeverCrashes) {
  for (int round = 0; round < 40; ++round) {
    auto bytes = rng.bytes(rng.below(300));
    try {
      dns::decode_message(bytes);
    } catch (const wire::DecodeError&) {
    } catch (const std::bad_variant_access&) {
      ADD_FAILURE() << "variant misuse on garbage input";
    }
  }
}

TEST_P(FuzzSeed, DnsServeNeverCrashes) {
  dns::ZoneStore zones;
  zones.add({"example.com", dns::RRType::kA, 300,
             dns::ARecord{netsim::IpAddress::v4(0x01020304)}});
  zones.add({"www.example.com", dns::RRType::kCname, 300,
             dns::CnameRecord{"example.com"}});
  dns::SvcbData https;
  https.alpn = {"h3", "h3-29"};
  https.ipv4_hints = {netsim::IpAddress::v4(0x01020304)};
  zones.add({"example.com", dns::RRType::kHttps, 300, https});
  dns::Message query;
  query.id = 0x5151;
  query.questions.push_back({"www.example.com", dns::RRType::kHttps});
  const auto valid = dns::encode_message(query);
  // Scratch reused across rounds, as a Resolver keeps it: a throw must
  // not leave it in a state that breaks the next query.
  dns::Message scratch;
  wire::Writer out;
  for (int round = 0; round < 40; ++round) {
    std::vector<uint8_t> bytes;
    if (round % 2) {
      bytes = rng.bytes(rng.below(300));
    } else {
      bytes = valid;
      for (uint64_t flips = 1 + rng.below(4); flips > 0; --flips)
        bytes[rng.below(bytes.size())] ^=
            static_cast<uint8_t>(1 + rng.below(255));
    }
    // Anything but wire::DecodeError escapes and fails the test.
    try {
      out.clear();
      zones.serve(bytes, scratch, out);
      EXPECT_EQ(zones.serve(bytes), out.data());
    } catch (const wire::DecodeError&) {
    }
  }
}

TEST_P(FuzzSeed, PacketUnprotectNeverCrashes) {
  auto dcid = rng.bytes(8);
  auto protector =
      quic::PacketProtector::for_initial(quic::kVersion1, dcid, false);
  for (int round = 0; round < 30; ++round) {
    auto bytes = rng.bytes(50 + rng.below(1400));
    size_t offset = 0;
    EXPECT_FALSE(protector.unprotect(bytes, offset).has_value());
  }
}

TEST_P(FuzzSeed, MutatedValidPacketEitherOpensOrFailsClean) {
  auto dcid = rng.bytes(8);
  auto protector =
      quic::PacketProtector::for_initial(quic::kDraft29, dcid, false);
  quic::Packet packet;
  packet.type = quic::PacketType::kInitial;
  packet.version = quic::kDraft29;
  packet.dcid = dcid;
  packet.scid = rng.bytes(8);
  packet.packet_number = 7;
  packet.payload = quic::encode_frames(
      {quic::CryptoFrame{0, rng.bytes(200)}, quic::PaddingFrame{400}});
  auto valid = protector.protect(packet);
  for (int round = 0; round < 60; ++round) {
    auto mutated = valid;
    size_t flips = 1 + rng.below(4);
    for (size_t f = 0; f < flips; ++f)
      mutated[rng.below(mutated.size())] ^=
          static_cast<uint8_t>(1 + rng.below(255));
    size_t offset = 0;
    auto opened = protector.unprotect(mutated, offset);
    if (opened) {
      // Only possible if the mutation missed everything authenticated
      // -- i.e. the bytes are identical (flips cancelled out).
      EXPECT_EQ(mutated, valid);
    }
  }
}

TEST_P(FuzzSeed, AltSvcParserNeverCrashes) {
  static constexpr char kChars[] =
      "abcdeh3-29=\":,; %Q\\\"0127m" ;
  for (int round = 0; round < 60; ++round) {
    std::string value;
    size_t len = rng.below(60);
    for (size_t i = 0; i < len; ++i)
      value.push_back(kChars[rng.below(sizeof kChars - 1)]);
    http::parse_alt_svc(value);  // must not crash; result irrelevant
  }
}

TEST_P(FuzzSeed, H3DecodersNeverCrash) {
  for (int round = 0; round < 40; ++round) {
    auto bytes = rng.bytes(rng.below(300));
    http::h3::decode_request(bytes);
    http::h3::decode_response(bytes);
  }
}

TEST_P(FuzzSeed, HttpParsersNeverCrash) {
  static constexpr char kChars[] = "GET /HTTP1.02 \r\n:ab;=";
  for (int round = 0; round < 60; ++round) {
    std::string text;
    size_t len = rng.below(120);
    for (size_t i = 0; i < len; ++i)
      text.push_back(kChars[rng.below(sizeof kChars - 1)]);
    http::Request::parse(text);
    http::Response::parse(text);
  }
}

TEST_P(FuzzSeed, VersionNegotiationDecoderNeverCrashes) {
  for (int round = 0; round < 40; ++round) {
    auto bytes = rng.bytes(rng.below(100));
    quic::decode_version_negotiation(bytes);
    quic::peek_datagram(bytes);
    auto odcid = rng.bytes(8);
    quic::decode_retry(bytes, odcid);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeed, ::testing::Range(0, 8));

}  // namespace
