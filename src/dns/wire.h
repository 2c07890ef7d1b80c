// DNS wire format (RFC 1035) message codec, extended with SVCB/HTTPS
// RDATA (draft-ietf-dnsop-svcb-https-05 section 2.2). Names are encoded
// uncompressed; the decoder additionally accepts compression pointers.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dns/types.h"
#include "wire/buffer.h"

namespace dns {

struct Question {
  std::string name;
  RRType type = RRType::kA;

  bool operator==(const Question&) const = default;
};

struct Message {
  uint16_t id = 0;
  bool is_response = false;
  bool recursion_desired = true;
  bool recursion_available = false;
  RCode rcode = RCode::kNoError;
  std::vector<Question> questions;
  RecordList answers;
  RecordList authority;
  RecordList additional;
};

std::vector<uint8_t> encode_message(const Message& msg);
/// Appends the encoding of `msg` to `w`; a caller that clears and reuses
/// one Writer per message allocates nothing once it has grown.
void encode_message(const Message& msg, wire::Writer& w);

/// Throws wire::DecodeError on malformed input.
Message decode_message(std::span<const uint8_t> data);
/// Decodes into `msg`, overwriting every field and reusing the capacity
/// of its sections and strings, and the records a section dropped. On a
/// throw `msg` holds unspecified partial content; the next decode into
/// it still equals a fresh one.
void decode_message(std::span<const uint8_t> data, Message& msg);

// Exposed for tests.
void encode_name(wire::Writer& w, std::string_view name);
std::string decode_name(wire::Reader& r, std::span<const uint8_t> whole);

}  // namespace dns
