// HTTP/3-lite framing (RFC 9114 frame layer). Requests and responses on
// QUIC stream 0 travel as real HTTP/3 frames -- SETTINGS, HEADERS, DATA
// with varint type/length framing -- with one documented substitution:
// header fields are encoded as length-prefixed literals instead of
// QPACK (RFC 9204), whose dynamic-table machinery none of the paper's
// analyses depend on (see DESIGN.md section 7).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "http/headers.h"
#include "wire/buffer.h"

namespace http::h3 {

// Frame types (RFC 9114 section 7.2).
inline constexpr uint64_t kFrameData = 0x00;
inline constexpr uint64_t kFrameHeaders = 0x01;
inline constexpr uint64_t kFrameSettings = 0x04;
inline constexpr uint64_t kFrameGoaway = 0x07;

struct Frame {
  uint64_t type = kFrameData;
  std::vector<uint8_t> payload;

  bool operator==(const Frame&) const = default;
};

void encode_frame(wire::Writer& w, const Frame& frame);
std::vector<uint8_t> encode_frames(const std::vector<Frame>& frames);
/// Decodes a stream of frames; throws wire::DecodeError when truncated.
std::vector<Frame> decode_frames(std::span<const uint8_t> data);

/// A request as HTTP/3 sees it: pseudo-headers + fields.
struct Request {
  std::string method = "GET";
  std::string scheme = "https";
  std::string authority;
  std::string path = "/";
  Headers headers;

  bool operator==(const Request&) const = default;
};

struct Response {
  int status = 200;
  Headers headers;
  std::string body;

  bool operator==(const Response&) const = default;
};

/// Serializes HEADERS (+DATA when a body exists) onto a request stream.
std::vector<uint8_t> encode_request(const Request& request);
std::optional<Request> decode_request(std::span<const uint8_t> stream);

std::vector<uint8_t> encode_response(const Response& response);
std::optional<Response> decode_response(std::span<const uint8_t> stream);

}  // namespace http::h3
