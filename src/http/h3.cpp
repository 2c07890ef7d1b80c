#include "http/h3.h"

#include <charconv>
#include <span>
#include <string_view>

namespace http::h3 {

namespace {

using PseudoHeader = std::pair<std::string_view, std::string_view>;

size_t field_size(std::string_view name, std::string_view value) {
  return wire::varint_size(name.size()) + name.size() +
         wire::varint_size(value.size()) + value.size();
}

void encode_field(wire::Writer& w, std::string_view name,
                  std::string_view value) {
  w.varint(name.size());
  w.str(name);
  w.varint(value.size());
  w.str(value);
}

/// One HEADERS frame carrying the pseudo-headers and then `headers` in
/// the literal field-line encoding (the QPACK substitution: count, then
/// (name-length, name, value-length, value) tuples, all varints),
/// followed by a DATA frame carrying `body` when it is not empty. The
/// buffer is sized once, from the lengths.
std::vector<uint8_t> encode_message(std::span<const PseudoHeader> pseudo,
                                    const Headers& headers,
                                    std::string_view body) {
  const size_t count = pseudo.size() + headers.size();
  size_t block = wire::varint_size(count);
  for (const auto& [name, value] : pseudo) block += field_size(name, value);
  for (const auto& [name, value] : headers.entries())
    block += field_size(name, value);
  size_t total = wire::varint_size(kFrameHeaders) +
                 wire::varint_size(block) + block;
  if (!body.empty())
    total += wire::varint_size(kFrameData) + wire::varint_size(body.size()) +
             body.size();

  wire::Writer w(total);
  w.varint(kFrameHeaders);
  w.varint(block);
  w.varint(count);
  for (const auto& [name, value] : pseudo) encode_field(w, name, value);
  for (const auto& [name, value] : headers.entries())
    encode_field(w, name, value);
  if (!body.empty()) {
    w.varint(kFrameData);
    w.varint(body.size());
    w.str(body);
  }
  return w.take();
}

std::vector<std::pair<std::string, std::string>> decode_fields(
    std::span<const uint8_t> payload) {
  wire::Reader r(payload);
  uint64_t count = r.varint();
  std::vector<std::pair<std::string, std::string>> fields;
  fields.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::string name = r.str(r.varint());
    std::string value = r.str(r.varint());
    fields.emplace_back(std::move(name), std::move(value));
  }
  return fields;
}

}  // namespace

void encode_frame(wire::Writer& w, const Frame& frame) {
  w.varint(frame.type);
  w.varint(frame.payload.size());
  w.bytes(frame.payload);
}

std::vector<uint8_t> encode_frames(const std::vector<Frame>& frames) {
  size_t total = 0;
  for (const auto& frame : frames)
    total += wire::varint_size(frame.type) +
             wire::varint_size(frame.payload.size()) + frame.payload.size();
  wire::Writer w(total);
  for (const auto& frame : frames) encode_frame(w, frame);
  return w.take();
}

std::vector<Frame> decode_frames(std::span<const uint8_t> data) {
  std::vector<Frame> frames;
  wire::Reader r(data);
  while (!r.done()) {
    Frame frame;
    frame.type = r.varint();
    frame.payload = r.bytes_copy(r.varint());
    frames.push_back(std::move(frame));
  }
  return frames;
}

std::vector<uint8_t> encode_request(const Request& request) {
  const PseudoHeader pseudo[] = {
      {":method", request.method},
      {":scheme", request.scheme},
      {":authority", request.authority},
      {":path", request.path},
  };
  return encode_message(pseudo, request.headers, {});
}

std::optional<Request> decode_request(std::span<const uint8_t> stream) {
  try {
    Request request;
    bool saw_headers = false;
    for (const auto& frame : decode_frames(stream)) {
      if (frame.type != kFrameHeaders) continue;
      saw_headers = true;
      for (auto& [name, value] : decode_fields(frame.payload)) {
        if (name == ":method")
          request.method = value;
        else if (name == ":scheme")
          request.scheme = value;
        else if (name == ":authority")
          request.authority = value;
        else if (name == ":path")
          request.path = value;
        else if (!name.empty() && name[0] != ':')
          request.headers.add(name, value);
      }
    }
    if (!saw_headers) return std::nullopt;
    return request;
  } catch (const wire::DecodeError&) {
    return std::nullopt;
  }
}

std::vector<uint8_t> encode_response(const Response& response) {
  const std::string status = std::to_string(response.status);
  const PseudoHeader pseudo[] = {{":status", status}};
  return encode_message(pseudo, response.headers, response.body);
}

std::optional<Response> decode_response(std::span<const uint8_t> stream) {
  try {
    Response response;
    bool saw_headers = false;
    for (const auto& frame : decode_frames(stream)) {
      if (frame.type == kFrameHeaders) {
        saw_headers = true;
        for (auto& [name, value] : decode_fields(frame.payload)) {
          if (name == ":status") {
            auto [p, ec] = std::from_chars(value.data(),
                                           value.data() + value.size(),
                                           response.status);
            if (ec != std::errc{}) return std::nullopt;
          } else if (!name.empty() && name[0] != ':') {
            response.headers.add(name, value);
          }
        }
      } else if (frame.type == kFrameData) {
        response.body.append(frame.payload.begin(), frame.payload.end());
      }
    }
    if (!saw_headers) return std::nullopt;
    return response;
  } catch (const wire::DecodeError&) {
    return std::nullopt;
  }
}

}  // namespace http::h3
