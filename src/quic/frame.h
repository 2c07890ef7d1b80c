// QUIC frame model and codec (RFC 9000 section 19), covering the frame
// types a handshake-plus-one-request exchange uses: PADDING, PING, ACK,
// CRYPTO, NEW_TOKEN is ignored, STREAM, CONNECTION_CLOSE and
// HANDSHAKE_DONE.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "wire/buffer.h"

namespace quic {

struct PaddingFrame {
  uint64_t length = 1;  // run-length of consecutive 0x00 bytes
  bool operator==(const PaddingFrame&) const = default;
};

struct PingFrame {
  bool operator==(const PingFrame&) const = default;
};

struct AckRange {
  uint64_t gap = 0;
  uint64_t length = 0;
  bool operator==(const AckRange&) const = default;
};

struct AckFrame {
  uint64_t largest_acknowledged = 0;
  uint64_t ack_delay = 0;
  uint64_t first_ack_range = 0;
  std::vector<AckRange> ranges;
  bool operator==(const AckFrame&) const = default;
};

struct CryptoFrame {
  uint64_t offset = 0;
  std::vector<uint8_t> data;
  bool operator==(const CryptoFrame&) const = default;
};

struct StreamFrame {
  uint64_t stream_id = 0;
  uint64_t offset = 0;
  bool fin = false;
  std::vector<uint8_t> data;
  bool operator==(const StreamFrame&) const = default;
};

struct ConnectionCloseFrame {
  uint64_t error_code = 0;
  // Transport close (0x1c) carries the offending frame type;
  // application close (0x1d) does not.
  bool application = false;
  uint64_t frame_type = 0;
  std::string reason_phrase;
  bool operator==(const ConnectionCloseFrame&) const = default;
};

struct HandshakeDoneFrame {
  bool operator==(const HandshakeDoneFrame&) const = default;
};

using Frame = std::variant<PaddingFrame, PingFrame, AckFrame, CryptoFrame,
                           StreamFrame, ConnectionCloseFrame,
                           HandshakeDoneFrame>;

/// QUIC transport error codes (RFC 9000 section 20.1).
inline constexpr uint64_t kNoError = 0x00;
inline constexpr uint64_t kInternalError = 0x01;
inline constexpr uint64_t kProtocolViolation = 0x0a;
/// CRYPTO_ERROR range: 0x0100 + TLS alert. The paper's "QUIC Alert
/// 0x128" is kCryptoErrorBase + handshake_failure(0x28).
inline constexpr uint64_t kCryptoErrorBase = 0x0100;

constexpr uint64_t crypto_error(uint8_t tls_alert) {
  return kCryptoErrorBase + tls_alert;
}
constexpr bool is_crypto_error(uint64_t code) {
  return code >= 0x0100 && code <= 0x01ff;
}

/// Frame decode failure with the cause split out for the
/// protocol-error taxonomy. Subtype of wire::DecodeError so every
/// existing catch site keeps working; hardened callers catch this first
/// to distinguish an unknown frame type from a truncated encoding.
class FrameDecodeError : public wire::DecodeError {
 public:
  enum class Kind { kUnknownType, kMalformed };
  FrameDecodeError(Kind kind, uint64_t frame_type, const std::string& what)
      : wire::DecodeError(what), kind(kind), frame_type(frame_type) {}
  Kind kind;
  uint64_t frame_type;
};

void encode_frame(wire::Writer& w, const Frame& frame);
/// Appends a CRYPTO frame carrying `data` at `offset`, the encoding
/// encode_frame gives a CryptoFrame, without copying `data` into one.
void encode_crypto_frame(wire::Writer& w, uint64_t offset,
                         std::span<const uint8_t> data);
std::vector<uint8_t> encode_frames(const std::vector<Frame>& frames);

/// Appends the frames' encoding to `w` without clearing it. Hot paths
/// keep one Writer per connection and call w.clear() between packets so
/// frame encoding reuses the same allocation for a whole handshake.
void encode_frames_into(wire::Writer& w, std::span<const Frame> frames);

/// Decodes all frames in a packet payload; consecutive PADDING bytes
/// collapse into one PaddingFrame. Throws wire::DecodeError on unknown
/// frame types or malformed contents.
std::vector<Frame> decode_frames(std::span<const uint8_t> payload);

/// First CRYPTO frame in the list, or nullptr.
const CryptoFrame* find_crypto(const std::vector<Frame>& frames);
const ConnectionCloseFrame* find_close(const std::vector<Frame>& frames);
const StreamFrame* find_stream(const std::vector<Frame>& frames);

}  // namespace quic
