#include "quic/frame.h"

#include <algorithm>

namespace quic {

namespace {
constexpr uint64_t kTypePadding = 0x00;
constexpr uint64_t kTypePing = 0x01;
constexpr uint64_t kTypeAck = 0x02;  // without ECN counts
constexpr uint64_t kTypeCrypto = 0x06;
constexpr uint64_t kTypeStreamBase = 0x08;  // 0x08..0x0f with OFF/LEN/FIN bits
constexpr uint64_t kTypeCloseTransport = 0x1c;
constexpr uint64_t kTypeCloseApplication = 0x1d;
constexpr uint64_t kTypeHandshakeDone = 0x1e;
}  // namespace

void encode_frame(wire::Writer& w, const Frame& frame) {
  std::visit(
      [&w](const auto& f) {
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<T, PaddingFrame>) {
          w.zeros(f.length);
        } else if constexpr (std::is_same_v<T, PingFrame>) {
          w.varint(kTypePing);
        } else if constexpr (std::is_same_v<T, AckFrame>) {
          w.varint(kTypeAck);
          w.varint(f.largest_acknowledged);
          w.varint(f.ack_delay);
          w.varint(f.ranges.size());
          w.varint(f.first_ack_range);
          for (const auto& range : f.ranges) {
            w.varint(range.gap);
            w.varint(range.length);
          }
        } else if constexpr (std::is_same_v<T, CryptoFrame>) {
          encode_crypto_frame(w, f.offset, f.data);
        } else if constexpr (std::is_same_v<T, StreamFrame>) {
          // Always emit OFF and LEN bits for unambiguous framing.
          uint64_t type = kTypeStreamBase | 0x04 | 0x02 | (f.fin ? 0x01 : 0);
          w.varint(type);
          w.varint(f.stream_id);
          w.varint(f.offset);
          w.varint(f.data.size());
          w.bytes(f.data);
        } else if constexpr (std::is_same_v<T, ConnectionCloseFrame>) {
          w.varint(f.application ? kTypeCloseApplication
                                 : kTypeCloseTransport);
          w.varint(f.error_code);
          if (!f.application) w.varint(f.frame_type);
          w.varint(f.reason_phrase.size());
          w.str(f.reason_phrase);
        } else if constexpr (std::is_same_v<T, HandshakeDoneFrame>) {
          w.varint(kTypeHandshakeDone);
        }
      },
      frame);
}

void encode_crypto_frame(wire::Writer& w, uint64_t offset,
                         std::span<const uint8_t> data) {
  w.varint(kTypeCrypto);
  w.varint(offset);
  w.varint(data.size());
  w.bytes(data);
}

void encode_frames_into(wire::Writer& w, std::span<const Frame> frames) {
  for (const auto& f : frames) encode_frame(w, f);
}

std::vector<uint8_t> encode_frames(const std::vector<Frame>& frames) {
  wire::Writer& w = wire::scratch_writer();
  encode_frames_into(w, frames);
  return w.data();
}

std::vector<Frame> decode_frames(std::span<const uint8_t> payload) {
  std::vector<Frame> frames;
  frames.reserve(4);  // a handshake packet carries one to three frames
  wire::Reader r(payload);
  while (!r.done()) {
    if (r.peek_u8() == 0x00) {
      uint64_t run = 0;
      while (!r.done() && r.peek_u8() == 0x00) {
        r.u8();
        ++run;
      }
      frames.push_back(PaddingFrame{run});
      continue;
    }
    uint64_t type = r.varint();
    if (type == kTypePing) {
      frames.push_back(PingFrame{});
    } else if (type == kTypeAck || type == kTypeAck + 1) {
      AckFrame ack;
      ack.largest_acknowledged = r.varint();
      ack.ack_delay = r.varint();
      uint64_t range_count = r.varint();
      ack.first_ack_range = r.varint();
      for (uint64_t i = 0; i < range_count; ++i) {
        AckRange range;
        range.gap = r.varint();
        range.length = r.varint();
        ack.ranges.push_back(range);
      }
      if (type == kTypeAck + 1) {  // ECN counts
        r.varint();
        r.varint();
        r.varint();
      }
      frames.push_back(std::move(ack));
    } else if (type == kTypeCrypto) {
      CryptoFrame crypto;
      crypto.offset = r.varint();
      uint64_t len = r.varint();
      crypto.data = r.bytes_copy(len);
      frames.push_back(std::move(crypto));
    } else if (type >= kTypeStreamBase && type <= kTypeStreamBase + 0x07) {
      StreamFrame stream;
      bool has_offset = type & 0x04;
      bool has_length = type & 0x02;
      stream.fin = type & 0x01;
      stream.stream_id = r.varint();
      if (has_offset) stream.offset = r.varint();
      if (has_length) {
        uint64_t len = r.varint();
        stream.data = r.bytes_copy(len);
      } else {
        auto rest = r.rest();
        stream.data.assign(rest.begin(), rest.end());
      }
      frames.push_back(std::move(stream));
    } else if (type == kTypeCloseTransport || type == kTypeCloseApplication) {
      ConnectionCloseFrame close;
      close.application = type == kTypeCloseApplication;
      close.error_code = r.varint();
      if (!close.application) close.frame_type = r.varint();
      uint64_t reason_len = r.varint();
      close.reason_phrase = r.str(reason_len);
      frames.push_back(std::move(close));
    } else if (type == kTypeHandshakeDone) {
      frames.push_back(HandshakeDoneFrame{});
    } else {
      throw FrameDecodeError(FrameDecodeError::Kind::kUnknownType, type,
                             "unknown frame type 0x" + std::to_string(type));
    }
  }
  return frames;
}

const CryptoFrame* find_crypto(const std::vector<Frame>& frames) {
  for (const auto& f : frames)
    if (const auto* c = std::get_if<CryptoFrame>(&f)) return c;
  return nullptr;
}

const ConnectionCloseFrame* find_close(const std::vector<Frame>& frames) {
  for (const auto& f : frames)
    if (const auto* c = std::get_if<ConnectionCloseFrame>(&f)) return c;
  return nullptr;
}

const StreamFrame* find_stream(const std::vector<Frame>& frames) {
  for (const auto& f : frames)
    if (const auto* s = std::get_if<StreamFrame>(&f)) return s;
  return nullptr;
}

}  // namespace quic
