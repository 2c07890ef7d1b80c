#include "quic/connection.h"

#include <algorithm>
#include <utility>

#include "crypto/sha256.h"

namespace quic {

namespace {

/// Appends to `w` the payload of an Initial datagram padded so the
/// protected datagram reaches `target` bytes (RFC 9000 section 14.1).
/// Callers pass their reusable frame scratch as `w`.
void pad_initial_payload_into(std::span<const Frame> frames,
                              size_t header_overhead, size_t target,
                              wire::Writer& w) {
  encode_frames_into(w, frames);
  size_t protected_size = header_overhead + w.size() + 16 /* tag */;
  if (protected_size < target)
    encode_frame(w, PaddingFrame{target - protected_size});
}

/// Header bytes an Initial long header occupies before the payload,
/// assuming 2-byte packet numbers and an empty token.
size_t initial_header_overhead(const ConnectionId& dcid,
                               const ConnectionId& scid,
                               size_t payload_estimate) {
  // first(1) + version(4) + dcid len(1)+n + scid len(1)+n + token len(1)
  // + length varint + pn(2)
  size_t length_value = 2 + payload_estimate + 16;
  return 1 + 4 + 1 + dcid.size() + 1 + scid.size() + 1 +
         wire::varint_size(length_value) + 2;
}

/// QUIC packet-protection keys from one side's traffic secret.
template <typename Secret>
tls::TrafficKeys quic_keys(const Secret& secret) {
  return tls::derive_traffic_keys(secret, tls::KeyUsage::kQuic);
}

/// The transport-parameters codepoint: RFC 9001 assigns 0x39 for v1;
/// every draft used 0xffa5.
uint16_t tp_codepoint(Version version) {
  return static_cast<uint16_t>(
      version == kVersion1 ? tls::ExtensionType::kQuicTransportParameters
                           : tls::ExtensionType::kQuicTransportParametersDraft);
}

/// --- telemetry helpers ----------------------------------------------

const char* packet_type_name(PacketType type) {
  switch (type) {
    case PacketType::kInitial: return "initial";
    case PacketType::kZeroRtt: return "0rtt";
    case PacketType::kHandshake: return "handshake";
    case PacketType::kRetry: return "retry";
    case PacketType::kOneRtt: return "1rtt";
    case PacketType::kVersionNegotiation: return "version_negotiation";
  }
  return "?";
}

const char* frame_name(const Frame& frame) {
  if (std::holds_alternative<PaddingFrame>(frame)) return "padding";
  if (std::holds_alternative<PingFrame>(frame)) return "ping";
  if (std::holds_alternative<AckFrame>(frame)) return "ack";
  if (std::holds_alternative<CryptoFrame>(frame)) return "crypto";
  if (std::holds_alternative<StreamFrame>(frame)) return "stream";
  if (std::holds_alternative<ConnectionCloseFrame>(frame))
    return "connection_close";
  if (std::holds_alternative<HandshakeDoneFrame>(frame))
    return "handshake_done";
  return "?";
}

std::string versions_to_string(const std::vector<Version>& versions) {
  std::string out;
  for (Version v : versions) {
    if (!out.empty()) out += ' ';
    out += version_name(v);
  }
  return out;
}

const char* message_name(const tls::HandshakeMessage& msg) {
  if (std::holds_alternative<tls::EncryptedExtensions>(msg))
    return "encrypted_extensions";
  if (std::holds_alternative<tls::CertificateMessage>(msg))
    return "certificate";
  if (std::holds_alternative<tls::CertificateVerify>(msg))
    return "certificate_verify";
  if (std::holds_alternative<tls::Finished>(msg)) return "finished";
  return "?";
}

/// ACK sanity (RFC 9000 section 19.3): every acknowledged packet number
/// must have been sent (`largest < next_pn`) and the ranges must not
/// wrap below zero.
bool ack_frame_valid(const AckFrame& ack, uint64_t next_pn) {
  if (ack.largest_acknowledged >= next_pn) return false;
  if (ack.first_ack_range > ack.largest_acknowledged) return false;
  uint64_t smallest = ack.largest_acknowledged - ack.first_ack_range;
  for (const auto& range : ack.ranges) {
    if (smallest < range.gap + 2) return false;
    uint64_t next_largest = smallest - range.gap - 2;
    if (range.length > next_largest) return false;
    smallest = next_largest - range.length;
  }
  return true;
}

}  // namespace

std::string to_string(ConnectResult result) {
  switch (result) {
    case ConnectResult::kPending: return "pending";
    case ConnectResult::kSuccess: return "success";
    case ConnectResult::kVersionMismatch: return "version-mismatch";
    case ConnectResult::kCryptoError: return "crypto-error";
    case ConnectResult::kTransportError: return "transport-error";
    case ConnectResult::kInternalError: return "internal-error";
    case ConnectResult::kProtocolViolation: return "protocol-violation";
  }
  return "?";
}

std::string to_string(ProtocolError error) {
  switch (error) {
    case ProtocolError::kNone: return "none";
    case ProtocolError::kTpMalformed: return "tp_malformed";
    case ProtocolError::kTpDuplicate: return "tp_duplicate";
    case ProtocolError::kFrameUnknown: return "frame_unknown";
    case ProtocolError::kFrameEncoding: return "frame_encoding";
    case ProtocolError::kFrameIllegal: return "frame_illegal";
    case ProtocolError::kAckInvalid: return "ack_invalid";
    case ProtocolError::kCryptoInconsistent: return "crypto_inconsistent";
    case ProtocolError::kTlsDecode: return "tls_decode";
    case ProtocolError::kVnLoop: return "vn_loop";
    case ProtocolError::kCount: break;
  }
  return "?";
}

/// --- ClientConnection ------------------------------------------------

ClientConnection::ClientConnection(ClientConfig config, crypto::Rng rng,
                                   SendFn send, DoneFn done)
    : config_(std::move(config)),
      rng_(std::move(rng)),
      send_(std::move(send)),
      done_(std::move(done)) {}

void ClientConnection::start() { send_initial_flight(); }

void ClientConnection::send_initial_flight() {
  // After a Retry the client continues with the server-chosen DCID and
  // derives fresh Initial keys from it (RFC 9001 section 5.2).
  dcid_ = retry_dcid_ ? *retry_dcid_ : rng_.bytes(8);
  const ConnectionId scid = rng_.bytes(8);
  TransportParameters tp = config_.transport_params;
  tp.initial_source_connection_id = scid;
  handshake_.emplace(rng_, config_.sni, config_.alpn,
                     std::vector<uint16_t>{tls::kVersion13},
                     tls::TransportParametersExtension{
                         tp_codepoint(config_.version),
                         encode_transport_parameters(tp)});
  handshake_crypto_.clear();
  spaces_.start(config_.version, dcid_);
  spaces_.set_cids(dcid_, scid);

  const std::vector<uint8_t>& client_hello = handshake_->client_hello();
  Packet& packet = spaces_.next_header(PacketType::kInitial);
  packet.token.assign(retry_token_.begin(), retry_token_.end());
  const Frame ch_frame = CryptoFrame{0, client_hello};
  size_t overhead =
      initial_header_overhead(dcid_, scid, client_hello.size() + 1100) +
      retry_token_.size();
  pad_initial_payload_into({&ch_frame, 1}, overhead, kMinInitialDatagramSize,
                           spaces_.frames());
  if (config_.tracer.active()) {
    config_.tracer.emit(
        telemetry::EventType::kTlsMessage,
        {{"message", "client_hello"},
         {"size", static_cast<uint64_t>(client_hello.size())}});
    config_.tracer.emit(telemetry::EventType::kKeyUpdate,
                        {{"level", "initial"}});
  }
  // State must advance before send_: over a zero-latency loopback the
  // reply can arrive nested inside the send callback.
  state_ = State::kAwaitServerHello;
  last_initial_datagram_.clear();
  spaces_.seal_into(last_initial_datagram_);
  if (config_.tracer.active())
    config_.tracer.emit(
        telemetry::EventType::kPacketSent,
        {{"packet_type", "initial"},
         {"packet_number", packet.packet_number},
         {"version", version_name(config_.version)},
         {"size", static_cast<uint64_t>(last_initial_datagram_.size())}});
  send_(last_initial_datagram_);
}

void ClientConnection::retransmit_initial() {
  if (state_ != State::kAwaitServerHello || last_initial_datagram_.empty())
    return;
  if (config_.tracer.active())
    config_.tracer.emit(
        telemetry::EventType::kPacketSent,
        {{"packet_type", "initial"},
         {"retransmission", true},
         {"size", static_cast<uint64_t>(last_initial_datagram_.size())}});
  send_(last_initial_datagram_);
}

void ClientConnection::finish(ConnectResult result) {
  if (state_ == State::kDone) return;
  state_ = State::kDone;
  report_.result = result;
  report_.negotiated_version = config_.version;
  if (config_.tracer.active())
    config_.tracer.emit(
        telemetry::EventType::kConnectionClosed,
        {{"result", to_string(result)},
         {"error_code", report_.close_error_code},
         {"reason", report_.close_reason},
         {"protocol_error", to_string(report_.protocol_error)}});
  if (done_) done_(report_);
}

void ClientConnection::fail_protocol(ProtocolError error,
                                     const std::string& reason) {
  report_.protocol_error = error;
  if (report_.close_reason.empty()) report_.close_reason = reason;
  if (config_.tracer.active())
    config_.tracer.emit(telemetry::EventType::kProtocolError,
                        {{"cause", to_string(error)}, {"reason", reason}});
  finish(ConnectResult::kProtocolViolation);
}

std::optional<std::vector<Frame>> ClientConnection::read_frames(
    const Packet& packet) {
  std::vector<Frame> frames;
  try {
    frames = decode_frames(packet.payload);
  } catch (const FrameDecodeError& e) {
    fail_protocol(e.kind == FrameDecodeError::Kind::kUnknownType
                      ? ProtocolError::kFrameUnknown
                      : ProtocolError::kFrameEncoding,
                  e.what());
    return std::nullopt;
  } catch (const wire::DecodeError& e) {
    fail_protocol(ProtocolError::kFrameEncoding, e.what());
    return std::nullopt;
  }
  const char* space = packet_type_name(packet.type);
  if (config_.tracer.active())
    for (const auto& frame : frames)
      config_.tracer.emit(
          telemetry::EventType::kFrameProcessed,
          {{"level", space}, {"frame_type", frame_name(frame)}});
  if (const auto* close = find_close(frames)) {
    report_.close_error_code = close->error_code;
    report_.close_reason = close->reason_phrase;
    finish(is_crypto_error(close->error_code) ? ConnectResult::kCryptoError
                                              : ConnectResult::kTransportError);
    return std::nullopt;
  }
  // Space legality (RFC 9000 section 12.4), and ACK sanity against the
  // next unsent packet number in this space.
  const bool handshake_space = packet.type == PacketType::kInitial ||
                               packet.type == PacketType::kHandshake;
  const uint64_t next_pn = spaces_.next_number(packet.type);
  for (const auto& frame : frames) {
    if (handshake_space && (std::holds_alternative<StreamFrame>(frame) ||
                            std::holds_alternative<HandshakeDoneFrame>(frame))) {
      fail_protocol(ProtocolError::kFrameIllegal,
                    std::string(frame_name(frame)) + " frame in " + space +
                        " packet");
      return std::nullopt;
    }
    if (const auto* ack = std::get_if<AckFrame>(&frame);
        ack && !ack_frame_valid(*ack, next_pn)) {
      fail_protocol(ProtocolError::kAckInvalid,
                    "ACK for unsent packets or inverted range");
      return std::nullopt;
    }
  }
  return frames;
}

void ClientConnection::process_version_negotiation(
    const VersionNegotiationPacket& vn) {
  report_.peer_versions = vn.supported_versions;
  if (config_.tracer.active())
    config_.tracer.emit(
        telemetry::EventType::kVersionNegotiation,
        {{"offered", version_name(config_.version)},
         {"server_versions", versions_to_string(vn.supported_versions)}});
  // A usable alternative is a compatible version the server claims to
  // support, different from the one just rejected.
  if (report_.version_retries == 0) {
    for (Version v : config_.compatible_versions) {
      if (v == config_.version) continue;
      if (std::find(vn.supported_versions.begin(), vn.supported_versions.end(),
                    v) != vn.supported_versions.end()) {
        ++report_.version_retries;
        config_.version = v;
        send_initial_flight();
        return;
      }
    }
  } else if (std::find(vn.supported_versions.begin(),
                       vn.supported_versions.end(),
                       config_.version) != vn.supported_versions.end()) {
    // We already retried with a version this server advertised, and it
    // rejected that too while still advertising it: a self-contradictory
    // VN loop. Without the retry cap this would ping-pong forever.
    fail_protocol(ProtocolError::kVnLoop,
                  "VN advertises the version it just rejected");
    return;
  }
  finish(ConnectResult::kVersionMismatch);
}

void ClientConnection::on_datagram(std::span<const uint8_t> datagram) {
  if (state_ == State::kDone) return;
  auto info = peek_datagram(datagram);
  if (!info) return;
  if (info->long_header && info->version == 0) {
    if (config_.tracer.active())
      config_.tracer.emit(
          telemetry::EventType::kPacketReceived,
          {{"packet_type", "version_negotiation"},
           {"size", static_cast<uint64_t>(datagram.size())}});
    if (auto vn = decode_version_negotiation(datagram))
      process_version_negotiation(*vn);
    return;
  }
  if (info->long_header && info->type == PacketType::kRetry) {
    // Accept at most one Retry, and only with a valid integrity tag
    // over our original DCID (RFC 9001 section 5.8).
    if (report_.retry_used) return;
    auto retry = decode_retry(datagram, dcid_);
    if (!retry || retry->scid.empty() || retry->token.empty()) return;
    if (config_.tracer.active()) {
      config_.tracer.emit(
          telemetry::EventType::kPacketReceived,
          {{"packet_type", "retry"},
           {"size", static_cast<uint64_t>(datagram.size())}});
      config_.tracer.emit(
          telemetry::EventType::kRetry,
          {{"token_size", static_cast<uint64_t>(retry->token.size())}});
    }
    report_.retry_used = true;
    retry_dcid_ = retry->scid;
    retry_token_ = retry->token;
    send_initial_flight();
    return;
  }

  // An undecryptable piece (corrupted in flight, or overtaking the
  // flight that carried its keys) is counted and drops the rest of the
  // datagram; the attempt itself continues, and PTO recovers. Every
  // piece opens into one reused Packet: process_* copies what it keeps
  // before any send_, so reuse is safe even when a reply nests inside
  // the send callback. Every process_* that ends the attempt leaves
  // state_ at kDone, which stops the walk.
  spaces_.open_each(datagram, [this](const Packet& packet, size_t size) {
    if (config_.tracer.active())
      config_.tracer.emit(telemetry::EventType::kPacketReceived,
                          {{"packet_type", packet_type_name(packet.type)},
                           {"packet_number", packet.packet_number},
                           {"size", static_cast<uint64_t>(size)}});
    if (packet.type == PacketType::kInitial)
      process_initial(packet);
    else if (packet.type == PacketType::kHandshake)
      process_handshake(packet);
    else
      process_one_rtt(packet);
    return state_ != State::kDone;
  });
}

void ClientConnection::process_initial(const Packet& packet) {
  const auto frames = read_frames(packet);
  if (!frames) return;
  const auto* crypto_frame = find_crypto(*frames);
  // A bare ACK, or a ServerHello retransmitted after the first.
  if (!crypto_frame || state_ != State::kAwaitServerHello) return;

  tls::HandshakeMessage msg;
  try {
    wire::Reader r(crypto_frame->data);
    msg = tls::decode_handshake(r);
  } catch (const wire::DecodeError& e) {
    fail_protocol(ProtocolError::kTlsDecode, e.what());
    return;
  }
  const auto* sh = std::get_if<tls::ServerHello>(&msg);
  if (!sh) {
    fail_protocol(ProtocolError::kTlsDecode,
                  "expected ServerHello in Initial CRYPTO");
    return;
  }
  report_.server_hello_seen = true;
  if (config_.tracer.active())
    config_.tracer.emit(
        telemetry::EventType::kTlsMessage,
        {{"message", "server_hello"},
         {"size", static_cast<uint64_t>(crypto_frame->data.size())}});
  // The transcript hashes the whole CRYPTO data that carried the hello.
  if (!handshake_->on_server_hello(*sh, crypto_frame->data, report_.tls)) {
    finish(ConnectResult::kInternalError);
    return;
  }
  const tls::KeySchedule& secrets = handshake_->secrets();
  spaces_.install(PacketSpaces::Space::kHandshake,
                  quic_keys(secrets.client_handshake_key()),
                  quic_keys(secrets.server_handshake_key()));
  config_.tracer.emit(telemetry::EventType::kKeyUpdate,
                      {{"level", "handshake"}});
  state_ = State::kAwaitServerFinished;
}

bool ClientConnection::accept_transport_params(
    const tls::EncryptedExtensions& ee) {
  const auto* tp = tls::find_transport_params(ee.extensions);
  if (!tp) return true;
  try {
    report_.server_transport_params = decode_transport_parameters(tp->payload);
  } catch (const TpDecodeError& e) {
    fail_protocol(e.kind == TpDecodeError::Kind::kDuplicate
                      ? ProtocolError::kTpDuplicate
                      : ProtocolError::kTpMalformed,
                  e.what());
    return false;
  } catch (const wire::DecodeError& e) {
    fail_protocol(ProtocolError::kTpMalformed, e.what());
    return false;
  }
  if (config_.tracer.active()) {
    const auto& params = report_.server_transport_params;
    config_.tracer.emit(
        telemetry::EventType::kTransportParamsSet,
        {{"owner", "remote"},
         {"initial_max_data", params.initial_max_data.value_or(0)},
         {"max_udp_payload_size", params.effective_max_udp_payload_size()}});
  }
  // Downgrade protection (RFC 9368 section 4): the authenticated chosen
  // version must match the version actually in use.
  const auto& info = report_.server_transport_params.version_information;
  if (info && info->chosen != config_.version) {
    report_.close_error_code = 0x11;  // VERSION_NEGOTIATION_ERROR
    report_.close_reason = "version downgrade detected";
    finish(ConnectResult::kTransportError);
    return false;
  }
  return true;
}

void ClientConnection::process_handshake(const Packet& packet) {
  if (state_ != State::kAwaitServerFinished) return;
  const auto frames = read_frames(packet);
  if (!frames) return;
  // Feed every CRYPTO frame through the reassembler; out-of-order and
  // duplicate chunks buffer until the contiguous prefix grows. Chunks
  // that disagree about bytes they both cover are a protocol violation
  // (the peer is lying about its own stream).
  bool grew = false;
  for (const auto& frame : *frames)
    if (const auto* c = std::get_if<CryptoFrame>(&frame))
      grew |= handshake_crypto_.offer(c->offset, c->data);
  if (handshake_crypto_.conflict()) {
    fail_protocol(ProtocolError::kCryptoInconsistent,
                  "conflicting CRYPTO retransmission bytes");
    return;
  }
  if (!grew) return;  // no new contiguous bytes: nothing to re-parse

  // Parse the EE..Finished flight once it is complete.
  std::vector<tls::FlightMessage> flight;
  try {
    flight = tls::decode_handshake_flight(handshake_crypto_.assembled());
  } catch (const wire::DecodeError&) {
    return;  // incomplete; wait for more CRYPTO data
  }
  if (std::ranges::none_of(flight, [](const tls::FlightMessage& m) {
        return std::holds_alternative<tls::Finished>(m.message);
      }))
    return;

  // The transport parameters are checked before the engine records the
  // EncryptedExtensions that carried them into the report.
  for (auto& [msg, encoded] : flight) {
    if (config_.tracer.active())
      config_.tracer.emit(telemetry::EventType::kTlsMessage,
                          {{"message", message_name(msg)},
                           {"size", static_cast<uint64_t>(encoded.size())}});
    const auto* ee = std::get_if<tls::EncryptedExtensions>(&msg);
    if (ee && !accept_transport_params(*ee)) return;
    if (!handshake_->on_server_message(std::move(msg), encoded, report_.tls)) {
      finish(ConnectResult::kInternalError);
      return;
    }
  }

  const tls::KeySchedule& secrets = handshake_->secrets();
  spaces_.install(PacketSpaces::Space::kApplication,
                  quic_keys(secrets.client_application_secret()),
                  quic_keys(secrets.server_application_secret()));
  config_.tracer.emit(telemetry::EventType::kKeyUpdate,
                      {{"level", "application"}});

  // Client flight: Initial ACK + Handshake Finished (+ optional 1-RTT
  // request), coalesced into one datagram.
  std::vector<uint8_t> datagram;

  const uint64_t ack_pn =
      spaces_.next_header(PacketType::kInitial).packet_number;
  const Frame initial_frames[] = {AckFrame{0, 0, 0, {}}, PingFrame{}};
  encode_frames_into(spaces_.frames(), initial_frames);
  spaces_.seal_into(datagram);
  size_t initial_size = datagram.size();

  const Packet& hs_packet = spaces_.next_header(PacketType::kHandshake);
  const Frame hs_frames[] = {CryptoFrame{0, handshake_->client_finished()},
                             AckFrame{0, 0, 0, {}}};
  encode_frames_into(spaces_.frames(), hs_frames);
  spaces_.seal_into(datagram);
  size_t hs_size = datagram.size() - initial_size;
  if (config_.tracer.active()) {
    config_.tracer.emit(telemetry::EventType::kTlsMessage,
                        {{"message", "finished"}, {"sent", true}});
    config_.tracer.emit(telemetry::EventType::kPacketSent,
                        {{"packet_type", "initial"},
                         {"packet_number", ack_pn},
                         {"size", static_cast<uint64_t>(initial_size)}});
    config_.tracer.emit(telemetry::EventType::kPacketSent,
                        {{"packet_type", "handshake"},
                         {"packet_number", hs_packet.packet_number},
                         {"size", static_cast<uint64_t>(hs_size)}});
  }

  if (config_.http_request) {
    const Packet& req = spaces_.next_header(PacketType::kOneRtt);
    StreamFrame stream;
    stream.stream_id = 0;
    stream.fin = true;
    stream.data.assign(config_.http_request->begin(),
                       config_.http_request->end());
    size_t before = datagram.size();
    const Frame req_frame = std::move(stream);
    encode_frames_into(spaces_.frames(), {&req_frame, 1});
    spaces_.seal_into(datagram);
    if (config_.tracer.active())
      config_.tracer.emit(
          telemetry::EventType::kPacketSent,
          {{"packet_type", "1rtt"},
           {"packet_number", req.packet_number},
           {"size", static_cast<uint64_t>(datagram.size() - before)}});
  }
  state_ = State::kAwaitHttpResponse;  // before send_: reply may nest
  send_(std::move(datagram));
}

void ClientConnection::process_one_rtt(const Packet& packet) {
  const auto frames = read_frames(packet);
  if (!frames) return;
  for (const auto& frame : *frames) {
    if (std::holds_alternative<HandshakeDoneFrame>(frame))
      report_.handshake_done_seen = true;
    if (const auto* stream = std::get_if<StreamFrame>(&frame)) {
      if (!report_.http_response) report_.http_response = std::string{};
      report_.http_response->append(stream->data.begin(), stream->data.end());
    }
  }
  bool want_http = config_.http_request.has_value();
  bool http_ready = report_.http_response.has_value();
  if (report_.handshake_done_seen && (!want_http || http_ready))
    finish(ConnectResult::kSuccess);
}

/// --- ServerConnection ------------------------------------------------

ServerConnection::ServerConnection(const DeploymentBehavior& behavior,
                                   crypto::Rng rng, SendFn send)
    : behavior_(behavior), rng_(std::move(rng)), send_(std::move(send)) {}

std::optional<std::vector<Frame>> ServerConnection::read_frames(
    const Packet& packet) {
  try {
    return decode_frames(packet.payload);
  } catch (const wire::DecodeError&) {
    state_ = State::kClosed;
    return std::nullopt;
  }
}

void ServerConnection::respond_version_negotiation(const DatagramInfo& info) {
  if (!behavior_.respond_to_version_negotiation &&
      !behavior_.adversary.vn_loop)
    return;
  VersionNegotiationPacket vn;
  vn.dcid = info.scid;  // swap roles
  vn.scid = info.dcid;
  vn.supported_versions = behavior_.advertised_versions;
  if (behavior_.adversary.vn_loop) {
    // The looping endpoint advertises the broad compatible set --
    // including whatever version it just rejected -- so a retrying
    // client is sent in circles.
    vn.supported_versions = {kDraft29, kDraft32, kDraft34, kVersion1};
  }
  send_(encode_version_negotiation(vn, static_cast<uint8_t>(rng_.next())));
  state_ = State::kClosed;
}

void ServerConnection::send_close(uint64_t error_code,
                                  const std::string& reason) {
  // Every caller runs after the first Initial installed the keys; the
  // SCID is still empty when the ClientHello itself is refused.
  spaces_.set_cids(client_scid_, scid_);
  spaces_.next_header(PacketType::kInitial);
  ConnectionCloseFrame close;
  close.error_code = error_code;
  close.reason_phrase = reason;
  const Frame close_frame = std::move(close);
  size_t overhead =
      initial_header_overhead(client_scid_, scid_, reason.size() + 32);
  pad_initial_payload_into({&close_frame, 1}, overhead,
                           kMinInitialDatagramSize, spaces_.frames());
  send_(spaces_.seal());
  state_ = State::kClosed;
}

void ServerConnection::on_datagram(std::span<const uint8_t> datagram) {
  if (state_ == State::kClosed) return;
  auto info = peek_datagram(datagram);
  if (!info) return;

  if (state_ == State::kAwaitInitial) {
    if (!info->long_header || info->type != PacketType::kInitial) return;
    // RFC 9000 sections 5.2.2 / 14.1: under-sized Initial datagrams are
    // dropped before any version handling -- including before Version
    // Negotiation. The paper's padding ablation (section 3.1) hinges on
    // this ordering.
    if (behavior_.require_padding &&
        datagram.size() < kMinInitialDatagramSize)
      return;  // drop silently; client times out
    if (behavior_.stall_handshake) {
      // Middlebox answering version negotiation for a dead endpoint
      // (Akamai/Fastly pattern, section 5.1): unknown versions still
      // get a VN packet, but an Initial in an advertised version is
      // forwarded into the void.
      bool advertised =
          std::find(behavior_.advertised_versions.begin(),
                    behavior_.advertised_versions.end(),
                    info->version) != behavior_.advertised_versions.end();
      if (!advertised) respond_version_negotiation(*info);
      state_ = State::kClosed;
      return;
    }
    if (behavior_.adversary.vn_loop) {
      // Version-negotiation loop: every Initial -- whatever its version
      // -- is answered with VN. The session closes after each VN, so a
      // client retry creates a new session that misbehaves identically.
      respond_version_negotiation(*info);
      return;
    }
    bool supported =
        std::find(behavior_.handshake_versions.begin(),
                  behavior_.handshake_versions.end(),
                  info->version) != behavior_.handshake_versions.end();
    if (!supported) {
      respond_version_negotiation(*info);
      return;
    }
    version_ = info->version;
    client_dcid_ = info->dcid;
    client_scid_ = info->scid;
    spaces_.start(version_, client_dcid_);
    size_t offset = 0;
    const Packet* opened =
        spaces_.open(PacketType::kInitial, datagram, offset);
    if (!opened) {
      // Corrupted-in-flight ClientHello: close this (stateless) session;
      // the owner erases it, so a client retransmission starts fresh.
      state_ = State::kClosed;
      return;
    }
    const Packet& packet = *opened;
    if (behavior_.require_retry) {
      if (packet.token.empty()) {
        // Stateless Retry: the new CID and token both encode the
        // original DCID so the follow-up Initial can be validated and
        // the authenticating transport parameters filled in.
        RetryPacket retry;
        retry.version = version_;
        retry.dcid = client_scid_;
        auto digest = crypto::Sha256::hash(client_dcid_);
        retry.scid.assign(digest.begin(), digest.begin() + 8);
        retry.token.push_back('r');
        retry.token.push_back('t');
        retry.token.insert(retry.token.end(), client_dcid_.begin(),
                           client_dcid_.end());
        send_(encode_retry(retry, client_dcid_));
        state_ = State::kClosed;  // stateless: next Initial = new session
        return;
      }
      if (packet.token.size() < 2 || packet.token[0] != 'r' ||
          packet.token[1] != 't') {
        send_close(0x0b /* INVALID_TOKEN */, "invalid address validation token");
        return;
      }
      original_dcid_.assign(packet.token.begin() + 2, packet.token.end());
      retry_scid_ = client_dcid_;  // the CID our Retry told them to use
    }
    process_client_initial(packet);
    return;
  }

  // Post-Initial: walk the coalesced packets (process_* copies what it
  // keeps out of the reused Packet before sending).
  spaces_.open_each(datagram, [this](const Packet& packet, size_t) {
    if (packet.type == PacketType::kInitial) {
      // A duplicate ClientHello means our flight was lost in transit:
      // retransmit it (server-side PTO behavior). Plain Initial ACKs
      // need no action.
      if (state_ == State::kAwaitFinished && !last_flight_.empty()) {
        try {
          auto frames = decode_frames(packet.payload);
          if (find_crypto(frames) != nullptr)
            for (const auto& flight_datagram : last_flight_)
              send_(flight_datagram);
        } catch (const wire::DecodeError&) {
        }
      }
    } else if (packet.type == PacketType::kHandshake) {
      process_client_handshake(packet);
    } else {
      process_client_one_rtt(packet);
    }
    return state_ != State::kClosed;
  });
}

void ServerConnection::process_client_initial(const Packet& packet) {
  const auto frames = read_frames(packet);
  if (!frames) return;
  const auto* crypto_frame = find_crypto(*frames);
  if (!crypto_frame) return;

  tls::HandshakeMessage msg;
  try {
    wire::Reader r(crypto_frame->data);
    msg = tls::decode_handshake(r);
  } catch (const wire::DecodeError&) {
    send_close(kProtocolViolation, "malformed crypto data");
    return;
  }
  const auto* ch = std::get_if<tls::ClientHello>(&msg);
  if (!ch) {
    send_close(kProtocolViolation, "expected ClientHello");
    return;
  }
  scid_ = rng_.bytes(8);
  spaces_.set_cids(client_scid_, scid_);

  if (behavior_.always_handshake_failure) {
    send_close(crypto_error(static_cast<uint8_t>(
                   tls::AlertDescription::kHandshakeFailure)),
               behavior_.handshake_failure_reason);
    return;
  }

  // Certificate / SNI policy.
  std::optional<std::string> sni;
  if (const auto* s = tls::find_sni(ch->extensions)) sni = s->host_name;
  if (!sni && behavior_.stall_without_sni) {
    state_ = State::kClosed;  // swallowed: the client times out
    return;
  }
  std::optional<tls::Certificate> cert;
  if (behavior_.select_certificate) cert = behavior_.select_certificate(sni);
  if (!cert) {
    send_close(crypto_error(static_cast<uint8_t>(
                   tls::AlertDescription::kHandshakeFailure)),
               behavior_.handshake_failure_reason);
    return;
  }

  std::optional<std::string> selected_alpn;
  if (const auto* alpn = tls::find_alpn(ch->extensions)) {
    selected_alpn = tls::select_alpn(alpn->protocols, behavior_.alpn);
    if (!selected_alpn) {
      send_close(crypto_error(static_cast<uint8_t>(
                     tls::AlertDescription::kNoApplicationProtocol)),
                 "no application protocol");
      return;
    }
  }

  const tls::KeyShareEntry* share = tls::usable_key_share(ch->extensions);
  if (!share) {
    send_close(crypto_error(static_cast<uint8_t>(
                   tls::AlertDescription::kMissingExtension)),
               "missing key_share");
    return;
  }

  // The transcript hashes the whole CRYPTO data that carried the hello.
  handshake_.emplace(*ch, crypto_frame->data, *share, rng_);
  const tls::KeySchedule& secrets = handshake_->secrets();
  spaces_.install(PacketSpaces::Space::kHandshake,
                  quic_keys(secrets.client_handshake_key()),
                  quic_keys(secrets.server_handshake_key()));

  // EncryptedExtensions with server transport parameters.
  TransportParameters tp = behavior_.transport_params;
  // Compatible Version Negotiation (paper ref. [40] / RFC 9368):
  // authenticate the chosen version and advertise the full set, so a
  // client can detect a VN-packet downgrade after the handshake.
  TransportParameters::VersionInformation version_info;
  version_info.chosen = version_;
  version_info.available = behavior_.handshake_versions;
  tp.version_information = std::move(version_info);
  // After a Retry, the ODCID is the one recovered from the token and
  // the Retry's SCID must be echoed (RFC 9000 section 7.3).
  tp.original_destination_connection_id =
      original_dcid_.empty() ? client_dcid_ : original_dcid_;
  if (!retry_scid_.empty()) tp.retry_source_connection_id = retry_scid_;
  tp.initial_source_connection_id = scid_;
  tp.stateless_reset_token = rng_.bytes(16);
  const AdversaryPlan& plan = behavior_.adversary;
  std::vector<uint8_t> tp_bytes = encode_transport_parameters(tp);
  if (plan.tp_grease > 0 || plan.tp_duplicate || plan.tp_malformed) {
    // Structure-aware TP mutation: GREASE params are legal (ids 31*N+27,
    // RFC 9000 section 18.1) and a hardened client tolerates them; the
    // duplicate and the truncated trailer are violations it must kill
    // the attempt on. The truncation must come last -- it swallows
    // everything after it.
    wire::Writer mutated;
    mutated.bytes(tp_bytes);
    uint64_t mstate = plan.seed ^ 0x677265617365ull;
    for (int i = 0; i < plan.tp_grease; ++i) {
      uint64_t draw = crypto::splitmix64(mstate);
      mutated.varint(27 + 31 * static_cast<uint64_t>(i + 1));
      mutated.varint(2);
      mutated.u8(static_cast<uint8_t>(draw >> 8));
      mutated.u8(static_cast<uint8_t>(draw));
    }
    if (plan.tp_duplicate) {
      // initial_source_connection_id is always present above; a second,
      // empty copy trips the RFC 9000 section 7.4 duplicate check.
      mutated.varint(static_cast<uint64_t>(
          TransportParamId::kInitialSourceConnectionId));
      mutated.varint(0);
    }
    if (plan.tp_malformed)
      mutated.varint(0x01);  // id with its length varint missing
    tp_bytes = mutated.take();
  }
  std::vector<tls::Extension> ee;
  ee.push_back(tls::TransportParametersExtension{tp_codepoint(version_),
                                                 std::move(tp_bytes)});
  if (selected_alpn) ee.push_back(tls::AlpnExtension{{*selected_alpn}});
  if (sni) ee.push_back(tls::SniExtension{});
  std::vector<uint8_t> flight =
      handshake_->flight(std::move(ee), std::move(*cert)).bytes;
  spaces_.install(PacketSpaces::Space::kApplication,
                  quic_keys(secrets.client_application_secret()),
                  quic_keys(secrets.server_application_secret()));

  // Transmit: Initial(ACK + SH), then EE..Fin as CRYPTO chunks of at
  // most max_crypto_chunk bytes (the whole flight when 0), one Handshake
  // packet each. An unsplit flight's packet rides in the Initial's
  // datagram; otherwise every packet is its own datagram, so the fault
  // fabric can reorder or drop them independently.
  const Packet& init = spaces_.next_header(PacketType::kInitial);
  // Bad-ACK mutation: acknowledge a range reaching past packet number
  // zero (first_ack_range > largest), which no honest peer can produce.
  const uint64_t first_ack_range =
      plan.ack_invalid ? packet.packet_number + 5 : 0;
  const Frame init_frames[] = {
      AckFrame{packet.packet_number, 0, first_ack_range, {}},
      CryptoFrame{0, handshake_->server_hello()}};
  wire::Writer& payload = spaces_.frames();
  encode_frames_into(payload, init_frames);
  // Frame-level mutations ride in the Initial payload: a well-formed
  // STREAM frame (illegal in that space, RFC 9000 section 12.4) and a
  // raw unknown frame type past everything a scanner decodes.
  if (plan.frame_illegal_stream) {
    StreamFrame rogue;
    rogue.stream_id = 3;
    rogue.data = {0xde, 0xad};
    encode_frame(payload, Frame{std::move(rogue)});
  }
  if (plan.frame_unknown) payload.varint(0x21);
  // An unsplit flight's Handshake packet rides in this datagram: size
  // it for both.
  const bool flight_rides = behavior_.max_crypto_chunk == 0 &&
                            !plan.crypto_overlap_conflict &&
                            !plan.stall_after_hello;
  std::vector<uint8_t> datagram = spaces_.seal(
      flight_rides ? max_protected_size(init, flight.size() + 16) : 0);

  if (plan.stall_after_hello) {
    // Mid-handshake stall: the ServerHello goes out, the EE..Finished
    // flight never follows. The client sits in kAwaitServerFinished
    // until its deadline; the scanner classifies the attempt Stalled.
    state_ = State::kClosed;
    send_(std::move(datagram));
    return;
  }

  if (plan.crypto_truncate > 0 && flight.size() > 1) {
    // Truncated flight: withhold the tail so the TLS flight can never
    // complete. PTO retransmissions resend the same truncated bytes.
    flight.resize(flight.size() -
                  std::min(plan.crypto_truncate, flight.size() - 1));
  }
  state_ = State::kAwaitFinished;  // before send_: replies may nest
  if (!flight_rides) send_flight(std::exchange(datagram, {}));
  // Sends `crypto` at `offset` in one Handshake packet: in the datagram
  // that holds the Initial when the flight rides in it, else on its own.
  auto send_crypto = [&](uint64_t offset, std::span<const uint8_t> crypto) {
    spaces_.next_header(PacketType::kHandshake);
    encode_crypto_frame(spaces_.frames(), offset, crypto);
    if (datagram.empty())
      datagram = spaces_.seal();
    else
      spaces_.seal_into(datagram);
    send_flight(std::exchange(datagram, {}));
  };
  if (plan.crypto_overlap_conflict && flight.size() > 2) {
    // Conflicting overlap: a prefix of the flight with its last byte
    // flipped, sent before the true bytes. Whichever order the fabric
    // delivers them, the two copies disagree about a byte they both
    // cover and the client's reassembler flags the conflict.
    const size_t prefix_len = std::min<size_t>(64, flight.size() - 1);
    std::vector<uint8_t> lie(
        flight.begin(), flight.begin() + static_cast<ptrdiff_t>(prefix_len));
    lie.back() ^= 0x01;
    send_crypto(0, lie);
  }
  const size_t chunk_limit = behavior_.max_crypto_chunk > 0
                                 ? behavior_.max_crypto_chunk
                                 : flight.size();
  for (size_t offset = 0; offset < flight.size();) {
    const size_t len = std::min(chunk_limit, flight.size() - offset);
    send_crypto(offset, std::span(flight).subspan(offset, len));
    offset += len;
  }
}

void ServerConnection::send_flight(std::vector<uint8_t> datagram) {
  last_flight_.push_back(datagram);
  send_(std::move(datagram));
}

void ServerConnection::process_client_handshake(const Packet& packet) {
  if (state_ != State::kAwaitFinished) return;
  const auto frames = read_frames(packet);
  if (!frames) return;
  const auto* crypto_frame = find_crypto(*frames);
  if (!crypto_frame) return;
  tls::HandshakeMessage msg;
  try {
    wire::Reader r(crypto_frame->data);
    msg = tls::decode_handshake(r);
  } catch (const wire::DecodeError&) {
    state_ = State::kClosed;
    return;
  }
  const auto* fin = std::get_if<tls::Finished>(&msg);
  if (!fin) return;
  if (!handshake_->client_finished_ok(*fin)) {
    send_close(crypto_error(static_cast<uint8_t>(
                   tls::AlertDescription::kHandshakeFailure)),
               "finished verification failed");
    return;
  }
  state_ = State::kEstablished;  // before send_: request may nest

  // Handshake confirmed: HANDSHAKE_DONE in 1-RTT.
  spaces_.next_header(PacketType::kOneRtt);
  encode_frame(spaces_.frames(), HandshakeDoneFrame{});
  send_(spaces_.seal());

  const AdversaryPlan& plan = behavior_.adversary;
  if (plan.garbage_datagrams > 0) {
    // Post-handshake garbage: undecryptable short-header datagrams the
    // client must absorb without crashing or reclassifying a successful
    // attempt. Bytes derive from the per-host plan seed, never from the
    // per-connection RNG, so the burst is identical in every shard.
    uint64_t gstate = plan.seed ^ 0x67617262616765ull;
    for (int i = 0; i < plan.garbage_datagrams; ++i) {
      std::vector<uint8_t> noise(48 + 16 * static_cast<size_t>(i % 4));
      for (auto& b : noise)
        b = static_cast<uint8_t>(crypto::splitmix64(gstate));
      noise[0] = 0x40 | (noise[0] & 0x3f);  // plausible short header
      send_(std::move(noise));
    }
  }
}

void ServerConnection::process_client_one_rtt(const Packet& packet) {
  if (state_ != State::kEstablished) return;
  const auto frames = read_frames(packet);
  if (!frames) return;
  const auto* stream = find_stream(*frames);
  if (!stream || !behavior_.http_responder) return;
  std::string request(stream->data.begin(), stream->data.end());
  std::string response = behavior_.http_responder(request);

  spaces_.next_header(PacketType::kOneRtt);
  Frame reply(std::in_place_type<StreamFrame>);
  auto& out = std::get<StreamFrame>(reply);
  out.stream_id = stream->stream_id;
  out.fin = true;
  out.data.assign(response.begin(), response.end());
  encode_frame(spaces_.frames(), HandshakeDoneFrame{});
  encode_frame(spaces_.frames(), reply);
  send_(spaces_.seal());
}

}  // namespace quic
