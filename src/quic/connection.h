// Client and server QUIC connection state machines. The client side is
// QScanner's engine: one full handshake per target, extracting TLS
// details, the server's transport parameters and (optionally) an
// HTTP/3-lite response. The server side executes a DeploymentBehavior
// describing how a simulated endpoint acts on the wire -- including the
// paper's observed anomalies (VN/handshake version mismatches, SNI-less
// handshake failures, silent middlebox stalls).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/rng.h"
#include "quic/assembler.h"
#include "quic/frame.h"
#include "quic/packet.h"
#include "quic/transport_params.h"
#include "quic/version.h"
#include "telemetry/trace.h"
#include "tls/session.h"

namespace quic {

/// Terminal classification of a client connection attempt, mirroring
/// the paper's Table 3 rows. kTimeout is assigned by the caller when no
/// terminal state was reached within its deadline.
enum class ConnectResult {
  kPending,
  kSuccess,
  kVersionMismatch,  // VN received with no usable alternative
  kCryptoError,      // CONNECTION_CLOSE with 0x01xx (e.g. the 0x128 alert)
  kTransportError,   // any other CONNECTION_CLOSE
  kInternalError,    // local protocol violation / undecryptable
  kProtocolViolation,  // peer misbehavior; cause in ClientReport::protocol_error
};

std::string to_string(ConnectResult result);

/// Cause taxonomy for attempts terminated by peer misbehavior (the
/// adversarial-endpoint fabric; DESIGN.md "Adversarial endpoints &
/// protocol-error taxonomy"). One counter per cause is exported as
/// `quic.protocol_error.<name>`.
enum class ProtocolError {
  kNone,
  kTpMalformed,         // transport parameters fail to decode
  kTpDuplicate,         // duplicated TP id (RFC 9000 section 7.4)
  kFrameUnknown,        // unknown frame type (RFC 9000 section 12.4)
  kFrameEncoding,       // truncated / malformed frame encoding
  kFrameIllegal,        // frame type illegal in its packet space
  kAckInvalid,          // ACK for unsent packets or inverted ranges
  kCryptoInconsistent,  // conflicting CRYPTO retransmission bytes
  kTlsDecode,           // TLS handshake message fails to decode
  kVnLoop,              // VN advertising the version it just rejected
  kCount,
};

std::string to_string(ProtocolError error);

inline constexpr size_t kProtocolErrorCount =
    static_cast<size_t>(ProtocolError::kCount);

struct ClientConfig {
  Version version = kVersion1;
  /// Versions the scanner may retry with after a Version Negotiation
  /// (QScanner supported draft 29/32/34, later v1).
  std::vector<Version> compatible_versions;
  std::optional<std::string> sni;
  std::vector<std::string> alpn{"h3-29"};
  TransportParameters transport_params;
  /// When set, an HTTP/3-lite request is sent after the handshake and
  /// the connection completes on the response.
  std::optional<std::string> http_request;
  /// qlog-style event emission; default-constructed tracers are
  /// inactive and cost one branch per would-be event.
  telemetry::Tracer tracer;
};

/// Everything QScanner records about one attempt.
struct ClientReport {
  ConnectResult result = ConnectResult::kPending;
  Version negotiated_version = 0;
  std::vector<Version> peer_versions;  // from VN, if any
  uint64_t close_error_code = 0;
  std::string close_reason;
  tls::TlsDetails tls;
  TransportParameters server_transport_params;
  bool handshake_done_seen = false;
  std::optional<std::string> http_response;
  int version_retries = 0;
  /// True when the server demanded address validation via Retry.
  bool retry_used = false;
  /// Cause when result == kProtocolViolation, kNone otherwise.
  ProtocolError protocol_error = ProtocolError::kNone;
  /// True once a decryptable ServerHello arrived; lets the scanner
  /// distinguish a mid-handshake stall from a server that never spoke.
  bool server_hello_seen = false;
};

class ClientConnection {
 public:
  using SendFn = std::function<void(std::vector<uint8_t> datagram)>;
  using DoneFn = std::function<void(const ClientReport&)>;

  ClientConnection(ClientConfig config, crypto::Rng rng, SendFn send,
                   DoneFn done);
  // spaces_ reports to this object's hotpath_stats_, so no copies.
  ClientConnection(const ClientConnection&) = delete;
  ClientConnection& operator=(const ClientConnection&) = delete;

  /// Sends the first Initial packet.
  void start();

  /// Retransmits the first flight verbatim if the handshake has not
  /// progressed past it (probe-timeout behavior; scanners call this on
  /// a PTO schedule so lossy paths degrade gracefully).
  void retransmit_initial();

  /// Feeds one received datagram into the state machine.
  void on_datagram(std::span<const uint8_t> datagram);

  bool finished() const { return report_.result != ConnectResult::kPending; }
  const ClientReport& report() const { return report_; }
  /// Moves the report out; the connection takes no datagram after it.
  ClientReport take_report() { return std::move(report_); }

  /// Per-attempt hot-path accounting: scratch-buffer growth and AEAD
  /// context reuse across this connection's packets. Scanners fold this
  /// into the `hotpath.*` telemetry counters after each attempt.
  const HotpathStats& hotpath_stats() const { return hotpath_stats_; }

 private:
  void send_initial_flight();
  void process_version_negotiation(const VersionNegotiationPacket& vn);
  void process_initial(const Packet& packet);
  void process_handshake(const Packet& packet);
  void process_one_rtt(const Packet& packet);
  /// Decodes and traces a packet's frames and applies the checks every
  /// space shares: CONNECTION_CLOSE ends the attempt, and so do a frame
  /// illegal in its space (RFC 9000 section 12.4) or an ACK for packets
  /// not sent. nullopt once the attempt has ended.
  std::optional<std::vector<Frame>> read_frames(const Packet& packet);
  /// Decodes the server's transport parameters and runs the RFC 9368
  /// downgrade check; false once that ended the attempt.
  bool accept_transport_params(const tls::EncryptedExtensions& ee);
  void finish(ConnectResult result);
  /// Terminates the attempt as kProtocolViolation with `error` recorded
  /// in the report and a qlog protocol_error terminal event.
  void fail_protocol(ProtocolError error, const std::string& reason);

  ClientConfig config_;
  crypto::Rng rng_;
  SendFn send_;
  DoneFn done_;
  ClientReport report_;

  ConnectionId dcid_;  // initial destination CID (random)
  std::optional<ConnectionId> retry_dcid_;  // from a Retry's SCID
  std::vector<uint8_t> retry_token_;
  std::vector<uint8_t> last_initial_datagram_;  // for PTO retransmission
  std::optional<tls::ClientHandshake> handshake_;

  // Keys, packet numbers and the reused packet buffers of the three
  // spaces; they report their buffer growth, AEAD context reuse and
  // undecryptable packets to hotpath_stats_.
  HotpathStats hotpath_stats_;
  PacketSpaces spaces_{/*is_server=*/false, &hotpath_stats_};

  enum class State {
    kIdle,
    kAwaitServerHello,
    kAwaitServerFinished,  // SH seen, waiting for the handshake flight
    kAwaitHttpResponse,
    kDone,
  } state_ = State::kIdle;
  // Handshake-level CRYPTO reassembly: tolerates out-of-order,
  // duplicated and overlapping frames (the fault fabric produces all
  // three; RFC 9000 section 19.6 requires tolerating them anyway).
  CryptoAssembler handshake_crypto_;
};

/// --- Server side -----------------------------------------------------

/// Per-host misbehavior knobs executed by ServerConnection. Plain data
/// so the quic layer stays independent of the internet model: the
/// adversary model (src/internet/adversary.h) derives one plan per host
/// from (profile, seed, host address) and installs it in the host's
/// DeploymentBehavior, so every session with that host -- including
/// client retries -- deterministically meets the same misbehavior.
struct AdversaryPlan {
  /// Duplicate a TP id in EncryptedExtensions (RFC 9000 section 7.4).
  bool tp_duplicate = false;
  /// Truncated transport parameter at the end of the TP block.
  bool tp_malformed = false;
  /// Extra GREASE transport parameters (ids 31*N+27). Legal: a hardened
  /// client must tolerate these and still succeed.
  int tp_grease = 0;
  /// Unknown frame type appended to the server Initial payload.
  bool frame_unknown = false;
  /// Well-formed STREAM frame in the Initial packet (illegal space).
  bool frame_illegal_stream = false;
  /// ACK with first_ack_range > largest_acknowledged.
  bool ack_invalid = false;
  /// Withhold the last N bytes of the EE..Finished CRYPTO flight, so
  /// the handshake can never complete (mid-handshake truncation).
  size_t crypto_truncate = 0;
  /// Send an overlapping CRYPTO retransmission whose bytes conflict
  /// with the original flight.
  bool crypto_overlap_conflict = false;
  /// Answer every Initial with Version Negotiation, advertising the
  /// broad version set -- including the version just rejected.
  bool vn_loop = false;
  /// Send Initial(ACK+SH) then go silent mid-handshake.
  bool stall_after_hello = false;
  /// Undecryptable garbage datagrams sent after HANDSHAKE_DONE.
  int garbage_datagrams = 0;
  /// Seeds the deterministic mutation bytes (GREASE values, garbage).
  /// Derived from (adversary seed, host address), never from
  /// per-connection randomness, so mutated bytes are identical across
  /// shard partitions and schedules.
  uint64_t seed = 0;

  bool active() const {
    return tp_duplicate || tp_malformed || tp_grease > 0 || frame_unknown ||
           frame_illegal_stream || ack_invalid || crypto_truncate > 0 ||
           crypto_overlap_conflict || vn_loop || stall_after_hello ||
           garbage_datagrams > 0;
  }
  bool operator==(const AdversaryPlan&) const = default;
};

/// How a simulated deployment behaves on the wire. Populated by the
/// internet model from provider profiles.
struct DeploymentBehavior {
  /// Versions a full handshake succeeds with.
  std::vector<Version> handshake_versions{kVersion1};
  /// Versions advertised in Version Negotiation packets; the Google
  /// roll-out anomaly is advertised \ handshake_versions != {}.
  std::vector<Version> advertised_versions{kVersion1};
  /// RFC 9000 mandates answering an unknown version with VN, but the
  /// paper found deployments that stay silent (section 4 "Overlap").
  bool respond_to_version_negotiation = true;
  /// Drop Initial packets below 1200 bytes (spec-conform); the paper's
  /// padding experiment found almost all deployments enforce this.
  bool require_padding = true;
  /// Accept the Initial but never answer: the Akamai/Fastly middlebox
  /// stall observed in section 5.1.
  bool stall_handshake = false;
  /// Stall only when the ClientHello carries no SNI (load balancers
  /// that cannot route without it).
  bool stall_without_sni = false;
  /// Immediately fail every handshake with the 0x128 alert: Cloudflare
  /// addresses that answer VN but host no QUIC service.
  bool always_handshake_failure = false;
  /// Stateless address validation: answer the first Initial with a
  /// Retry carrying a token (RFC 9000 section 8.1.2).
  bool require_retry = false;

  TransportParameters transport_params;
  std::vector<std::string> alpn{"h3-29"};

  /// Certificate selection by SNI; nullopt means "no certificate for
  /// that name" and fails the handshake with the 0x128 alert.
  std::function<std::optional<tls::Certificate>(
      const std::optional<std::string>& sni)>
      select_certificate;
  /// Implementation-specific alert wording (the paper fingerprints
  /// implementations by these strings, section 5).
  std::string handshake_failure_reason = "handshake failure";

  /// HTTP responder for requests on stream 0; receives the raw request.
  std::function<std::string(const std::string& request)> http_responder;

  /// When > 0, the server's handshake flight is split: the Initial
  /// (ACK + ServerHello) goes out as its own datagram and the EE..Fin
  /// CRYPTO stream follows in chunks of at most this many bytes, one
  /// Handshake packet per datagram. Lets the fault fabric's reordering
  /// produce genuinely out-of-order CRYPTO at the client. 0 keeps the
  /// single coalesced flight (the default and the seed behavior).
  size_t max_crypto_chunk = 0;

  /// Structure-aware handshake misbehavior executed on top of the
  /// deployment's normal behavior (default-constructed == compliant).
  AdversaryPlan adversary;
};

/// Server-side connection; one per (client endpoint, original DCID).
class ServerConnection {
 public:
  using SendFn = std::function<void(std::vector<uint8_t> datagram)>;

  ServerConnection(const DeploymentBehavior& behavior, crypto::Rng rng,
                   SendFn send);

  /// Feeds one client datagram; returns false once the connection is
  /// dead (caller may drop it).
  void on_datagram(std::span<const uint8_t> datagram);

  bool closed() const { return state_ == State::kClosed; }

 private:
  /// Decodes a client packet's frames; a malformed payload closes the
  /// session (nullopt).
  std::optional<std::vector<Frame>> read_frames(const Packet& packet);
  void process_client_initial(const Packet& packet);
  /// Records `datagram` as part of the flight and sends it.
  void send_flight(std::vector<uint8_t> datagram);
  void process_client_handshake(const Packet& packet);
  void process_client_one_rtt(const Packet& packet);
  void send_close(uint64_t error_code, const std::string& reason);
  void respond_version_negotiation(const DatagramInfo& info);

  const DeploymentBehavior& behavior_;
  crypto::Rng rng_;
  SendFn send_;

  ConnectionId client_dcid_;  // original, for initial keys
  ConnectionId client_scid_;
  ConnectionId scid_;  // our CID
  ConnectionId original_dcid_;  // recovered from a Retry token
  ConnectionId retry_scid_;     // CID our Retry instructed the client to use
  Version version_ = 0;
  std::optional<tls::ServerHandshake> handshake_;
  PacketSpaces spaces_{/*is_server=*/true};

  enum class State { kAwaitInitial, kAwaitFinished, kEstablished, kClosed };
  State state_ = State::kAwaitInitial;
  // Server flight for retransmission: one datagram when coalesced,
  // several when max_crypto_chunk splits the CRYPTO stream.
  std::vector<std::vector<uint8_t>> last_flight_;
};

}  // namespace quic
