// QUIC transport parameters (RFC 9000 section 18). The paper's Figure 9
// and Table 6 cluster deployments by their *configuration-specific*
// parameters -- "we ignore options which contain tokens or connection
// IDs" -- so this module provides both the full wire codec and the
// canonical configuration key used for that clustering.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "wire/buffer.h"

namespace quic {

enum class TransportParamId : uint64_t {
  kOriginalDestinationConnectionId = 0x00,
  kMaxIdleTimeout = 0x01,
  kStatelessResetToken = 0x02,
  kMaxUdpPayloadSize = 0x03,
  kInitialMaxData = 0x04,
  kInitialMaxStreamDataBidiLocal = 0x05,
  kInitialMaxStreamDataBidiRemote = 0x06,
  kInitialMaxStreamDataUni = 0x07,
  kInitialMaxStreamsBidi = 0x08,
  kInitialMaxStreamsUni = 0x09,
  kAckDelayExponent = 0x0a,
  kMaxAckDelay = 0x0b,
  kDisableActiveMigration = 0x0c,
  kPreferredAddress = 0x0d,
  kActiveConnectionIdLimit = 0x0e,
  kInitialSourceConnectionId = 0x0f,
  kRetrySourceConnectionId = 0x10,
  // Compatible Version Negotiation (the paper's reference [40],
  // draft-ietf-quic-version-negotiation, later RFC 9368).
  kVersionInformation = 0x11,
};

/// The RFC 9000 default of max_udp_payload_size (section 18.2).
inline constexpr uint64_t kDefaultMaxUdpPayloadSize = 65527;

struct TransportParameters {
  // Integer parameters; unset means "absent on the wire" (defaults apply).
  std::optional<uint64_t> max_idle_timeout;               // ms
  std::optional<uint64_t> max_udp_payload_size;
  std::optional<uint64_t> initial_max_data;
  std::optional<uint64_t> initial_max_stream_data_bidi_local;
  std::optional<uint64_t> initial_max_stream_data_bidi_remote;
  std::optional<uint64_t> initial_max_stream_data_uni;
  std::optional<uint64_t> initial_max_streams_bidi;
  std::optional<uint64_t> initial_max_streams_uni;
  std::optional<uint64_t> ack_delay_exponent;
  std::optional<uint64_t> max_ack_delay;
  std::optional<uint64_t> active_connection_id_limit;
  bool disable_active_migration = false;

  // Version Information (downgrade protection for the paper's [40]
  // upgrade path): the version in use plus every version the sender
  // would accept.
  struct VersionInformation {
    uint32_t chosen = 0;
    std::vector<uint32_t> available;
    bool operator==(const VersionInformation&) const = default;
  };
  std::optional<VersionInformation> version_information;

  // Session-specific parameters (excluded from config clustering).
  std::optional<std::vector<uint8_t>> original_destination_connection_id;
  std::optional<std::vector<uint8_t>> initial_source_connection_id;
  std::optional<std::vector<uint8_t>> retry_source_connection_id;
  std::optional<std::vector<uint8_t>> stateless_reset_token;  // 16 bytes
  std::optional<std::vector<uint8_t>> preferred_address;      // opaque

  // Unknown/GREASE parameters preserved verbatim (id, value).
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> unknown;

  bool operator==(const TransportParameters&) const = default;

  /// max_udp_payload_size with the RFC 9000 default applied.
  uint64_t effective_max_udp_payload_size() const {
    return max_udp_payload_size.value_or(kDefaultMaxUdpPayloadSize);
  }

  /// The configuration-specific parameters in a fixed order: eleven
  /// integers (nullopt = absent), then disable_active_migration as 0/1.
  /// Session-specific values (CIDs, reset tokens, preferred address) are
  /// excluded, as in the paper's clustering (section 5.2).
  using ConfigFields = std::array<std::optional<uint64_t>, 12>;
  ConfigFields config_fields() const;

  /// Canonical "configuration key": config_fields() printed as
  /// "name=value;" pairs ("-" when absent).
  std::string config_key() const;
};

/// Transport-parameter decode failure with the cause split out for the
/// protocol-error taxonomy. Subtype of wire::DecodeError so existing
/// catch sites keep working; reads that run off the end of the buffer
/// still throw the plain base class (callers treat that as malformed).
class TpDecodeError : public wire::DecodeError {
 public:
  enum class Kind { kMalformed, kDuplicate };
  TpDecodeError(Kind kind, uint64_t param_id, const std::string& what)
      : wire::DecodeError(what), kind(kind), param_id(param_id) {}
  Kind kind;
  uint64_t param_id;
};

/// Encodes per RFC 9000 section 18 (sequence of id/length/value with
/// varint ids and lengths).
std::vector<uint8_t> encode_transport_parameters(
    const TransportParameters& tp);

/// Decodes; throws wire::DecodeError on malformed input or a duplicated
/// parameter id (forbidden by RFC 9000 section 7.4).
TransportParameters decode_transport_parameters(std::span<const uint8_t> data);

/// Bytes a client can send before any MAX_DATA or MAX_STREAM_DATA
/// update arrives (RFC 9000 section 4), spread over up to `streams`
/// bidirectional streams: the connection window (initial_max_data)
/// against n client-opened streams of initial_max_stream_data_bidi_remote
/// each, where n is `streams` capped by initial_max_streams_bidi. An
/// absent parameter counts as 0.
uint64_t first_flight_budget(const TransportParameters& peer_params,
                             uint64_t streams);

}  // namespace quic
