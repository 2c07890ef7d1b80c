#include "quic/transport_params.h"

#include <algorithm>
#include <iterator>

namespace quic {

namespace {

void put_varint_param(wire::Writer& w, TransportParamId id, uint64_t value) {
  w.varint(static_cast<uint64_t>(id));
  w.varint(wire::varint_size(value));
  w.varint(value);
}

void put_bytes_param(wire::Writer& w, TransportParamId id,
                     std::span<const uint8_t> value) {
  w.varint(static_cast<uint64_t>(id));
  w.varint(value.size());
  w.bytes(value);
}

}  // namespace

std::vector<uint8_t> encode_transport_parameters(
    const TransportParameters& tp) {
  wire::Writer& w = wire::scratch_writer();
  if (tp.original_destination_connection_id)
    put_bytes_param(w, TransportParamId::kOriginalDestinationConnectionId,
                    *tp.original_destination_connection_id);
  if (tp.max_idle_timeout)
    put_varint_param(w, TransportParamId::kMaxIdleTimeout,
                     *tp.max_idle_timeout);
  if (tp.stateless_reset_token)
    put_bytes_param(w, TransportParamId::kStatelessResetToken,
                    *tp.stateless_reset_token);
  if (tp.max_udp_payload_size)
    put_varint_param(w, TransportParamId::kMaxUdpPayloadSize,
                     *tp.max_udp_payload_size);
  if (tp.initial_max_data)
    put_varint_param(w, TransportParamId::kInitialMaxData,
                     *tp.initial_max_data);
  if (tp.initial_max_stream_data_bidi_local)
    put_varint_param(w, TransportParamId::kInitialMaxStreamDataBidiLocal,
                     *tp.initial_max_stream_data_bidi_local);
  if (tp.initial_max_stream_data_bidi_remote)
    put_varint_param(w, TransportParamId::kInitialMaxStreamDataBidiRemote,
                     *tp.initial_max_stream_data_bidi_remote);
  if (tp.initial_max_stream_data_uni)
    put_varint_param(w, TransportParamId::kInitialMaxStreamDataUni,
                     *tp.initial_max_stream_data_uni);
  if (tp.initial_max_streams_bidi)
    put_varint_param(w, TransportParamId::kInitialMaxStreamsBidi,
                     *tp.initial_max_streams_bidi);
  if (tp.initial_max_streams_uni)
    put_varint_param(w, TransportParamId::kInitialMaxStreamsUni,
                     *tp.initial_max_streams_uni);
  if (tp.ack_delay_exponent)
    put_varint_param(w, TransportParamId::kAckDelayExponent,
                     *tp.ack_delay_exponent);
  if (tp.max_ack_delay)
    put_varint_param(w, TransportParamId::kMaxAckDelay, *tp.max_ack_delay);
  if (tp.disable_active_migration) {
    w.varint(static_cast<uint64_t>(TransportParamId::kDisableActiveMigration));
    w.varint(0);
  }
  if (tp.preferred_address)
    put_bytes_param(w, TransportParamId::kPreferredAddress,
                    *tp.preferred_address);
  if (tp.active_connection_id_limit)
    put_varint_param(w, TransportParamId::kActiveConnectionIdLimit,
                     *tp.active_connection_id_limit);
  if (tp.initial_source_connection_id)
    put_bytes_param(w, TransportParamId::kInitialSourceConnectionId,
                    *tp.initial_source_connection_id);
  if (tp.retry_source_connection_id)
    put_bytes_param(w, TransportParamId::kRetrySourceConnectionId,
                    *tp.retry_source_connection_id);
  if (tp.version_information) {
    w.varint(static_cast<uint64_t>(TransportParamId::kVersionInformation));
    w.varint(4 + 4 * tp.version_information->available.size());
    w.u32(tp.version_information->chosen);
    for (uint32_t v : tp.version_information->available) w.u32(v);
  }
  for (const auto& [id, value] : tp.unknown) {
    w.varint(id);
    w.varint(value.size());
    w.bytes(value);
  }
  return w.data();
}

TransportParameters decode_transport_parameters(
    std::span<const uint8_t> data) {
  TransportParameters tp;
  wire::Reader r(data);
  // Ids seen so far: a bit each below 64, where every known id lies;
  // the rest all land in tp.unknown, which is searched instead.
  uint64_t seen_below_64 = 0;
  while (!r.done()) {
    uint64_t id = r.varint();
    uint64_t len = r.varint();
    auto body = r.bytes(len);
    bool duplicate = false;
    if (id < 64) {
      duplicate = seen_below_64 & uint64_t{1} << id;
      seen_below_64 |= uint64_t{1} << id;
    } else {
      duplicate = std::ranges::any_of(
          tp.unknown, [id](const auto& param) { return param.first == id; });
    }
    if (duplicate)
      throw TpDecodeError(TpDecodeError::Kind::kDuplicate, id,
                          "duplicate transport parameter 0x" +
                              std::to_string(id));
    wire::Reader value(body);
    auto read_int = [&]() {
      uint64_t v = value.varint();
      if (!value.done())
        throw wire::DecodeError("transport parameter value overlong");
      return v;
    };
    auto read_bytes = [&]() {
      auto rest = value.rest();
      return std::vector<uint8_t>(rest.begin(), rest.end());
    };
    switch (static_cast<TransportParamId>(id)) {
      case TransportParamId::kOriginalDestinationConnectionId:
        tp.original_destination_connection_id = read_bytes();
        break;
      case TransportParamId::kMaxIdleTimeout:
        tp.max_idle_timeout = read_int();
        break;
      case TransportParamId::kStatelessResetToken: {
        auto token = read_bytes();
        if (token.size() != 16)
          throw wire::DecodeError("stateless_reset_token must be 16 bytes");
        tp.stateless_reset_token = std::move(token);
        break;
      }
      case TransportParamId::kMaxUdpPayloadSize: {
        uint64_t v = read_int();
        if (v < 1200)
          throw wire::DecodeError("max_udp_payload_size below 1200");
        tp.max_udp_payload_size = v;
        break;
      }
      case TransportParamId::kInitialMaxData:
        tp.initial_max_data = read_int();
        break;
      case TransportParamId::kInitialMaxStreamDataBidiLocal:
        tp.initial_max_stream_data_bidi_local = read_int();
        break;
      case TransportParamId::kInitialMaxStreamDataBidiRemote:
        tp.initial_max_stream_data_bidi_remote = read_int();
        break;
      case TransportParamId::kInitialMaxStreamDataUni:
        tp.initial_max_stream_data_uni = read_int();
        break;
      case TransportParamId::kInitialMaxStreamsBidi:
        tp.initial_max_streams_bidi = read_int();
        break;
      case TransportParamId::kInitialMaxStreamsUni:
        tp.initial_max_streams_uni = read_int();
        break;
      case TransportParamId::kAckDelayExponent: {
        uint64_t v = read_int();
        if (v > 20) throw wire::DecodeError("ack_delay_exponent above 20");
        tp.ack_delay_exponent = v;
        break;
      }
      case TransportParamId::kMaxAckDelay: {
        uint64_t v = read_int();
        if (v >= (uint64_t{1} << 14))
          throw wire::DecodeError("max_ack_delay out of range");
        tp.max_ack_delay = v;
        break;
      }
      case TransportParamId::kDisableActiveMigration:
        if (!value.done())
          throw wire::DecodeError("disable_active_migration takes no value");
        tp.disable_active_migration = true;
        break;
      case TransportParamId::kPreferredAddress:
        tp.preferred_address = read_bytes();
        break;
      case TransportParamId::kActiveConnectionIdLimit: {
        uint64_t v = read_int();
        if (v < 2)
          throw wire::DecodeError("active_connection_id_limit below 2");
        tp.active_connection_id_limit = v;
        break;
      }
      case TransportParamId::kInitialSourceConnectionId:
        tp.initial_source_connection_id = read_bytes();
        break;
      case TransportParamId::kRetrySourceConnectionId:
        tp.retry_source_connection_id = read_bytes();
        break;
      case TransportParamId::kVersionInformation: {
        TransportParameters::VersionInformation info;
        info.chosen = value.u32();
        info.available.reserve(value.remaining() / 4);
        while (!value.done()) info.available.push_back(value.u32());
        if (info.available.empty())
          throw wire::DecodeError("version_information without versions");
        tp.version_information = std::move(info);
        break;
      }
      default:
        tp.unknown.emplace_back(id, read_bytes());
        break;
    }
  }
  return tp;
}

uint64_t first_flight_budget(const TransportParameters& peer_params,
                             uint64_t streams) {
  const uint64_t n =
      std::min(streams, peer_params.initial_max_streams_bidi.value_or(0));
  // Client-opened bidi streams are bounded by the peer's "remote" limit
  // (RFC 9000 section 18.2 names it from the peer's side). The product
  // saturates: a 2^62 - 1 window on 100 streams would wrap.
  const uint64_t window =
      peer_params.initial_max_stream_data_bidi_remote.value_or(0);
  const uint64_t streams_total =
      window != 0 && n > UINT64_MAX / window ? UINT64_MAX : n * window;
  return std::min(peer_params.initial_max_data.value_or(0), streams_total);
}

TransportParameters::ConfigFields TransportParameters::config_fields() const {
  return {max_idle_timeout, max_udp_payload_size, initial_max_data,
          initial_max_stream_data_bidi_local,
          initial_max_stream_data_bidi_remote, initial_max_stream_data_uni,
          initial_max_streams_bidi, initial_max_streams_uni,
          ack_delay_exponent, max_ack_delay, active_connection_id_limit,
          uint64_t{disable_active_migration}};
}

std::string TransportParameters::config_key() const {
  // One label per config_fields() entry, in the same order.
  static constexpr const char* kNames[] = {
      "idle", "udp", "data", "sd_bl", "sd_br", "sd_u",
      "s_bidi", "s_uni", "ade", "mad", "acil", "dam"};
  static_assert(std::size(kNames) == std::tuple_size_v<ConfigFields>);
  const ConfigFields fields = config_fields();
  std::string key;
  for (size_t i = 0; i < fields.size(); ++i) {
    key += kNames[i];
    key += '=';
    key += fields[i] ? std::to_string(*fields[i]) : "-";
    key += ';';
  }
  return key;
}

}  // namespace quic
