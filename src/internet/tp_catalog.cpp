#include "internet/tp_catalog.h"

#include <map>
#include <stdexcept>

namespace internet {

namespace {

using quic::TransportParameters;

TransportParameters make(uint64_t idle, std::optional<uint64_t> udp,
                         uint64_t data, uint64_t stream_bl,
                         uint64_t stream_br, uint64_t stream_uni,
                         uint64_t streams_bidi, uint64_t streams_uni) {
  TransportParameters tp;
  tp.max_idle_timeout = idle;
  tp.max_udp_payload_size = udp;
  tp.initial_max_data = data;
  tp.initial_max_stream_data_bidi_local = stream_bl;
  tp.initial_max_stream_data_bidi_remote = stream_br;
  tp.initial_max_stream_data_uni = stream_uni;
  tp.initial_max_streams_bidi = streams_bidi;
  tp.initial_max_streams_uni = streams_uni;
  // ack_delay_exponent / max_ack_delay / active_connection_id_limit are
  // left absent (= RFC defaults) unless a config overrides them below.
  return tp;
}

std::vector<TpConfigEntry> build_catalog() {
  std::vector<TpConfigEntry> catalog;
  auto add = [&](std::string owner, TransportParameters tp) {
    catalog.push_back({static_cast<int>(catalog.size()), std::move(owner),
                       std::move(tp)});
  };

  // 0: Cloudflare (quiche). Defaults + 1 MiB stream data, 10 MiB data.
  {
    TransportParameters tp;
    tp.max_idle_timeout = 30000;
    tp.initial_max_data = 10485760;
    tp.initial_max_stream_data_bidi_local = 1048576;
    tp.initial_max_stream_data_bidi_remote = 1048576;
    tp.initial_max_stream_data_uni = 1048576;
    tp.initial_max_streams_bidi = 100;
    tp.initial_max_streams_uni = 100;
    tp.disable_active_migration = true;
    add("cloudflare", std::move(tp));
  }
  // 1-2: Facebook AS32934 (mvfst): 10 MiB stream data, udp 1500/1404.
  add("mvfst-as", make(60000, 1500, 16777216, 10485760, 10485760, 10485760,
                       100, 100));
  add("mvfst-as", make(60000, 1404, 16777216, 10485760, 10485760, 10485760,
                       100, 100));
  // 3-4: Facebook edge POPs: stream data 67 584, udp 1500/1404.
  add("mvfst-pop", make(60000, 1500, 1048576, 67584, 67584, 67584, 100, 100));
  add("mvfst-pop", make(60000, 1404, 1048576, 67584, 67584, 67584, 100, 100));
  // 5: Google video serving POPs (gvs 1.0).
  {
    auto tp = make(30000, 1472, 15728640, 6291456, 6291456, 6291456, 100, 103);
    tp.max_ack_delay = 25;  // explicit on the wire, same as default
    add("gvs", std::move(tp));
  }
  // 6: Google frontend (gws etc.).
  add("google-frontend",
      make(30000, 1472, 15728640, 6291456, 6291456, 6291456, 100, 103));
  // Distinguish 5 and 6: frontend disables migration.
  catalog.back().params.disable_active_migration = true;
  // 7-8: LiteSpeed (lsquic defaults; alt raises stream windows).
  add("litespeed", make(30000, std::nullopt, 1572864, 65536, 65536, 65536,
                        100, 100));
  add("litespeed", make(30000, std::nullopt, 3145728, 131072, 131072, 131072,
                        100, 100));
  // 9-25: the nginx family -- 17 configurations (official QUIC branch,
  // Cloudflare's quiche-nginx fork, yunjiasu, assorted versions). The
  // paper counts 17 distinct parameter combinations for Server values
  // containing "nginx".
  const uint64_t nginx_data[] = {1048576, 2097152, 4194304, 8388608,
                                 16777216, 524288, 262144};
  const uint64_t nginx_stream[] = {65536, 131072, 262144, 524288, 1048576};
  const std::optional<uint64_t> nginx_udp[] = {std::nullopt, 1500, 1350,
                                               4096};
  for (int i = 0; i < 17; ++i) {
    auto tp = make(i % 2 ? 30000 : 60000, nginx_udp[i % 4],
                   nginx_data[i % 7], nginx_stream[i % 5],
                   nginx_stream[(i + 1) % 5], nginx_stream[i % 5],
                   16 + 16 * static_cast<uint64_t>(i % 3), 3);
    if (i % 5 == 0) tp.active_connection_id_limit = 4;
    add("nginx", std::move(tp));
  }
  // 26: Caddy (quic-go defaults).
  add("caddy", make(30000, std::nullopt, 786432, 524288, 524288, 524288,
                    100, 100));
  // 27-44: miscellaneous individual deployments (h2o, aiohttp, custom
  // builds on cloud providers). Values sweep the ranges the paper
  // reports: data 8 KiB..16 MiB, stream 32 KiB..10 MiB, and the
  // remaining distinct udp payload sizes.
  struct Misc {
    uint64_t idle, data, stream;
    std::optional<uint64_t> udp;
    uint64_t streams_bidi;
  };
  const Misc misc[] = {
      {10000, 8192, 32768, 1200, 4},        // minimal embedded config
      {15000, 65536, 32768, 1252, 8},
      {30000, 131072, 65536, 1350, 16},
      {30000, 262144, 131072, 1452, 16},
      {45000, 524288, 262144, 8192, 32},
      {60000, 1048576, 524288, 1350, 64},
      {60000, 2097152, 1048576, 1500, 64},
      {30000, 4194304, 2097152, 1350, 100},
      {30000, 8388608, 4194304, 1500, 100},
      {90000, 16777216, 10485760, 1350, 128},  // max observed
      {30000, 786432, 98304, 1500, 100},
      {30000, 1572864, 196608, 1350, 100},
      {20000, 3145728, 393216, 1500, 50},
      {25000, 6291456, 786432, std::nullopt, 50},
      {30000, 12582912, 1572864, 1500, 100},
      {35000, 245760, 49152, std::nullopt, 10},
      {40000, 491520, 98304, 1500, 10},
      {50000, 983040, 196608, std::nullopt, 20},
  };
  for (const auto& m : misc) {
    auto tp = make(m.idle, m.udp, m.data, m.stream, m.stream, m.stream,
                   m.streams_bidi, 3);
    add("misc", std::move(tp));
  }

  if (catalog.size() != kTpConfigCount)
    throw std::logic_error("tp_catalog must contain exactly 45 entries");
  return catalog;
}

}  // namespace

const std::vector<TpConfigEntry>& tp_catalog() {
  static const std::vector<TpConfigEntry> catalog = build_catalog();
  return catalog;
}

int tp_config_id_for(const quic::TransportParameters& params) {
  using Fields = quic::TransportParameters::ConfigFields;
  static const std::map<Fields, int> index = [] {
    std::map<Fields, int> map;
    for (const auto& entry : tp_catalog())
      map.emplace(entry.params.config_fields(), entry.id);
    if (map.size() != tp_catalog().size())
      throw std::logic_error("tp_catalog configurations must be unique");
    return map;
  }();
  auto it = index.find(params.config_fields());
  return it == index.end() ? -1 : it->second;
}

}  // namespace internet
