// The 45 transport-parameter configurations observed in the paper
// (section 5.2, Figure 9). Exact per-config values were published as an
// artifact, not printed in the paper; this catalog reconstructs them to
// satisfy every constraint the text states:
//   * 45 distinct configurations in total;
//   * config 0 (Cloudflare) is draft-34 defaults + initial stream data
//     1 048 576 B and initial max data an order of magnitude larger;
//   * Facebook AS configs allow 10 485 760 B for all stream data and
//     differ only in max_udp_payload_size (1500 vs 1404);
//   * Facebook edge-POP configs mirror those with stream data 67 584;
//   * 12 configs use the 65 527 B default payload size, 12 use 1500,
//     and 10 distinct effective values occur overall;
//   * initial max data spans 8 192 .. 16 777 216;
//   * initial stream data spans 32 768 .. 10 485 760;
//   * ack-delay/connection-id parameters are mostly defaults.
#pragma once

#include <string>
#include <vector>

#include "quic/transport_params.h"

namespace internet {

struct TpConfigEntry {
  int id = 0;
  /// Who the configuration is modeled after ("cloudflare", "mvfst-as",
  /// "mvfst-pop", "gvs", "litespeed", "nginx", "caddy", "misc").
  std::string owner_hint;
  quic::TransportParameters params;
};

/// The full catalog, ordered by id (0..44).
const std::vector<TpConfigEntry>& tp_catalog();

inline constexpr int kTpConfigCloudflare = 0;
inline constexpr int kTpConfigMvfstAs1500 = 1;
inline constexpr int kTpConfigMvfstAs1404 = 2;
inline constexpr int kTpConfigMvfstPop1500 = 3;
inline constexpr int kTpConfigMvfstPop1404 = 4;
inline constexpr int kTpConfigGvs = 5;
inline constexpr int kTpConfigGoogleFrontend = 6;
inline constexpr int kTpConfigLiteSpeed = 7;
inline constexpr int kTpConfigLiteSpeedAlt = 8;
inline constexpr int kTpConfigNginxBase = 9;  // 9..25 are nginx-family
inline constexpr int kTpConfigCaddy = 26;
inline constexpr int kTpConfigCount = 45;

/// The id of the entry with params' config_fields(), or -1 if none.
int tp_config_id_for(const quic::TransportParameters& params);

}  // namespace internet
