// Transport-parameter library fingerprinting (the paper's Table 5/6 and
// Figure 9 attribution): a server's configuration-specific transport
// parameters -- presence and values, session-specific options excluded,
// exactly the clustering of section 5.2 -- identify the implementation
// that produced them. The classifier is driven by internet::tp_catalog()
// (the 45 observed configurations) and is deliberately exact: a
// configuration that matches no catalog entry classifies as "unknown"
// rather than being attributed to the nearest library, so a perturbed
// parameter set can never be misattributed (the golden test in
// tests/test_report.cpp holds it to that).
#pragma once

#include <string>

#include "quic/transport_params.h"

namespace report {

/// The explicit not-in-catalog class.
inline constexpr char kUnknownLibrary[] = "unknown";

struct Fingerprint {
  /// internet::tp_catalog() id, or -1 when the configuration is unknown.
  int config_id = -1;
  /// Implementation label ("quiche", "mvfst", "google-quic", "lsquic",
  /// "nginx-quic", "quic-go", "custom") or kUnknownLibrary.
  std::string library = kUnknownLibrary;

  bool known() const { return config_id >= 0; }
};

/// Maps a catalog owner hint ("cloudflare", "mvfst-as", ...) to the
/// library label above. Unrecognized hints map to kUnknownLibrary.
std::string library_for_owner(const std::string& owner_hint);

/// Classifies by the configuration fields (presence + values of every
/// configuration-specific parameter; CIDs, tokens and the preferred
/// address are excluded, per the paper's methodology).
Fingerprint fingerprint_of(const quic::TransportParameters& tp);

/// Classifies a catalog id directly (the CSV replay path, which stores
/// the id instead of the full parameter set). Out-of-range ids --
/// including the -1 the CSV writer emits for non-catalog configs --
/// yield the unknown fingerprint.
Fingerprint fingerprint_of_config(int config_id);

}  // namespace report
