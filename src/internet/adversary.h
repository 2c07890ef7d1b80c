// Named adversary profiles for the misbehaving-endpoint fabric: where
// the impairment profiles (netsim/impairment.h) stress the *network*,
// these stress the *endpoints* -- the paper's central finding is that
// early QUIC deployments are wildly heterogeneous and frequently
// non-compliant, and a scanner must classify every such server without
// crashing or hanging. Profiles are pure data; every misbehavior
// decision is a stateless hash of (adversary seed, host address), so a
// given host misbehaves identically at any shard count, under either
// schedule, and across client retries ("a broken server is
// consistently broken").
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "netsim/network.h"
#include "quic/connection.h"

namespace internet {

/// One named misbehavior mix. Each field is the probability (per host)
/// of that misbehavior lane being armed in the host's AdversaryPlan;
/// lanes draw independently, so a sufficiently hostile profile can
/// stack several faults on one host. Every field defaults to "off" so
/// a default-constructed profile (== `compliant`) is a no-op overlay.
struct AdversaryProfile {
  std::string name;

  // Benign-but-weird lanes a hardened client must *tolerate*.
  double tp_grease = 0.0;   // extra GREASE transport parameters (legal)
  double garbage = 0.0;     // undecryptable datagrams after the handshake

  // Violation lanes that must terminate the attempt in the taxonomy.
  double tp_duplicate = 0.0;    // -> ProtocolError::kTpDuplicate
  double tp_malformed = 0.0;    // -> ProtocolError::kTpMalformed
  double frame_unknown = 0.0;   // -> ProtocolError::kFrameUnknown
  double frame_illegal = 0.0;   // -> ProtocolError::kFrameIllegal
  double ack_invalid = 0.0;     // -> ProtocolError::kAckInvalid
  double crypto_overlap = 0.0;  // -> ProtocolError::kCryptoInconsistent
  double vn_loop = 0.0;         // -> ProtocolError::kVnLoop
  double crypto_truncate = 0.0; // -> stalled mid-handshake (deadline)
  double stall = 0.0;           // -> stalled mid-handshake (deadline)

  /// True when every lane is off (the `compliant` profile).
  bool is_compliant() const;
};

/// Derives per-host AdversaryPlans from a profile and a campaign seed.
/// Stateless: plan_for is a pure function of (profile, seed, address),
/// which is exactly what keeps campaign output byte-identical across
/// --jobs and chunk partitions (DESIGN.md "Adversarial endpoints").
class AdversaryModel {
 public:
  AdversaryModel(const AdversaryProfile& profile, uint64_t seed);

  quic::AdversaryPlan plan_for(const netsim::IpAddress& address) const;

 private:
  AdversaryProfile profile_;
  uint64_t seed_;
};

/// Looks up a built-in profile (`compliant`, `sloppy`, `broken`,
/// `malicious`). Returns nullptr for unknown names.
const AdversaryProfile* find_adversary_profile(std::string_view name);

/// Names of all built-in profiles, for CLI help and validation errors.
std::span<const std::string_view> adversary_profile_names();

}  // namespace internet
