// Named impairment profiles for the fault-injection fabric: overlays on
// a link's Impairment that model the operational hazards real
// scanning campaigns meet (bursty loss, reordering, duplication,
// corruption, jitter, provider-side rate limiting). Profiles are pure
// data; the Network draws every impairment decision from counter-based
// RNG keyed on (seed, link, datagram_seq), so a profile behaves
// identically at any shard count and is replayable from a trace.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace netsim {

/// The fault-injection fabric's per-link knobs. Every field defaults to
/// "off"; LinkProperties carries one per link and each named profile
/// carries the one it overlays.
struct Impairment {
  // Gilbert-Elliott two-state loss. The link starts in the good state;
  // per datagram it drops with the state's loss rate, then transitions
  // with the state's switch probability. Setting both loss rates equal
  // and both transitions to zero degenerates to iid loss.
  double ge_loss_good = 0.0;
  double ge_loss_bad = 0.0;
  double ge_p_good_bad = 0.0;  // P(good -> bad) per datagram
  double ge_p_bad_good = 0.0;  // P(bad -> good) per datagram

  // Bounded reordering: with probability `reorder` a datagram is held
  // back an extra `reorder_extra_us` before delivery, letting later
  // datagrams overtake it.
  double reorder = 0.0;
  uint64_t reorder_extra_us = 0;

  // Duplication: with this probability the datagram is delivered twice.
  double duplicate = 0.0;

  // Corruption: with this probability one bit of the payload is flipped
  // in flight (caught by the AEAD tag at the receiver).
  double corrupt = 0.0;

  // Uniform latency jitter in [0, jitter_us] added per datagram.
  uint64_t jitter_us = 0;

  // Token-bucket policer: over-budget datagrams are silently dropped
  // (the provider-throttling failure mode of the paper's section 4
  // scans). 0 pps disables.
  double rate_limit_pps = 0.0;
  double rate_burst = 0.0;

  /// True when some knob makes the fabric touch a datagram.
  bool active() const {
    return ge_loss_good > 0 || ge_loss_bad > 0 || ge_p_good_bad > 0 ||
           reorder > 0 || duplicate > 0 || corrupt > 0 || jitter_us > 0 ||
           rate_limit_pps > 0;
  }

  bool operator==(const Impairment&) const = default;
};

/// One named impairment mix. A default-constructed profile (== `clean`)
/// is a no-op overlay.
struct ImpairmentProfile {
  std::string name;
  Impairment impairment{};

  // Server-side flight splitting: when > 0, impaired QUIC deployments
  // send each handshake CRYPTO chunk of at most this many bytes in its
  // own datagram, so reordering can actually produce out-of-order
  // CRYPTO at the client. 0 keeps the single coalesced flight.
  size_t max_crypto_chunk = 0;

  /// True when the profile impairs nothing: no active knob and no
  /// flight split (the `clean` profile).
  bool is_clean() const {
    return !impairment.active() && max_crypto_chunk == 0;
  }
};

/// Looks up a built-in profile (`clean`, `lossy`, `bursty`, `hostile`,
/// `throttled`). Returns nullptr for unknown names.
const ImpairmentProfile* find_impairment_profile(std::string_view name);

/// Names of all built-in profiles, for CLI help and validation errors.
std::span<const std::string_view> impairment_profile_names();

}  // namespace netsim
