// Scanner resilience layer: deterministic retry policy (exponential
// backoff + decorrelated jitter, per-target attempt budget) and a
// per-AS circuit breaker that degrades gracefully when a provider
// starts shedding probes. Shared by QScanner/ZMap/DNS/TCP-TLS so every
// pipeline survives the fault fabric's impairment profiles the same
// way. All randomness is keyed on (policy seed, target, attempt) --
// never the chunk seed -- so retry schedules are identical at any
// --jobs K.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "netsim/address.h"

namespace scanner {

/// Deterministic retry schedule. `max_attempts` is the per-target
/// attempt budget (1 = no retries, the default: single-attempt
/// campaigns are byte-identical to the pre-retry scanners).
struct RetryPolicy {
  int max_attempts = 1;
  uint64_t base_backoff_us = 50'000;  // first retry's nominal backoff
  uint64_t max_backoff_us = 1'000'000;
  /// Jitter stream seed; deliberately NOT the campaign/shard seed so a
  /// target's backoff is a pure function of (seed, target, attempt).
  uint64_t jitter_seed = 0x7e57;

  bool enabled() const { return max_attempts > 1; }

  /// Backoff before attempt `attempt + 1` (attempt counts completed
  /// tries, so the first retry passes 1). Exponential growth capped at
  /// max_backoff_us, then decorrelated into [cap/2, cap] with jitter
  /// keyed on (jitter_seed, target, attempt).
  uint64_t backoff_us(const netsim::IpAddress& target, int attempt) const;
};

/// Per-AS circuit breaker. After `failure_threshold` consecutive
/// failures in one AS the breaker opens: further targets there are
/// skipped-and-recorded (a distinct outcome class, no wire traffic, no
/// virtual time) except every `half_open_every`-th, which probes the AS
/// and closes the breaker again on success. Disabled by default; state
/// is per-scanner (per-shard), so it never couples shards.
class AsCircuitBreaker {
 public:
  struct Options {
    bool enabled = false;
    int failure_threshold = 8;
    int half_open_every = 16;
  };

  // Two constructors rather than one defaulted argument: gcc rejects a
  // `= {}` default for a nested aggregate with member initializers
  // inside the enclosing class (PR c++/88165).
  AsCircuitBreaker() = default;
  explicit AsCircuitBreaker(Options options) : options_(options) {}

  /// True when the breaker currently blocks this AS.
  bool is_open(uint32_t asn) const;

  /// Decides whether the next target in `asn` may probe. When the
  /// breaker is open this admits only every half_open_every-th target
  /// (the half-open probe) and records the rest as skipped.
  bool allow(uint32_t asn);

  /// Reports an attempt outcome. Success closes the AS's breaker and
  /// resets its failure run; failure extends the run and opens the
  /// breaker at the threshold. Returns true when this call newly
  /// opened (tripped) the breaker.
  bool record(uint32_t asn, bool success);

  uint64_t skipped() const { return skipped_; }
  uint64_t trips() const { return trips_; }

 private:
  struct AsState {
    int consecutive_failures = 0;
    bool open = false;
    int since_open = 0;  // targets seen while open, for half-open cadence
  };

  Options options_;
  std::unordered_map<uint32_t, AsState> state_;
  uint64_t skipped_ = 0;
  uint64_t trips_ = 0;
};

}  // namespace scanner
