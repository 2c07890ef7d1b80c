// Scanner resilience layer: deterministic retry policy (exponential
// backoff + decorrelated jitter, per-target attempt budget) and a
// per-AS circuit breaker that degrades gracefully when a provider
// starts shedding probes. Shared by QScanner/ZMap/DNS/TCP-TLS so every
// pipeline survives the fault fabric's impairment profiles the same
// way. All randomness is keyed on (jitter seed, target, attempt) --
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

  /// Backoff before attempt `attempt + 1` (attempt counts completed
  /// tries, so the first retry passes 1). Exponential growth from 50 ms
  /// capped at 1 s, then decorrelated into [cap/2, cap] with jitter
  /// keyed on (target, attempt).
  uint64_t backoff_us(const netsim::IpAddress& target, int attempt) const;
};

/// Per-AS circuit breaker. After 8 consecutive failures in one AS the
/// breaker opens: further targets there are skipped-and-recorded (a
/// distinct outcome class, no wire traffic, no virtual time) except
/// every 16th, which probes the AS and closes the breaker again on
/// success. A breaker constructed disabled admits everything; state is
/// per-scanner (per-shard), so it never couples shards.
class AsCircuitBreaker {
 public:
  explicit AsCircuitBreaker(bool enabled) : enabled_(enabled) {}

  /// True when the breaker currently blocks this AS.
  bool is_open(uint32_t asn) const;

  /// Decides whether the next target in `asn` may probe. When the
  /// breaker is open this admits only every 16th target (the half-open
  /// probe) and turns the rest away.
  bool allow(uint32_t asn);

  /// Reports an attempt outcome. Success closes the AS's breaker and
  /// resets its failure run; failure extends the run and opens the
  /// breaker at the threshold. Returns true when this call newly
  /// opened (tripped) the breaker.
  bool record(uint32_t asn, bool success);

 private:
  struct AsState {
    int consecutive_failures = 0;
    bool open = false;
    int since_open = 0;  // targets seen while open, for half-open cadence
  };

  bool enabled_;
  std::unordered_map<uint32_t, AsState> state_;
};

}  // namespace scanner
