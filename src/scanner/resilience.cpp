#include "scanner/resilience.h"

#include <algorithm>

#include "crypto/rng.h"

namespace scanner {

namespace {

// The first retry's nominal backoff, and the cap on its doubling.
constexpr uint64_t kBaseBackoffUs = 50'000;
constexpr uint64_t kMaxBackoffUs = 1'000'000;
// Jitter stream seed; deliberately NOT the campaign/shard seed so a
// target's backoff is a pure function of (target, attempt).
constexpr uint64_t kJitterSeed = 0x7e57;

// Consecutive failures in one AS that open its breaker.
constexpr int kFailureThreshold = 8;
// While open, every this-many-th target in the AS probes it again.
constexpr int kHalfOpenEvery = 16;

}  // namespace

uint64_t RetryPolicy::backoff_us(const netsim::IpAddress& target,
                                 int attempt) const {
  uint64_t cap = kBaseBackoffUs;
  for (int i = 1; i < attempt && cap < kMaxBackoffUs; ++i) cap *= 2;
  cap = std::min(cap, kMaxBackoffUs);
  // Decorrelated jitter in [cap/2, cap], counter-based over
  // (jitter seed, target, attempt): identical at any shard count.
  uint64_t state = kJitterSeed ^ netsim::address_key64(target) ^
                   static_cast<uint64_t>(attempt) * 0x9e3779b97f4a7c15ull;
  crypto::splitmix64(state);
  const uint64_t jitter = crypto::splitmix64(state) % (cap / 2 + 1);
  return cap / 2 + jitter;
}

bool AsCircuitBreaker::is_open(uint32_t asn) const {
  if (!enabled_) return false;
  auto it = state_.find(asn);
  return it != state_.end() && it->second.open;
}

bool AsCircuitBreaker::allow(uint32_t asn) {
  if (!enabled_) return true;
  auto& as_state = state_[asn];
  if (!as_state.open) return true;
  // Half-open cadence: the first target after the trip is skipped; the
  // kHalfOpenEvery-th probes the AS again.
  ++as_state.since_open;
  return as_state.since_open % kHalfOpenEvery == 0;
}

bool AsCircuitBreaker::record(uint32_t asn, bool success) {
  if (!enabled_) return false;
  auto& as_state = state_[asn];
  if (success) {
    as_state.consecutive_failures = 0;
    as_state.open = false;
    as_state.since_open = 0;
    return false;
  }
  ++as_state.consecutive_failures;
  if (!as_state.open && as_state.consecutive_failures >= kFailureThreshold) {
    as_state.open = true;
    as_state.since_open = 0;
    return true;
  }
  return false;
}

}  // namespace scanner
