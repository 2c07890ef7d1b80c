#include "internet/adversary.h"

#include <array>

namespace internet {

bool AdversaryProfile::is_compliant() const {
  return tp_grease == 0 && garbage == 0 && tp_duplicate == 0 &&
         tp_malformed == 0 && frame_unknown == 0 && frame_illegal == 0 &&
         ack_invalid == 0 && crypto_overlap == 0 && vn_loop == 0 &&
         crypto_truncate == 0 && stall == 0;
}

namespace {

/// crypto::splitmix64 as a pure function of its input.
uint64_t mix(uint64_t z) { return crypto::splitmix64(z); }

/// One lane's deterministic draw in [0, 1).
double lane_draw(uint64_t seed, uint64_t host, uint64_t lane) {
  uint64_t h = mix(seed ^ mix(host ^ mix(lane)));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Small deterministic integer in [lo, hi] for lane parameters.
uint64_t lane_int(uint64_t seed, uint64_t host, uint64_t lane, uint64_t lo,
                  uint64_t hi) {
  uint64_t h = mix(seed ^ mix(host ^ mix(lane ^ 0xa5)));
  return lo + h % (hi - lo + 1);
}

// Lane ids: fixed constants so adding a lane never re-keys the others.
enum : uint64_t {
  kLaneGrease = 1,
  kLaneGarbage = 2,
  kLaneTpDuplicate = 3,
  kLaneTpMalformed = 4,
  kLaneFrameUnknown = 5,
  kLaneFrameIllegal = 6,
  kLaneAckInvalid = 7,
  kLaneCryptoOverlap = 8,
  kLaneVnLoop = 9,
  kLaneCryptoTruncate = 10,
  kLaneStall = 11,
  kLaneSeed = 12,
};

// The built-in catalogue. `compliant` is the explicit no-op baseline;
// `sloppy` is mostly-benign weirdness (GREASE, trailing garbage, the
// occasional duplicated TP) -- most attempts still succeed; `broken`
// models genuinely non-compliant deployments across every violation
// lane; `malicious` arms everything at high probability, stacking
// faults on most hosts.
const std::array<AdversaryProfile, 4> kProfiles = {{
    {.name = "compliant"},
    {.name = "sloppy",
     .tp_grease = 0.50,
     .garbage = 0.25,
     .tp_duplicate = 0.05,
     .ack_invalid = 0.05},
    {.name = "broken",
     .tp_grease = 0.30,
     .garbage = 0.20,
     .tp_duplicate = 0.10,
     .tp_malformed = 0.15,
     .frame_unknown = 0.15,
     .frame_illegal = 0.05,
     .ack_invalid = 0.05,
     .crypto_overlap = 0.10,
     .vn_loop = 0.10,
     .crypto_truncate = 0.15,
     .stall = 0.15},
    {.name = "malicious",
     .tp_grease = 0.50,
     .garbage = 0.50,
     .tp_duplicate = 0.15,
     .tp_malformed = 0.20,
     .frame_unknown = 0.20,
     .frame_illegal = 0.15,
     .ack_invalid = 0.15,
     .crypto_overlap = 0.15,
     .vn_loop = 0.15,
     .crypto_truncate = 0.20,
     .stall = 0.20},
}};

const std::array<std::string_view, 4> kProfileNames = {
    "compliant", "sloppy", "broken", "malicious"};

}  // namespace

AdversaryModel::AdversaryModel(const AdversaryProfile& profile, uint64_t seed)
    : profile_(profile), seed_(seed) {}

quic::AdversaryPlan AdversaryModel::plan_for(
    const netsim::IpAddress& address) const {
  const uint64_t host = crypto::fnv1a64(address.to_string());
  auto armed = [&](double probability, uint64_t lane) {
    return probability > 0 && lane_draw(seed_, host, lane) < probability;
  };
  quic::AdversaryPlan plan;
  if (armed(profile_.tp_grease, kLaneGrease))
    plan.tp_grease =
        static_cast<int>(lane_int(seed_, host, kLaneGrease, 1, 3));
  if (armed(profile_.garbage, kLaneGarbage))
    plan.garbage_datagrams =
        static_cast<int>(lane_int(seed_, host, kLaneGarbage, 2, 6));
  plan.tp_duplicate = armed(profile_.tp_duplicate, kLaneTpDuplicate);
  plan.tp_malformed = armed(profile_.tp_malformed, kLaneTpMalformed);
  plan.frame_unknown = armed(profile_.frame_unknown, kLaneFrameUnknown);
  plan.frame_illegal_stream = armed(profile_.frame_illegal, kLaneFrameIllegal);
  plan.ack_invalid = armed(profile_.ack_invalid, kLaneAckInvalid);
  plan.crypto_overlap_conflict =
      armed(profile_.crypto_overlap, kLaneCryptoOverlap);
  plan.vn_loop = armed(profile_.vn_loop, kLaneVnLoop);
  if (armed(profile_.crypto_truncate, kLaneCryptoTruncate))
    plan.crypto_truncate = lane_int(seed_, host, kLaneCryptoTruncate, 16, 128);
  plan.stall_after_hello = armed(profile_.stall, kLaneStall);
  plan.seed = mix(seed_ ^ mix(host ^ kLaneSeed));
  return plan;
}

const AdversaryProfile* find_adversary_profile(std::string_view name) {
  for (const auto& profile : kProfiles)
    if (profile.name == name) return &profile;
  return nullptr;
}

std::span<const std::string_view> adversary_profile_names() {
  return kProfileNames;
}

}  // namespace internet
