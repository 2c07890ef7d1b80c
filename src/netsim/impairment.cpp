#include "netsim/impairment.h"

#include <array>

namespace netsim {

namespace {

// The built-in catalogue. `clean` is the explicit no-op so scripts can
// spell out a baseline; `lossy` is iid loss (Gilbert-Elliott with both
// states equal and no transitions); `bursty` is the classic GE chain
// (~10.8% mean loss in ~17% bad-state residency); `hostile` piles
// bursty loss, reordering, duplication, corruption, jitter and split
// server flights on top; `throttled` models a provider policing probes
// to a trickle (one-datagram bucket at 10 pps: the handshake's reply
// flight reliably lands over budget).
const std::array<ImpairmentProfile, 5> kProfiles = {{
    {.name = "clean"},
    {.name = "lossy",
     .impairment = {.ge_loss_good = 0.05, .ge_loss_bad = 0.05}},
    {.name = "bursty",
     .impairment = {.ge_loss_good = 0.01,
                    .ge_loss_bad = 0.6,
                    .ge_p_good_bad = 0.05,
                    .ge_p_bad_good = 0.25}},
    {.name = "hostile",
     .impairment = {.ge_loss_good = 0.01,
                    .ge_loss_bad = 0.6,
                    .ge_p_good_bad = 0.05,
                    .ge_p_bad_good = 0.25,
                    .reorder = 0.15,
                    .reorder_extra_us = 30'000,
                    .duplicate = 0.05,
                    .corrupt = 0.05,
                    .jitter_us = 5'000},
     .max_crypto_chunk = 600},
    {.name = "throttled",
     .impairment = {.rate_limit_pps = 10.0, .rate_burst = 1.0}},
}};

const std::array<std::string_view, 5> kProfileNames = {
    "clean", "lossy", "bursty", "hostile", "throttled"};

}  // namespace

const ImpairmentProfile* find_impairment_profile(std::string_view name) {
  for (const auto& profile : kProfiles)
    if (profile.name == name) return &profile;
  return nullptr;
}

std::span<const std::string_view> impairment_profile_names() {
  return kProfileNames;
}

}  // namespace netsim
