// Output digests and the reference store. Every deterministic artifact
// of one repetition -- merged CSV rows, report.json/report.md, the
// merged --metrics JSON of each campaign, the Alt-Svc findings -- is
// folded into a SHA-256 digest per campaign unit (one calendar week of
// the sweep, or the one SNI week). references/<workload>.json keeps the
// digests per seed; a unit whose digest disagrees counts all its
// targets as failed.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/sha256.h"

namespace bench {

/// SHA-256 over length-framed items: moving a byte from one item to the
/// next changes the digest, and so does altering any single byte.
class Digest {
 public:
  void add(std::string_view item);
  std::string hex();

 private:
  crypto::Sha256 sha_;
};

/// The checked outputs of one campaign unit.
struct UnitDigests {
  std::string name;
  /// Artifact name ("csv", "report", "metrics", "alt_svc") -> hex digest.
  std::map<std::string, std::string> digests;
  /// Input entries the unit concluded (its share of `attempted`).
  uint64_t targets = 0;
  /// Stateful targets and their Success rows (success_ratio).
  uint64_t stateful = 0;
  uint64_t successes = 0;

  bool operator==(const UnitDigests&) const = default;
};

/// Targets of `got` that disagree with `want`: a unit missing from
/// `got`, or any artifact digest or count that differs, counts all of
/// the reference unit's targets.
uint64_t mismatched_targets(const std::vector<UnitDigests>& want,
                            const std::vector<UnitDigests>& got);

/// The reference units of (workload, seed) from `path`, or nullopt when
/// the file has no entry for the seed. Throws std::runtime_error on an
/// unreadable or malformed file.
std::optional<std::vector<UnitDigests>> load_reference(
    const std::string& path, uint64_t seed);

/// Adds or replaces the seed's entry in `path` (created if absent).
void store_reference(const std::string& path, const std::string& workload,
                     uint64_t seed, const std::vector<UnitDigests>& units);

}  // namespace bench
