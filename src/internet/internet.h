// The Internet facade: builds the population for a week, which also
// answers as the week's authoritative DNS zone (A/AAAA/HTTPS), puts
// each population host on the simulated network fabric (UDP/443 +
// TCP/443) the first time traffic reaches its address, and exposes the
// scan inputs the paper's tooling consumed -- the IPv4 sweep space, the
// IPv6 hitlist, and the domain corpora.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "crypto/rng.h"
#include "dns/resolver.h"
#include "internet/adversary.h"
#include "internet/host.h"
#include "internet/population.h"
#include "netsim/impairment.h"
#include "netsim/network.h"

namespace internet {

inline constexpr uint16_t kQuicPort = 443;
inline constexpr uint16_t kTlsPort = 443;

/// The immutable half of a scan world: the population snapshot for one
/// calendar week, which is also the week's authoritative DNS zone. The
/// zone stores nothing of its own: each question is answered from the
/// population's domain and host tables (A and AAAA records from the
/// domain's host lists, the HTTPS record from its publication week).
/// Building one is the expensive part of world construction; everything
/// in it is read-only after the constructor returns, so one Snapshot
/// can be shared -- concurrently -- by any number of Internet worlds.
/// The campaign engine builds a single Snapshot per campaign and hands
/// it to every shard/chunk world, which keeps the per-world cost down
/// to the genuinely mutable state: the network fabric and the server
/// hosts its traffic touches.
class Snapshot : public dns::Zone {
 public:
  Snapshot(const PopulationParams& params, int week);

  const PopulationParams& params() const { return params_; }
  const Population& population() const { return population_; }
  const dns::Zone& zones() const { return *this; }

  /// A name owns a record exactly when it is a domain of the population
  /// with a host or a published HTTPS record; a query for it never
  /// yields a CNAME. Records come in host-list order with TTL 300.
  dns::RCode answer(const std::string& name, dns::RRType type,
                    std::vector<dns::ResourceRecord>& answers) const override;

 private:
  PopulationParams params_;
  Population population_;
};

class Internet {
 public:
  /// Self-contained world: builds a private Snapshot. Byte-identical to
  /// the shared-snapshot constructor -- the snapshot split moved code,
  /// not behavior.
  Internet(const PopulationParams& params, int week, netsim::EventLoop& loop);

  /// World over a shared immutable snapshot. Only the mutable state
  /// is built per world: the network fabric up front, and each server
  /// host when the fabric first routes to its address (see host_for).
  /// The snapshot may be shared with other worlds on other threads.
  Internet(std::shared_ptr<const Snapshot> snapshot, netsim::EventLoop& loop);

  // The network's resolver points back at this world.
  Internet(const Internet&) = delete;
  Internet& operator=(const Internet&) = delete;

  netsim::Network& network() { return network_; }
  const Population& population() const { return snapshot_->population(); }
  /// The week's authoritative DNS zone: the shared snapshot.
  const dns::Zone& zones() const { return snapshot_->zones(); }
  const std::shared_ptr<const Snapshot>& snapshot() const {
    return snapshot_;
  }

  /// IPv4 sweep candidates: every allocated host address plus two
  /// unresponsive addresses per host (the sweep must wade through
  /// silence, like the real 3-billion-address scan did).
  std::vector<netsim::IpAddress> zmap_candidates_v4() const;

  /// IPv6 scan input: union of AAAA resolutions and a hitlist-style
  /// sample of known-active v6 addresses.
  std::vector<netsim::IpAddress> ipv6_hitlist() const;

  /// All domain names of one input list (stored members followed by the
  /// synthetic non-QUIC bulk), ready for the DNS scanner.
  std::vector<std::string> list_corpus(const std::string& list_name) const;

  /// The server host of a population address, built now if traffic
  /// has not reached it yet; nullptr for any other address. A host is
  /// a pure function of the snapshot, its address and the overlays
  /// applied to this world, so when it is built changes no output
  /// byte. AS attribution needs no server: read the profile via
  /// population().host_by_address instead.
  ServerHost* host_for(const netsim::IpAddress& addr);

  /// Server hosts built so far: the population hosts this world's
  /// traffic (or host_for) has touched.
  size_t hosts_built() const { return hosts_.size(); }

  /// Overlays `profile` onto every population host's link (both
  /// directions of its traffic pass the impairment pipeline) and, when
  /// the profile asks for it, switches the hosts to split handshake
  /// flights. Hosts already built get the overlay now, the rest when
  /// they are built; either way the result is the same. A clean
  /// profile is an exact no-op, so `--impair clean` is byte-identical
  /// to no flag.
  void apply_impairment(const netsim::ImpairmentProfile& profile);

  /// Overlays `profile` onto every population host as a deterministic
  /// per-host AdversaryPlan (stateless hash of the population seed and
  /// the host address -- see internet/adversary.h), now for hosts
  /// already built and at build time for the rest. The `compliant`
  /// profile is an exact no-op, so `--adversary compliant` is
  /// byte-identical to no flag.
  void apply_adversary(const AdversaryProfile& profile);

 private:
  /// Applies the stored impairment overlay to one host.
  void impair(ServerHost& host);

  netsim::EventLoop& loop_;
  std::shared_ptr<const Snapshot> snapshot_;
  netsim::Network network_;
  /// Parent of every host's stream. Rng::fork never advances it, so a
  /// host's stream does not depend on build order.
  crypto::Rng host_rng_;
  std::unordered_map<netsim::IpAddress, std::unique_ptr<ServerHost>,
                     netsim::IpAddressHash>
      hosts_;
  std::optional<netsim::ImpairmentProfile> impairment_;
  std::optional<AdversaryModel> adversary_;
};

}  // namespace internet
