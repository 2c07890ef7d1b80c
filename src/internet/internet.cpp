#include "internet/internet.h"

#include <stdexcept>

namespace internet {

Snapshot::Snapshot(const PopulationParams& params, int week)
    : params_(params), population_(params, week) {
  // Authoritative zone build (moved verbatim from the old
  // Internet::build_zones): pure function of the population, so it
  // belongs with the immutable snapshot and runs once per campaign.
  const auto& hosts = population_.hosts();
  for (const auto& domain : population_.domains()) {
    for (uint32_t h : domain.v4_hosts) {
      zones_.add({domain.name, dns::RRType::kA, 300,
                  dns::ARecord{hosts[h].address}});
    }
    for (uint32_t h : domain.v6_hosts) {
      zones_.add({domain.name, dns::RRType::kAaaa, 300,
                  dns::AaaaRecord{hosts[h].address}});
    }
    if (domain.https_rr_since_week > 0 &&
        domain.https_rr_since_week <= population_.week()) {
      dns::SvcbData svcb;
      svcb.priority = 1;
      svcb.target = ".";
      // ALPN set and hints come from the (first) hosting deployment.
      if (!domain.v4_hosts.empty()) {
        const auto& host = hosts[domain.v4_hosts[0]];
        svcb.alpn = host.alt_svc_alpn.empty()
                        ? std::vector<std::string>{"h3-29"}
                        : host.alt_svc_alpn;
        svcb.ipv4_hints.push_back(host.address);
        // The authoritative data includes every record -- including a
        // stale one (the paper's sub-80 % HTTPS-RR scan success).
        if (domain.v4_hosts.size() > 1 &&
            domain.v4_hosts.back() != domain.v4_hosts[0])
          svcb.ipv4_hints.push_back(hosts[domain.v4_hosts.back()].address);
      }
      if (!domain.v6_hosts.empty()) {
        svcb.ipv6_hints.push_back(hosts[domain.v6_hosts[0]].address);
        if (domain.v6_hosts.size() > 1 &&
            domain.v6_hosts.back() != domain.v6_hosts[0])
          svcb.ipv6_hints.push_back(hosts[domain.v6_hosts.back()].address);
        if (svcb.alpn.empty()) svcb.alpn = {"h3-29"};
      }
      zones_.add({domain.name, dns::RRType::kHttps, 300, std::move(svcb)});
    }
  }
}

Internet::Internet(const PopulationParams& params, int week,
                   netsim::EventLoop& loop)
    : Internet(std::make_shared<const Snapshot>(params, week), loop) {}

Internet::Internet(std::shared_ptr<const Snapshot> snapshot,
                   netsim::EventLoop& loop)
    : loop_(loop),
      snapshot_(std::move(snapshot)),
      network_(loop, snapshot_->params().seed ^ 0x105e),
      host_rng_(snapshot_->population().week() * 7919 + 0x9000) {
  network_.set_resolver(
      [this](const netsim::IpAddress& addr) { host_for(addr); });
}

std::vector<netsim::IpAddress> Internet::zmap_candidates_v4() const {
  std::vector<netsim::IpAddress> out;
  for (const auto& host : population().hosts()) {
    if (!host.address.is_v4()) continue;
    out.push_back(host.address);
    // Unresponsive neighbours in the same prefix: high in the host part
    // so they never collide with allocated addresses.
    for (uint32_t d = 1; d <= 2; ++d) {
      uint32_t dud = host.address.v4_value() ^ (0x00400000u * d);
      out.push_back(netsim::IpAddress::v4(dud));
    }
  }
  return out;
}

std::vector<netsim::IpAddress> Internet::ipv6_hitlist() const {
  std::vector<netsim::IpAddress> out;
  for (const auto& host : population().hosts()) {
    if (!host.address.is_v6()) continue;
    out.push_back(host.address);
  }
  // Hitlist noise: plausible but dead addresses.
  for (int i = 0; i < 200; ++i) {
    out.push_back(netsim::IpAddress::v6(0x20010db8deadbeefull,
                                        static_cast<uint64_t>(i)));
  }
  return out;
}

std::vector<std::string> Internet::list_corpus(
    const std::string& list_name) const {
  for (const auto& corpus : population().lists()) {
    if (corpus.name != list_name) continue;
    std::vector<std::string> out;
    out.reserve(corpus.members.size() + corpus.synthetic_count);
    for (uint32_t id : corpus.members)
      out.push_back(population().domains()[id].name);
    for (size_t i = 0; i < corpus.synthetic_count; ++i)
      out.push_back(Population::synthetic_domain(list_name, i));
    return out;
  }
  throw std::invalid_argument("unknown list " + list_name);
}

ServerHost* Internet::host_for(const netsim::IpAddress& addr) {
  if (auto it = hosts_.find(addr); it != hosts_.end()) return it->second.get();
  const HostProfile* profile = population().host_by_address(addr);
  if (!profile) return nullptr;
  // Into the map before the fabric sees it: the registrations below
  // offer the address to the network's resolver, which lands back here.
  ServerHost* host =
      hosts_
          .emplace(addr, std::make_unique<ServerHost>(
                             population(), *profile,
                             host_rng_.fork(addr.to_string())))
          .first->second.get();
  netsim::Endpoint endpoint{addr, kQuicPort};
  if (profile->quic_enabled() && !profile->udp_filtered)
    network_.add_udp_service(endpoint, host);
  network_.add_tcp_service(endpoint, host);
  if (impairment_) impair(*host);
  if (adversary_) host->set_adversary(adversary_->plan_for(addr));
  return host;
}

void Internet::impair(ServerHost& host) {
  const auto& addr = host.profile().address;
  netsim::LinkProperties props = network_.link(addr);
  props.impairment = impairment_->impairment;
  network_.set_link(addr, props);
  host.set_max_crypto_chunk(impairment_->max_crypto_chunk);
}

void Internet::apply_impairment(const netsim::ImpairmentProfile& profile) {
  if (profile.is_clean()) return;  // exact no-op: no link entries created
  // impair() assigns every fabric knob, so the latest profile is the
  // whole overlay.
  impairment_ = profile;
  for (auto& [addr, host] : hosts_) impair(*host);
}

void Internet::apply_adversary(const AdversaryProfile& profile) {
  if (profile.is_compliant()) return;  // exact no-op: behaviors untouched
  adversary_.emplace(profile, snapshot_->params().seed ^ 0xad7e);
  for (auto& [addr, host] : hosts_)
    host->set_adversary(adversary_->plan_for(addr));
}

}  // namespace internet
