#include "internet/internet.h"

#include <stdexcept>

namespace internet {

namespace {

/// Writes the domain's HTTPS ServiceMode record over `svcb`. Its hints
/// are the first and the last address of each family, so a stale record
/// shows up in them (the paper's sub-80 % HTTPS-RR scan success); its
/// ALPN set is the first v4 host's Alt-Svc set, or h3-29.
void https_record(const DomainInfo& domain,
                  const std::vector<HostProfile>& hosts,
                  dns::SvcbData& svcb) {
  auto hints = [&](const std::vector<uint32_t>& ids,
                   std::vector<netsim::IpAddress>& out) {
    out.clear();
    if (ids.empty()) return;
    out.push_back(hosts[ids[0]].address);
    if (ids.size() > 1 && ids.back() != ids[0])
      out.push_back(hosts[ids.back()].address);
  };
  svcb.priority = 1;
  svcb.target = ".";
  svcb.port.reset();
  hints(domain.v4_hosts, svcb.ipv4_hints);
  hints(domain.v6_hosts, svcb.ipv6_hints);
  if (!domain.v4_hosts.empty() &&
      !hosts[domain.v4_hosts[0]].alt_svc_alpn.empty())
    svcb.alpn = hosts[domain.v4_hosts[0]].alt_svc_alpn;
  else if (!domain.v4_hosts.empty() || !domain.v6_hosts.empty())
    svcb.alpn.assign(1, "h3-29");
  else
    svcb.alpn.clear();
}

}  // namespace

Snapshot::Snapshot(const PopulationParams& params, int week)
    : params_(params), population_(params, week) {}

dns::RCode Snapshot::answer(const std::string& name, dns::RRType type,
                            dns::RecordList& answers) const {
  const DomainInfo* domain = population_.domain_by_name(name);
  if (!domain) return dns::RCode::kNxDomain;
  const bool https = domain->https_rr_since_week > 0 &&
                     domain->https_rr_since_week <= population_.week();
  if (domain->v4_hosts.empty() && domain->v6_hosts.empty() && !https)
    return dns::RCode::kNxDomain;
  const auto& hosts = population_.hosts();
  // Records in host-list order, owned by the (normalized) domain name;
  // any other type is NODATA. Each is written over a record the list
  // kept, so its name and data reuse that record's storage.
  auto next = [&]() -> dns::RData& {
    dns::ResourceRecord& rr = answers.emplace_back();
    rr.name = name;
    rr.type = type;
    rr.ttl = 300;
    return rr.data;
  };
  if (type == dns::RRType::kA) {
    for (uint32_t h : domain->v4_hosts)
      dns::reuse<dns::ARecord>(next()).address = hosts[h].address;
  } else if (type == dns::RRType::kAaaa) {
    for (uint32_t h : domain->v6_hosts)
      dns::reuse<dns::AaaaRecord>(next()).address = hosts[h].address;
  } else if (type == dns::RRType::kHttps && https) {
    https_record(*domain, hosts, dns::reuse<dns::SvcbData>(next()));
  }
  return dns::RCode::kNoError;
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
