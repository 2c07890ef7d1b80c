#include "analysis/stats.h"

#include <algorithm>

#include "tls/types.h"

namespace analysis {

void AsDistribution::add(const netsim::IpAddress& addr, size_t weight) {
  add_asn(registry_->asn_for(addr), weight);
}

void AsDistribution::add_asn(uint32_t asn, size_t weight) {
  counts_[asn] += weight;
  total_ += weight;
}

std::vector<AsDistribution::Entry> AsDistribution::ranked() const {
  std::vector<Entry> out;
  out.reserve(counts_.size());
  for (const auto& [asn, count] : counts_)
    out.push_back({asn, registry_->name(asn), count});
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.asn < b.asn;
  });
  return out;
}

std::vector<double> AsDistribution::rank_cdf() const {
  auto entries = ranked();
  std::vector<double> cdf;
  cdf.reserve(entries.size());
  double cumulative = 0;
  for (const auto& entry : entries) {
    cumulative += static_cast<double>(entry.count);
    cdf.push_back(total_ ? cumulative / static_cast<double>(total_) : 0.0);
  }
  return cdf;
}

double AsDistribution::top_share(size_t n) const {
  auto cdf = rank_cdf();
  if (cdf.empty()) return 0.0;
  return cdf[std::min(n, cdf.size()) - 1];
}

size_t AsDistribution::ases_to_cover(double share) const {
  auto cdf = rank_cdf();
  for (size_t i = 0; i < cdf.size(); ++i)
    if (cdf[i] >= share) return i + 1;
  return cdf.size();
}

void SetCounter::add(const std::string& key, size_t weight) {
  counts_[key] += weight;
  total_ += weight;
}

size_t SetCounter::count(const std::string& key) const {
  auto it = counts_.find(key);
  return it == counts_.end() ? 0 : it->second;
}

std::vector<SetCounter::Entry> SetCounter::ranked() const {
  std::vector<Entry> out;
  out.reserve(counts_.size());
  for (const auto& [key, count] : counts_) out.push_back({key, count});
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.key < b.key;
  });
  return out;
}

std::vector<SetCounter::Entry> SetCounter::ranked_with_other(
    double min_share) const {
  std::vector<Entry> out;
  size_t other = 0;
  for (const auto& entry : ranked()) {
    double percentage = total_ ? static_cast<double>(entry.count) /
                                     static_cast<double>(total_)
                               : 0.0;
    if (percentage >= min_share)
      out.push_back(entry);
    else
      other += entry.count;
  }
  if (other > 0) out.push_back({"Other", other});
  return out;
}

std::vector<uint16_t> comparable_extensions(const tls::TlsDetails& details) {
  std::vector<uint16_t> out;
  for (uint16_t type : details.server_extensions) {
    if (type == static_cast<uint16_t>(
                    tls::ExtensionType::kQuicTransportParameters) ||
        type == static_cast<uint16_t>(
                    tls::ExtensionType::kQuicTransportParametersDraft))
      continue;
    out.push_back(type);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void TlsComparison::add(const tls::TlsDetails& quic_details,
                        const tls::TlsDetails& tcp_details) {
  ++pairs_;
  bool cert_match = false;
  if (!quic_details.certificate_chain.empty() &&
      !tcp_details.certificate_chain.empty()) {
    cert_match = quic_details.certificate_chain[0].fingerprint() ==
                 tcp_details.certificate_chain[0].fingerprint();
  }
  if (cert_match) ++same_cert_;
  if (quic_details.negotiated_version == tcp_details.negotiated_version)
    ++same_version_;
  if (tcp_details.negotiated_version == tls::kVersion13) {
    ++tls13_pairs_;
    if (quic_details.key_exchange_group == tcp_details.key_exchange_group)
      ++same_group_;
    if (quic_details.cipher_suite == tcp_details.cipher_suite) ++same_cipher_;
    if (comparable_extensions(quic_details) ==
        comparable_extensions(tcp_details))
      ++same_extensions_;
  }
}

SourceOverlap compute_overlap(
    const std::map<std::string, std::set<netsim::IpAddress>>& sources) {
  SourceOverlap overlap;
  if (sources.empty()) return overlap;
  // Common to all sources.
  auto it = sources.begin();
  std::set<netsim::IpAddress> common = it->second;
  for (++it; it != sources.end(); ++it) {
    std::set<netsim::IpAddress> next;
    std::set_intersection(common.begin(), common.end(), it->second.begin(),
                          it->second.end(),
                          std::inserter(next, next.begin()));
    common = std::move(next);
  }
  overlap.common_all = common.size();
  // Unique to each source.
  for (const auto& [name, addrs] : sources) {
    size_t unique = 0;
    for (const auto& addr : addrs) {
      bool in_other = false;
      for (const auto& [other_name, other_addrs] : sources) {
        if (other_name == name) continue;
        if (other_addrs.contains(addr)) {
          in_other = true;
          break;
        }
      }
      if (!in_other) ++unique;
    }
    overlap.unique[name] = unique;
  }
  return overlap;
}

}  // namespace analysis
