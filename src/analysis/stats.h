// Analysis primitives shared by the benches and the report renderer:
// per-AS distributions with rank CDFs (Figures 4/8), set counters with
// "Other" folding (Figures 5/6/7/9), and the QUIC vs TLS-over-TCP
// property comparison (Table 5). The DNS join lives with its users:
// the report's in report.cpp, the benches' in bench/common.h.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "internet/as_registry.h"
#include "netsim/address.h"
#include "tls/handshake.h"

namespace analysis {

/// Address counts per AS with the rank-CDF the paper plots.
class AsDistribution {
 public:
  explicit AsDistribution(const internet::AsRegistry& registry)
      : registry_(&registry) {}

  void add(const netsim::IpAddress& addr, size_t weight = 1);
  /// Same, for callers that already attributed the address (the report
  /// pipeline merges pre-attributed per-AS counts across shards).
  void add_asn(uint32_t asn, size_t weight = 1);

  size_t distinct_as() const { return counts_.size(); }
  size_t total() const { return total_; }

  struct Entry {
    uint32_t asn;
    std::string name;
    size_t count;
  };
  /// Sorted descending by count.
  std::vector<Entry> ranked() const;

  /// Cumulative share covered by the top-k ASes, k = 1..distinct.
  std::vector<double> rank_cdf() const;

  /// Share covered by the top `n` ASes.
  double top_share(size_t n) const;

  /// Smallest k with rank_cdf[k-1] >= share.
  size_t ases_to_cover(double share) const;

 private:
  const internet::AsRegistry* registry_;
  std::map<uint32_t, size_t> counts_;
  size_t total_ = 0;
};

/// Counts occurrences of string keys (version sets, ALPN sets, TP
/// configuration keys) and folds rare keys into "Other".
class SetCounter {
 public:
  void add(const std::string& key, size_t weight = 1);

  size_t total() const { return total_; }
  size_t distinct() const { return counts_.size(); }
  size_t count(const std::string& key) const;

  struct Entry {
    std::string key;
    size_t count;
  };
  std::vector<Entry> ranked() const;

  /// Entries with share >= min_share, plus a final "Other" bucket
  /// aggregating the rest (as the paper's figures do at 1 %).
  std::vector<Entry> ranked_with_other(double min_share) const;

 private:
  std::map<std::string, size_t> counts_;
  size_t total_ = 0;
};

/// Table 5: share of targets with identical TLS properties on both
/// stacks. Certificate/version rows are over all compared pairs; the
/// group/cipher/extension rows only over pairs where the TCP handshake
/// also negotiated TLS 1.3 (as the paper conditions them).
class TlsComparison {
 public:
  void add(const tls::TlsDetails& quic_details,
           const tls::TlsDetails& tcp_details);

  size_t pairs() const { return pairs_; }
  double same_certificate() const { return share(same_cert_, pairs_); }
  double same_version() const { return share(same_version_, pairs_); }
  double same_group() const { return share(same_group_, tls13_pairs_); }
  double same_cipher() const { return share(same_cipher_, tls13_pairs_); }
  double same_extensions() const {
    return share(same_extensions_, tls13_pairs_);
  }

 private:
  static double share(size_t n, size_t d) {
    return d ? 100.0 * static_cast<double>(n) / static_cast<double>(d) : 0.0;
  }
  size_t pairs_ = 0, tls13_pairs_ = 0;
  size_t same_cert_ = 0, same_version_ = 0, same_group_ = 0,
         same_cipher_ = 0, same_extensions_ = 0;
};

/// Extension codepoint set normalized for comparison: sorted, deduped,
/// QUIC transport-parameter codepoints removed (the paper excludes the
/// extension QUIC necessarily adds).
std::vector<uint16_t> comparable_extensions(const tls::TlsDetails& details);

/// Overlap arithmetic between discovery sources (section 4).
struct SourceOverlap {
  size_t common_all = 0;
  std::map<std::string, size_t> unique;  // per source name
};
SourceOverlap compute_overlap(
    const std::map<std::string, std::set<netsim::IpAddress>>& sources);

}  // namespace analysis
