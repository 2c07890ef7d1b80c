// Authoritative zone store and a recursive stub resolver, plus a
// MassDNS-style bulk resolver. The paper resolved ~211M domains weekly
// (Alexa/Majestic/Umbrella top lists + CZDS zones) for A, AAAA, SVCB and
// HTTPS records; this module performs the same pipeline against the
// synthetic internet's zone data, over real wire-format messages.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dns/wire.h"

namespace dns {

/// Flat authoritative store for every zone in the simulation. It is
/// immutable once built: one Snapshot shares it across every worker
/// thread, so serving keeps all scratch state with the caller.
class ZoneStore {
 public:
  void add(ResourceRecord rr);

  /// Exact-match lookup (no wildcard support; the simulation enumerates
  /// names explicitly). The span is valid until the next add().
  std::span<const ResourceRecord> lookup(std::string_view name,
                                         RRType type) const;

  size_t record_count() const { return total_records_; }

  /// Serves one wire-format query (the simulated authoritative server).
  std::vector<uint8_t> serve(std::span<const uint8_t> query) const;
  /// As above, decoding into `scratch` and appending the response to
  /// `out`, both owned by the caller and reused across queries.
  void serve(std::span<const uint8_t> query, Message& scratch,
             wire::Writer& out) const;

 private:
  /// Every record of one owner name, grouped by type (insertion order
  /// within a type), so each type's records form one contiguous run.
  using Slots = std::vector<ResourceRecord>;
  /// Not noexcept on purpose: libstdc++ then caches each node's hash,
  /// so a miss compares stored hashes instead of rehashing the chain.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };
  const Slots* find(std::string_view normalized) const;

  /// Keyed by normalized name; a name is present exactly when it has a
  /// record. Nothing iterates it, so hash order never reaches an output.
  std::unordered_map<std::string, Slots, NameHash, std::equal_to<>> index_;
  size_t total_records_ = 0;
};

struct ResolveResult {
  RCode rcode = RCode::kNoError;
  std::vector<ResourceRecord> answers;  // CNAME chain included

  /// Typed record accessors over the answer section.
  std::vector<netsim::IpAddress> addresses() const;
  std::vector<SvcbData> svcb() const;
};

/// Stub resolver: encodes a query, lets the ZoneStore serve it, decodes
/// the response, and follows CNAMEs (depth-limited) like the paper's
/// local Unbound instance.
class Resolver {
 public:
  explicit Resolver(const ZoneStore& zones) : zones_(zones) {}

  ResolveResult resolve(std::string_view name, RRType type);

  uint64_t queries_sent() const { return queries_sent_; }

 private:
  const ZoneStore& zones_;
  uint64_t queries_sent_ = 0;
  uint16_t next_id_ = 1;
  // Wire scratch for both ends of every query, cleared rather than
  // freed between queries: the query and response messages, their
  // encodings, and the server's decode of the query.
  Message query_;
  Message response_;
  Message server_scratch_;
  wire::Writer query_wire_;
  wire::Writer response_wire_;
};

/// Bulk resolution result for one input domain.
struct BulkRecord {
  std::string domain;
  std::vector<netsim::IpAddress> a;
  std::vector<netsim::IpAddress> aaaa;
  std::vector<SvcbData> https;
  bool has_https_rr() const { return !https.empty(); }
};

/// MassDNS analogue: resolves A, AAAA and HTTPS for a list of domains.
class BulkResolver {
 public:
  explicit BulkResolver(const ZoneStore& zones) : resolver_(zones) {}

  /// Resolves A, AAAA and HTTPS for one domain.
  BulkRecord resolve_one(std::string_view domain);

  uint64_t queries_sent() const { return resolver_.queries_sent(); }

 private:
  Resolver resolver_;
};

}  // namespace dns
