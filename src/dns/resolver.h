// The authoritative-zone interface and a recursive stub resolver, plus
// a MassDNS-style bulk resolver. The paper resolved ~211M domains weekly
// (Alexa/Majestic/Umbrella top lists + CZDS zones) for A, AAAA, SVCB and
// HTTPS records; this module performs the same pipeline over real
// wire-format messages. The simulation's zone is the week's synthetic
// population itself (internet::Snapshot), which answers each question
// from its domain and host tables.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dns/wire.h"

namespace dns {

/// An authoritative zone, as the simulated DNS server sees it. A zone
/// is immutable: one is shared by every worker thread, so serving
/// keeps all scratch state with the caller.
class Zone {
 public:
  /// Answers one question: appends the answer records for `name` and
  /// `type` -- the name's records of that type, or a CNAME that
  /// redirects it -- and returns kNoError (NODATA when it appends
  /// none); for a name that owns no record it appends nothing and
  /// returns kNxDomain. `name` arrives normalized.
  virtual RCode answer(const std::string& name, RRType type,
                       std::vector<ResourceRecord>& answers) const = 0;

  /// Serves one wire-format query (the simulated authoritative server).
  std::vector<uint8_t> serve(std::span<const uint8_t> query) const;
  /// As above, decoding into `scratch` and appending the response to
  /// `out`, both owned by the caller and reused across queries.
  void serve(std::span<const uint8_t> query, Message& scratch,
             wire::Writer& out) const;

 protected:
  // Callers only borrow a zone; none is owned or deleted through this
  // interface.
  ~Zone() = default;
};

struct ResolveResult {
  RCode rcode = RCode::kNoError;
  std::vector<ResourceRecord> answers;  // CNAME chain included

  /// Typed record accessors over the answer section.
  std::vector<netsim::IpAddress> addresses() const;
  std::vector<SvcbData> svcb() const;
};

/// Stub resolver: encodes a query, lets the Zone serve it, decodes
/// the response, and follows CNAMEs (depth-limited) like the paper's
/// local Unbound instance.
class Resolver {
 public:
  explicit Resolver(const Zone& zones) : zones_(zones) {}

  ResolveResult resolve(std::string_view name, RRType type);

  uint64_t queries_sent() const { return queries_sent_; }

 private:
  const Zone& zones_;
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
  explicit BulkResolver(const Zone& zones) : resolver_(zones) {}

  /// Resolves A, AAAA and HTTPS for one domain.
  BulkRecord resolve_one(std::string_view domain);

  uint64_t queries_sent() const { return resolver_.queries_sent(); }

 private:
  Resolver resolver_;
};

}  // namespace dns
