#include "dns/resolver.h"

namespace dns {

void Zone::serve(std::span<const uint8_t> query, Message& scratch,
                 wire::Writer& out) const {
  // The decoded request becomes the response in place: same id and
  // question section, every other header field and section reset.
  Message& response = scratch;
  decode_message(query, response);
  response.is_response = true;
  response.recursion_desired = true;
  response.recursion_available = true;
  response.answers.clear();
  response.authority.clear();
  response.additional.clear();
  // Decoded names are already normalized.
  response.rcode = response.questions.size() == 1
                       ? answer(response.questions[0].name,
                                response.questions[0].type, response.answers)
                       : RCode::kFormErr;
  encode_message(response, out);
}

std::vector<uint8_t> Zone::serve(std::span<const uint8_t> query) const {
  Message scratch;
  wire::Writer out;
  serve(query, scratch, out);
  return out.take();
}

std::vector<netsim::IpAddress> ResolveResult::addresses() const {
  std::vector<netsim::IpAddress> out;
  for (const auto& rr : answers) {
    if (const auto* a = std::get_if<ARecord>(&rr.data))
      out.push_back(a->address);
    else if (const auto* aaaa = std::get_if<AaaaRecord>(&rr.data))
      out.push_back(aaaa->address);
  }
  return out;
}

std::vector<SvcbData> ResolveResult::svcb() const {
  std::vector<SvcbData> out;
  for (const auto& rr : answers)
    if (const auto* s = std::get_if<SvcbData>(&rr.data)) out.push_back(*s);
  return out;
}

ResolveResult Resolver::resolve(std::string_view name, RRType type) {
  ResolveResult result;
  query_.questions.resize(1);
  Question& question = query_.questions[0];
  question.type = type;
  std::string& current = question.name;
  if (is_normalized(name))
    current.assign(name);
  else
    current = normalize_name(name);
  // Unbound-style CNAME chasing -- plus SVCB/HTTPS AliasMode chasing
  // (draft-ietf-dnsop-svcb-https section 2.4.2: priority 0 redirects
  // the whole lookup to the alias target). Both are depth-bounded.
  for (int depth = 0; depth < 8; ++depth) {
    query_.id = next_id_++;
    ++queries_sent_;
    query_wire_.clear();
    encode_message(query_, query_wire_);
    response_wire_.clear();
    zones_.serve(query_wire_.span(), server_scratch_, response_wire_);
    decode_message(response_wire_.span(), response_);
    result.rcode = response_.rcode;
    if (response_.rcode != RCode::kNoError) return result;
    bool followed = false;
    // Targets come off the wire already normalized.
    for (auto& rr : response_.answers) {
      if (rr.type == RRType::kCname && type != RRType::kCname) {
        current = std::get<CnameRecord>(rr.data).target;
        followed = true;
      } else if ((rr.type == RRType::kSvcb || rr.type == RRType::kHttps)) {
        const auto& svcb = std::get<SvcbData>(rr.data);
        if (svcb.alias_mode() && svcb.target != ".") {
          current = svcb.target;
          followed = true;
          // The AliasMode record itself is not a usable endpoint; keep
          // it out of the answer set the caller consumes.
          continue;
        }
      }
      result.answers.push_back(std::move(rr));
    }
    if (!followed) return result;
  }
  result.rcode = RCode::kServFail;  // alias/CNAME chain too deep
  return result;
}

BulkRecord BulkResolver::resolve_one(std::string_view domain) {
  BulkRecord record;
  record.domain = normalize_name(domain);
  record.a = resolver_.resolve(record.domain, RRType::kA).addresses();
  record.aaaa = resolver_.resolve(record.domain, RRType::kAaaa).addresses();
  record.https = resolver_.resolve(record.domain, RRType::kHttps).svcb();
  return record;
}

}  // namespace dns
