// DNS data model: resource records including the (2021-draft) SVCB and
// HTTPS types with their SvcParams (draft-ietf-dnsop-svcb-https-05).
// The paper's lightweight discovery method resolves HTTPS RRs to learn
// ALPN sets and ipv4/ipv6 address hints before any transport handshake.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "netsim/address.h"

namespace dns {

enum class RRType : uint16_t {
  kA = 1,
  kCname = 5,
  kTxt = 16,
  kAaaa = 28,
  kSvcb = 64,
  kHttps = 65,
};

std::string rrtype_name(RRType type);

enum class RCode : uint8_t {
  kNoError = 0,
  kFormErr = 1,
  kServFail = 2,
  kNxDomain = 3,
  kNotImp = 4,
  kRefused = 5,
};

/// SvcParamKeys from the draft (section 14.3.2).
enum class SvcParamKey : uint16_t {
  kMandatory = 0,
  kAlpn = 1,
  kNoDefaultAlpn = 2,
  kPort = 3,
  kIpv4Hint = 4,
  kEch = 5,
  kIpv6Hint = 6,
};

/// ServiceMode (priority > 0) or AliasMode (priority == 0) record data.
struct SvcbData {
  uint16_t priority = 1;
  std::string target;  // "." means the owner name itself
  std::vector<std::string> alpn;
  std::optional<uint16_t> port;
  std::vector<netsim::IpAddress> ipv4_hints;
  std::vector<netsim::IpAddress> ipv6_hints;

  bool alias_mode() const { return priority == 0; }
  bool operator==(const SvcbData&) const = default;
};

struct ARecord {
  netsim::IpAddress address;
  bool operator==(const ARecord&) const = default;
};
struct AaaaRecord {
  netsim::IpAddress address;
  bool operator==(const AaaaRecord&) const = default;
};
struct CnameRecord {
  std::string target;
  bool operator==(const CnameRecord&) const = default;
};
struct TxtRecord {
  std::string text;
  bool operator==(const TxtRecord&) const = default;
};

using RData = std::variant<ARecord, AaaaRecord, CnameRecord, TxtRecord,
                           SvcbData>;

struct ResourceRecord {
  std::string name;  // lowercase FQDN without trailing dot
  RRType type = RRType::kA;
  uint32_t ttl = 300;
  RData data;

  bool operator==(const ResourceRecord&) const = default;
};

/// The DNS case fold (RFC 4343 section 3): ASCII letters only, whatever
/// the C locale says. Every name comparison in this module goes through
/// it, so a name normalized here and one decoded off the wire agree.
constexpr char fold_case(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// Lowercases and strips a trailing dot: DNS names compare
/// case-insensitively.
std::string normalize_name(std::string_view name);

/// True when normalize_name(name) == name, so callers can skip the copy.
bool is_normalized(std::string_view name);

}  // namespace dns
