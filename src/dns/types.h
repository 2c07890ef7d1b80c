// DNS data model: resource records including the (2021-draft) SVCB and
// HTTPS types with their SvcParams (draft-ietf-dnsop-svcb-https-05).
// The paper's lightweight discovery method resolves HTTPS RRs to learn
// ALPN sets and ipv4/ipv6 address hints before any transport handshake.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
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

/// The alternative `T` of `data`: the one it already holds, with its
/// strings' and vectors' storage (and its old values), or a fresh one.
template <typename T>
T& reuse(RData& data) {
  if (auto* held = std::get_if<T>(&data)) return *held;
  return data.emplace<T>();
}

/// The records of one message section. Unlike a std::vector it keeps
/// the records it drops: clear() and a shrinking resize() only move its
/// end, and emplace_back() hands a kept record out again, so decoding or
/// answering query after query reuses each record's name and data
/// storage instead of allocating it anew.
class RecordList {
 public:
  RecordList() = default;
  RecordList& operator=(const std::vector<ResourceRecord>& records) {
    clear();
    for (const auto& rr : records) push_back(rr);
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  ResourceRecord& operator[](size_t i) { return records_[i]; }
  const ResourceRecord& operator[](size_t i) const { return records_[i]; }
  ResourceRecord* begin() { return records_.data(); }
  ResourceRecord* end() { return records_.data() + size_; }
  const ResourceRecord* begin() const { return records_.data(); }
  const ResourceRecord* end() const { return records_.data() + size_; }

  /// Appends a record and returns it. A kept record comes back as it
  /// was left, so the caller sets every field.
  ResourceRecord& emplace_back() {
    if (size_ == records_.size()) records_.emplace_back();
    return records_[size_++];
  }
  /// As std::vector's, `rr` may be one of the list's own records.
  void push_back(const ResourceRecord& rr) { append(rr); }
  void push_back(ResourceRecord&& rr) { append(std::move(rr)); }
  /// Shrinking keeps the dropped records; growing appends empty ones.
  void resize(size_t n) {
    size_ = std::min(size_, n);
    while (size_ < n) emplace_back() = ResourceRecord{};
  }
  void clear() { size_ = 0; }

  bool operator==(const RecordList& other) const {
    return std::equal(begin(), end(), other.begin(), other.end());
  }

 private:
  template <typename Record>
  void append(Record&& rr) {
    if (size_ == records_.size())
      records_.push_back(std::forward<Record>(rr));
    else
      records_[size_] = std::forward<Record>(rr);
    ++size_;
  }

  std::vector<ResourceRecord> records_;  // [0, size_) live, then kept
  size_t size_ = 0;
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
