// DNS tests: wire codec (names, RRs incl. SVCB/HTTPS SvcParams),
// authoritative serving, CNAME chasing and bulk resolution.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "dns/resolver.h"
#include "dns/wire.h"

namespace {

using namespace dns;
using netsim::IpAddress;

TEST(Name, EncodeDecodeRoundTrip) {
  for (const char* name :
       {"example.com", "www.example.com", "a.b.c.d.e.f", "xn--bcher-kva.tld"}) {
    wire::Writer w;
    encode_name(w, name);
    wire::Reader r(w.span());
    EXPECT_EQ(decode_name(r, w.span()), name);
    EXPECT_TRUE(r.done());
  }
}

TEST(Name, NormalizationLowercasesAndStripsDot) {
  EXPECT_EQ(normalize_name("WWW.Example.COM."), "www.example.com");
  wire::Writer w;
  encode_name(w, "WWW.EXAMPLE.COM");
  wire::Reader r(w.span());
  EXPECT_EQ(decode_name(r, w.span()), "www.example.com");
}

TEST(Name, RootEncodesAsSingleZero) {
  wire::Writer w;
  encode_name(w, "");
  EXPECT_EQ(w.size(), 1u);
  EXPECT_EQ(w.span()[0], 0);
}

TEST(Name, CompressionPointerDecoding) {
  // Hand-built: "example.com" at offset 0, then a pointer to it.
  wire::Writer w;
  encode_name(w, "example.com");
  size_t ptr_at = w.size();
  w.u8(0xc0);
  w.u8(0x00);
  wire::Reader r(w.span());
  r.skip(ptr_at);
  EXPECT_EQ(decode_name(r, w.span()), "example.com");
}

TEST(Name, RejectsPointerLoop) {
  wire::Writer w;
  w.u8(0xc0);
  w.u8(0x00);  // points at itself
  wire::Reader r(w.span());
  EXPECT_THROW(decode_name(r, w.span()), wire::DecodeError);
}

TEST(Name, RejectsDotInsideLabel) {
  // One label "a.b": legal octets on the wire, but the dotted text form
  // would read it back as two labels.
  const std::vector<uint8_t> wire_name{3, 'a', '.', 'b', 0};
  wire::Reader r(wire_name);
  EXPECT_THROW(decode_name(r, wire_name), wire::DecodeError);
}

TEST(Wire, QueryMessageRoundTrip) {
  Message msg;
  msg.id = 0x1234;
  msg.recursion_desired = true;
  msg.questions.push_back({"example.com", RRType::kHttps});
  auto decoded = decode_message(encode_message(msg));
  EXPECT_EQ(decoded.id, 0x1234);
  EXPECT_FALSE(decoded.is_response);
  ASSERT_EQ(decoded.questions.size(), 1u);
  EXPECT_EQ(decoded.questions[0].name, "example.com");
  EXPECT_EQ(decoded.questions[0].type, RRType::kHttps);
}

TEST(Wire, ARecordRoundTrip) {
  Message msg;
  msg.is_response = true;
  msg.answers.push_back(
      {"example.com", RRType::kA, 300, ARecord{IpAddress::v4(0x01020304)}});
  auto decoded = decode_message(encode_message(msg));
  ASSERT_EQ(decoded.answers.size(), 1u);
  EXPECT_EQ(std::get<ARecord>(decoded.answers[0].data).address.to_string(),
            "1.2.3.4");
}

TEST(Wire, AaaaRecordRoundTrip) {
  Message msg;
  msg.is_response = true;
  msg.answers.push_back({"example.com", RRType::kAaaa, 300,
                         AaaaRecord{*IpAddress::parse("2606:4700::1")}});
  auto decoded = decode_message(encode_message(msg));
  EXPECT_EQ(std::get<AaaaRecord>(decoded.answers[0].data).address.to_string(),
            "2606:4700::1");
}

TEST(Wire, HttpsRecordWithSvcParams) {
  SvcbData svcb;
  svcb.priority = 1;
  svcb.target = ".";
  svcb.alpn = {"h3", "h3-29", "h2"};
  svcb.port = 443;
  svcb.ipv4_hints = {IpAddress::v4(0x68100001), IpAddress::v4(0x68100002)};
  svcb.ipv6_hints = {*IpAddress::parse("2606:4700::1")};
  Message msg;
  msg.is_response = true;
  msg.answers.push_back({"example.com", RRType::kHttps, 300, svcb});
  auto decoded = decode_message(encode_message(msg));
  const auto& d = std::get<SvcbData>(decoded.answers[0].data);
  EXPECT_EQ(d, svcb);
}

TEST(Wire, AliasModeSvcb) {
  SvcbData svcb;
  svcb.priority = 0;
  svcb.target = "pool.svc.example";
  Message msg;
  msg.is_response = true;
  msg.answers.push_back({"example.com", RRType::kSvcb, 60, svcb});
  auto decoded = decode_message(encode_message(msg));
  const auto& d = std::get<SvcbData>(decoded.answers[0].data);
  EXPECT_TRUE(d.alias_mode());
  EXPECT_EQ(d.target, "pool.svc.example");
}

/// A response carrying `rr` as its only answer, with RDLENGTH rewritten
/// to `rdlength` and `extra` zero bytes appended after the RDATA.
std::vector<uint8_t> with_rdlength(const ResourceRecord& rr, size_t rdlength,
                                   size_t extra = 0) {
  Message msg;
  msg.is_response = true;
  msg.answers.push_back(rr);
  auto bytes = encode_message(msg);
  wire::Writer name;
  encode_name(name, rr.name);
  size_t at = 12 + name.size() + 2 + 2 + 4;  // header, NAME, TYPE, CLASS, TTL
  bytes[at] = static_cast<uint8_t>(rdlength >> 8);
  bytes[at + 1] = static_cast<uint8_t>(rdlength);
  bytes.insert(bytes.end(), extra, 0);
  return bytes;
}

TEST(Wire, ARecordWithShortRdlengthRejected) {
  // RDLENGTH 2 while four address bytes follow: the last two belong to
  // no record, so the answer must not decode as 1.2.3.4.
  ResourceRecord rr{"example.com", RRType::kA, 300,
                    ARecord{IpAddress::v4(0x01020304)}};
  EXPECT_THROW(decode_message(with_rdlength(rr, 2)), wire::DecodeError);
}

TEST(Wire, ARecordWithLongRdlengthRejected) {
  ResourceRecord rr{"example.com", RRType::kA, 300,
                    ARecord{IpAddress::v4(0x01020304)}};
  EXPECT_NO_THROW(decode_message(with_rdlength(rr, 4, 5)));
  EXPECT_THROW(decode_message(with_rdlength(rr, 9, 5)), wire::DecodeError);
}

TEST(Wire, SvcParamOutsideRdataRejected) {
  SvcbData svcb;
  svcb.target = ".";
  svcb.alpn = {"h3"};
  svcb.port = 8443;  // last SvcParam: 6 bytes at the end of the RDATA
  ResourceRecord rr{"example.com", RRType::kHttps, 300, svcb};
  Message msg;
  msg.is_response = true;
  msg.answers.push_back(rr);
  auto bytes = encode_message(msg);
  // priority 2 + root target 1 + alpn 2+2+3 + port 2+2+2.
  EXPECT_EQ(with_rdlength(rr, 16), bytes);
  EXPECT_EQ(std::get<SvcbData>(decode_message(bytes).answers[0].data), svcb);
  EXPECT_THROW(decode_message(with_rdlength(rr, 12)), wire::DecodeError);
}

/// Field-by-field equality; Message itself has no operator==.
void expect_same(const Message& got, const Message& want) {
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.is_response, want.is_response);
  EXPECT_EQ(got.recursion_desired, want.recursion_desired);
  EXPECT_EQ(got.recursion_available, want.recursion_available);
  EXPECT_EQ(got.rcode, want.rcode);
  EXPECT_EQ(got.questions, want.questions);
  EXPECT_EQ(got.answers, want.answers);
  EXPECT_EQ(got.authority, want.authority);
  EXPECT_EQ(got.additional, want.additional);
}

Message rich_response() {
  SvcbData https;
  https.alpn = {"h3", "h3-29"};
  https.port = 443;
  https.ipv4_hints = {IpAddress::v4(0x01010101)};
  https.ipv6_hints = {*IpAddress::parse("2001:db8::1")};
  Message msg;
  msg.id = 0x4242;
  msg.is_response = true;
  msg.recursion_available = true;
  msg.questions.push_back({"example.com", RRType::kHttps});
  msg.answers.push_back({"example.com", RRType::kHttps, 300, https});
  msg.answers.push_back(
      {"example.com", RRType::kA, 300, ARecord{IpAddress::v4(0x01020304)}});
  msg.answers.push_back({"example.com", RRType::kTxt, 60, TxtRecord{"v=1"}});
  msg.authority.push_back(
      {"example.com", RRType::kCname, 60, CnameRecord{"ns.example.com"}});
  msg.additional.push_back({"ns.example.com", RRType::kAaaa, 60,
                            AaaaRecord{*IpAddress::parse("2001:db8::53")}});
  return msg;
}

TEST(Wire, DecodeIntoReusedMessageLeavesNoStaleRecords) {
  Message msg;
  decode_message(encode_message(rich_response()), msg);
  ASSERT_EQ(msg.answers.size(), 3u);

  Message nxdomain;
  nxdomain.id = 7;
  nxdomain.is_response = true;
  nxdomain.rcode = RCode::kNxDomain;
  nxdomain.questions.push_back({"missing.example", RRType::kA});
  auto bytes = encode_message(nxdomain);
  decode_message(bytes, msg);
  EXPECT_TRUE(msg.answers.empty());
  EXPECT_TRUE(msg.authority.empty());
  EXPECT_TRUE(msg.additional.empty());
  expect_same(msg, decode_message(bytes));
}

TEST(Wire, DecodeAfterThrowEqualsFreshDecode) {
  Message msg;
  auto rich = encode_message(rich_response());
  decode_message(rich, msg);
  // Cut inside the second answer: the first is overwritten, then the
  // decode throws with the old second and third answers still held.
  Message head = rich_response();
  head.answers.resize(1);
  head.authority.clear();
  head.additional.clear();
  auto cut = rich;
  cut.resize(encode_message(head).size() + 5);
  EXPECT_THROW(decode_message(cut, msg), wire::DecodeError);

  // A leaner HTTPS answer in the slot that held the rich one: every
  // SvcParam of the old record must be gone.
  SvcbData lean;
  lean.priority = 2;
  lean.target = "svc.example.com";
  Message next;
  next.id = 9;
  next.is_response = true;
  next.answers.push_back({"example.com", RRType::kHttps, 30, lean});
  next.answers.push_back(
      {"example.com", RRType::kAaaa, 30, AaaaRecord{*IpAddress::parse("::1")}});
  auto bytes = encode_message(next);
  decode_message(bytes, msg);
  expect_same(msg, decode_message(bytes));
  EXPECT_EQ(std::get<SvcbData>(msg.answers[0].data), lean);
}

TEST(Wire, EncodeIntoWriterAppendsTheSameBytes) {
  auto msg = rich_response();
  wire::Writer w;
  w.u8(0xee);
  encode_message(msg, w);
  auto whole = encode_message(msg);
  ASSERT_EQ(w.size(), whole.size() + 1);
  EXPECT_TRUE(std::equal(whole.begin(), whole.end(), w.data().begin() + 1));
}

/// A zone kept as a record store: (normalized name, type) -> records in
/// insertion order. A CNAME at a name answers every type the name has
/// no record of, as in a classic zone file.
class MapZone : public Zone {
 public:
  void add(ResourceRecord rr) {
    rr.name = normalize_name(rr.name);
    names_.insert(rr.name);
    records_[{rr.name, rr.type}].push_back(std::move(rr));
  }

  RCode answer(const std::string& name, RRType type,
               std::vector<ResourceRecord>& answers) const override {
    auto it = records_.find({name, type});
    if (it == records_.end()) it = records_.find({name, RRType::kCname});
    if (it != records_.end())
      answers.insert(answers.end(), it->second.begin(), it->second.end());
    return names_.contains(name) ? RCode::kNoError : RCode::kNxDomain;
  }

 private:
  std::map<std::pair<std::string, RRType>, std::vector<ResourceRecord>>
      records_;
  std::set<std::string> names_;
};

MapZone make_store() {
  MapZone store;
  store.add({"example.com", RRType::kA, 300, ARecord{IpAddress::v4(0x01010101)}});
  store.add({"example.com", RRType::kAaaa, 300,
             AaaaRecord{*IpAddress::parse("2001:db8::1")}});
  SvcbData https;
  https.alpn = {"h3", "h3-29"};
  https.ipv4_hints = {IpAddress::v4(0x01010101)};
  store.add({"example.com", RRType::kHttps, 300, https});
  store.add({"www.example.com", RRType::kCname, 300,
             CnameRecord{"example.com"}});
  store.add({"nodata.example.com", RRType::kTxt, 300, TxtRecord{"x"}});
  return store;
}

TEST(ZoneStore, ServeAnswersAndNxdomain) {
  auto store = make_store();
  Resolver resolver(store);
  auto result = resolver.resolve("example.com", RRType::kA);
  EXPECT_EQ(result.rcode, RCode::kNoError);
  ASSERT_EQ(result.addresses().size(), 1u);
  EXPECT_EQ(result.addresses()[0].to_string(), "1.1.1.1");

  auto missing = resolver.resolve("nosuch.example.com", RRType::kA);
  EXPECT_EQ(missing.rcode, RCode::kNxDomain);

  auto nodata = resolver.resolve("nodata.example.com", RRType::kA);
  EXPECT_EQ(nodata.rcode, RCode::kNoError);
  EXPECT_TRUE(nodata.addresses().empty());
}

TEST(Resolver, FollowsCname) {
  auto store = make_store();
  Resolver resolver(store);
  auto result = resolver.resolve("www.example.com", RRType::kA);
  EXPECT_EQ(result.rcode, RCode::kNoError);
  ASSERT_EQ(result.addresses().size(), 1u);
  EXPECT_EQ(result.addresses()[0].to_string(), "1.1.1.1");
  // Answer section contains the chain (CNAME + A).
  EXPECT_EQ(result.answers.size(), 2u);
}

TEST(Resolver, DetectsCnameLoops) {
  MapZone store;
  store.add({"a.example", RRType::kCname, 60, CnameRecord{"b.example"}});
  store.add({"b.example", RRType::kCname, 60, CnameRecord{"a.example"}});
  Resolver resolver(store);
  auto result = resolver.resolve("a.example", RRType::kA);
  EXPECT_EQ(result.rcode, RCode::kServFail);
}

TEST(Resolver, HttpsRecordResolution) {
  auto store = make_store();
  Resolver resolver(store);
  auto result = resolver.resolve("example.com", RRType::kHttps);
  auto svcb = result.svcb();
  ASSERT_EQ(svcb.size(), 1u);
  EXPECT_EQ(svcb[0].alpn, (std::vector<std::string>{"h3", "h3-29"}));
  ASSERT_EQ(svcb[0].ipv4_hints.size(), 1u);
}

TEST(BulkResolver, ResolvesAllTypesPerDomain) {
  auto store = make_store();
  BulkResolver bulk(store);
  std::vector<BulkRecord> records;
  for (const char* domain : {"example.com", "www.example.com",
                             "missing.example"})
    records.push_back(bulk.resolve_one(domain));
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].a.size(), 1u);
  EXPECT_EQ(records[0].aaaa.size(), 1u);
  EXPECT_TRUE(records[0].has_https_rr());
  EXPECT_EQ(records[1].a.size(), 1u);  // via CNAME
  EXPECT_FALSE(records[2].has_https_rr());
  EXPECT_TRUE(records[2].a.empty());
  // 3 queries per domain.
  EXPECT_EQ(bulk.queries_sent(), 3u * 3u + 1u /* CNAME chase for www A */ +
                                     1u /* CNAME chase for www AAAA */ +
                                     1u /* CNAME chase for www HTTPS */);
}

TEST(Resolver, ChasesSvcbAliasMode) {
  MapZone store;
  SvcbData alias;
  alias.priority = 0;  // AliasMode
  alias.target = "svc.pool.example";
  store.add({"www.example", RRType::kHttps, 300, alias});
  SvcbData service;
  service.priority = 1;
  service.alpn = {"h3"};
  service.ipv4_hints = {IpAddress::v4(0x01020304)};
  store.add({"svc.pool.example", RRType::kHttps, 300, service});

  Resolver resolver(store);
  auto result = resolver.resolve("www.example", RRType::kHttps);
  EXPECT_EQ(result.rcode, RCode::kNoError);
  auto svcb = result.svcb();
  ASSERT_EQ(svcb.size(), 1u);
  EXPECT_FALSE(svcb[0].alias_mode());
  EXPECT_EQ(svcb[0].alpn, (std::vector<std::string>{"h3"}));
}

TEST(Resolver, DetectsAliasModeLoops) {
  MapZone store;
  SvcbData a, b;
  a.priority = 0;
  a.target = "b.example";
  b.priority = 0;
  b.target = "a.example";
  store.add({"a.example", RRType::kHttps, 300, a});
  store.add({"b.example", RRType::kHttps, 300, b});
  Resolver resolver(store);
  EXPECT_EQ(resolver.resolve("a.example", RRType::kHttps).rcode,
            RCode::kServFail);
}

}  // namespace
