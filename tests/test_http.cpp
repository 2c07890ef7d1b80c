// HTTP module tests: header semantics, HTTP/1.1 codec, the RFC 7838
// Alt-Svc grammar (the paper's QUIC-discovery signal on the TCP path)
// and the ALPN token registry.
#include <gtest/gtest.h>

#include "http/alpn.h"
#include "http/alt_svc.h"
#include "http/h3.h"
#include "http/message.h"

namespace {

using namespace http;

TEST(Headers, CaseInsensitiveLookupPreservesCasing) {
  Headers h;
  h.add("Server", "gvs 1.0");
  EXPECT_EQ(h.get("server"), "gvs 1.0");
  EXPECT_EQ(h.get("SERVER"), "gvs 1.0");
  EXPECT_EQ(h.entries()[0].first, "Server");  // original casing kept
}

TEST(Headers, SetReplacesFirstMatch) {
  Headers h;
  h.add("alt-svc", "old");
  h.set("Alt-Svc", "new");
  EXPECT_EQ(h.get("alt-svc"), "new");
  EXPECT_EQ(h.size(), 1u);
}

TEST(Message, RequestRoundTrip) {
  auto req = head_request("www.example.com");
  auto text = req.serialize();
  auto parsed = Request::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->method, "HEAD");
  EXPECT_EQ(parsed->target, "/");
  EXPECT_EQ(parsed->headers.get("host"), "www.example.com");
}

TEST(Message, ResponseRoundTrip) {
  Response resp;
  resp.status = 200;
  resp.reason = "OK";
  resp.headers.add("Server", "proxygen-bolt");
  resp.headers.add("Alt-Svc", "h3-29=\":443\"; ma=3600");
  resp.body = "hello";
  auto parsed = Response::parse(resp.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, 200);
  EXPECT_EQ(parsed->headers.get("server"), "proxygen-bolt");
  EXPECT_EQ(parsed->body, "hello");
}

TEST(Message, ParseRejectsGarbage) {
  EXPECT_FALSE(Request::parse("not an http request").has_value());
  EXPECT_FALSE(Response::parse("HTTP/1.1 abc OK\r\n\r\n").has_value());
}

TEST(Message, HeaderWhitespaceTrimmed) {
  auto parsed = Response::parse("HTTP/1.1 200 OK\r\nServer:   nginx  \r\n\r\n");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->headers.get("server"), "nginx");
}

TEST(AltSvc, SingleEntry) {
  auto entries = parse_alt_svc("h3-29=\":443\"; ma=86400");
  ASSERT_TRUE(entries.has_value());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].alpn, "h3-29");
  EXPECT_EQ((*entries)[0].host, "");
  EXPECT_EQ((*entries)[0].port, 443);
  EXPECT_EQ((*entries)[0].max_age, 86400u);
}

TEST(AltSvc, MultipleEntriesWithHost) {
  auto entries = parse_alt_svc(
      "h3=\":443\", h3-29=\"alt.example.com:8443\"; ma=60, quic=\":443\"");
  ASSERT_TRUE(entries.has_value());
  ASSERT_EQ(entries->size(), 3u);
  EXPECT_EQ((*entries)[1].host, "alt.example.com");
  EXPECT_EQ((*entries)[1].port, 8443);
  EXPECT_EQ((*entries)[2].alpn, "quic");
}

TEST(AltSvc, ClearValue) {
  auto entries = parse_alt_svc("clear");
  ASSERT_TRUE(entries.has_value());
  EXPECT_TRUE(entries->empty());
}

TEST(AltSvc, PercentEncodedAlpn) {
  auto entries = parse_alt_svc("h3%2D29=\":443\"");
  ASSERT_TRUE(entries.has_value());
  EXPECT_EQ((*entries)[0].alpn, "h3-29");
}

TEST(AltSvc, RejectsMalformed) {
  EXPECT_FALSE(parse_alt_svc("h3-29").has_value());          // no authority
  EXPECT_FALSE(parse_alt_svc("h3-29=\":99999\"").has_value());  // bad port
  EXPECT_FALSE(parse_alt_svc("h3-29=\"443\"").has_value());     // no colon
  EXPECT_FALSE(parse_alt_svc("=\":443\"").has_value());         // no alpn
  EXPECT_FALSE(parse_alt_svc("h3=\":443").has_value());  // unterminated quote
}

TEST(AltSvc, FormatParseIdentity) {
  std::vector<AltSvcEntry> entries{
      {"h3", "", 443, 86400},
      {"h3-29", "alt.example", 8443, std::nullopt},
  };
  auto text = format_alt_svc(entries);
  auto parsed = parse_alt_svc(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, entries);
}

TEST(Alpn, TokenForVersion) {
  EXPECT_EQ(alpn_for_version(quic::kVersion1), "h3");
  EXPECT_EQ(alpn_for_version(quic::kDraft29), "h3-29");
  EXPECT_EQ(alpn_for_version(quic::kDraft27), "h3-27");
  EXPECT_EQ(alpn_for_version(quic::kQ050), "h3-Q050");
  EXPECT_EQ(alpn_for_version(quic::kMvfst1), std::nullopt);
}

TEST(Alpn, VersionForToken) {
  EXPECT_EQ(version_for_alpn("h3"), quic::kVersion1);
  EXPECT_EQ(version_for_alpn("h3-29"), quic::kDraft29);
  EXPECT_EQ(version_for_alpn("h3-Q050"), quic::kQ050);
  EXPECT_EQ(version_for_alpn("http/1.1"), std::nullopt);
  EXPECT_EQ(version_for_alpn("h2"), std::nullopt);
}

TEST(Alpn, QuicImplication) {
  EXPECT_TRUE(alpn_implies_quic("h3"));
  EXPECT_TRUE(alpn_implies_quic("h3-29"));
  EXPECT_TRUE(alpn_implies_quic("h3-Q043"));
  EXPECT_TRUE(alpn_implies_quic("quic"));
  EXPECT_FALSE(alpn_implies_quic("h2"));
  EXPECT_FALSE(alpn_implies_quic("http/1.1"));
}

TEST(Alpn, SetNameMatchesPaperFormat) {
  EXPECT_EQ(alpn_set_name({"h3-29", "h3-27", "h3-28"}), "h3-27,h3-28,h3-29");
  EXPECT_EQ(alpn_set_name({"quic", "h3-Q050", "h3-25", "h3-Q043", "h3-27",
                           "h3-Q046"}),
            "h3-25,h3-27,h3-Q043,h3-Q046,h3-Q050,quic");
  EXPECT_EQ(alpn_set_name({"quic"}), "quic");
}

TEST(H3, FrameRoundTrip) {
  std::vector<h3::Frame> frames{
      {h3::kFrameSettings, {0x01, 0x40, 0x64}},
      {h3::kFrameHeaders, {1, 2, 3, 4, 5}},
      {h3::kFrameData, std::vector<uint8_t>(300, 0xab)},
  };
  auto decoded = h3::decode_frames(h3::encode_frames(frames));
  EXPECT_EQ(decoded, frames);
}

TEST(H3, TruncatedFrameThrows) {
  auto bytes = h3::encode_frames({{h3::kFrameData, {1, 2, 3}}});
  bytes.pop_back();
  EXPECT_THROW(h3::decode_frames(bytes), wire::DecodeError);
}

TEST(H3, RequestRoundTrip) {
  h3::Request request;
  request.method = "HEAD";
  request.authority = "www.example.com";
  request.path = "/index.html";
  request.headers.add("user-agent", "qscanner-repro/1.0");
  auto decoded = h3::decode_request(h3::encode_request(request));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, request);
}

TEST(H3, ResponseRoundTripWithBody) {
  h3::Response response;
  response.status = 200;
  response.headers.add("server", "proxygen-bolt");
  response.headers.add("alt-svc", "h3-29=\":443\"");
  response.body = "hello h3";
  auto decoded = h3::decode_response(h3::encode_response(response));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->status, 200);
  EXPECT_EQ(decoded->headers.get("server"), "proxygen-bolt");
  EXPECT_EQ(decoded->body, "hello h3");
}

TEST(H3, DecodeRejectsGarbage) {
  std::vector<uint8_t> junk{0x01, 0x40};  // truncated length
  EXPECT_FALSE(h3::decode_response(junk).has_value());
  EXPECT_FALSE(h3::decode_request(std::vector<uint8_t>{}).has_value());
}

TEST(H3, PseudoHeadersNeverLeakIntoFields) {
  h3::Request request;
  request.method = "GET";
  request.authority = "example.com";
  auto decoded = h3::decode_request(h3::encode_request(request));
  ASSERT_TRUE(decoded.has_value());
  for (const auto& [name, value] : decoded->headers.entries())
    EXPECT_NE(name[0], ':') << name;
}

}  // namespace
