// Property-style parameterized sweeps across the wire stack: identities
// that must hold for *every* input in a family, not just hand-picked
// examples -- codec round trips, protection inverses, grammar
// idempotence and cross-version invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <vector>

#include "crypto/aes.h"
#include "crypto/rng.h"
#include "dns/resolver.h"
#include "dns/wire.h"
#include "engine/engine.h"
#include "http/alt_svc.h"
#include "http/h3.h"
#include "internet/internet.h"
#include "internet/tp_catalog.h"
#include "netsim/event_loop.h"
#include "quic/frame.h"
#include "quic/packet.h"
#include "quic/transport_params.h"
#include "scanner/qscanner.h"
#include "telemetry/metrics.h"
#include "tls/certificate.h"
#include "tls/record.h"
#include "wire/buffer.h"

namespace {

/// --- Transport parameters: catalog-wide wire round trip -------------

class TpCatalogRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(TpCatalogRoundTrip, EncodeDecodeIdentity) {
  const auto& entry =
      internet::tp_catalog()[static_cast<size_t>(GetParam())];
  auto encoded = quic::encode_transport_parameters(entry.params);
  auto decoded = quic::decode_transport_parameters(encoded);
  EXPECT_EQ(decoded, entry.params);
  // Re-encoding the decoded value is byte-identical (canonical form).
  EXPECT_EQ(quic::encode_transport_parameters(decoded), encoded);
  // The configuration survives the wire and stays unique in the catalog.
  EXPECT_EQ(internet::tp_config_id_for(decoded), entry.id);
}

INSTANTIATE_TEST_SUITE_P(AllCatalogEntries, TpCatalogRoundTrip,
                         ::testing::Range(0, internet::kTpConfigCount));

/// --- Packet protection: protect/unprotect inverse over sizes --------

struct ProtectCase {
  quic::Version version;
  size_t payload_size;
};

// The printed value becomes the ctest name suffix. Without this,
// GoogleTest prints the struct's raw bytes, padding included, so the
// names could differ between two listings of the same binary.
void PrintTo(const ProtectCase& c, std::ostream* os) {
  *os << '{' << quic::version_name(c.version) << ", " << c.payload_size << '}';
}

class ProtectionSweep : public ::testing::TestWithParam<ProtectCase> {};

TEST_P(ProtectionSweep, UnprotectInvertsProtect) {
  auto [version, payload_size] = GetParam();
  crypto::Rng rng(payload_size * 31 + version);
  auto dcid = rng.bytes(8);
  quic::Packet packet;
  packet.type = quic::PacketType::kInitial;
  packet.version = version;
  packet.dcid = dcid;
  packet.scid = rng.bytes(8);
  packet.packet_number = payload_size % 1000;
  packet.payload = rng.bytes(payload_size);
  // Avoid all-zero prefixes decoding as PADDING: content is random and
  // protection is content-agnostic anyway.
  auto protector = quic::PacketProtector::for_initial(version, dcid, false);
  auto wire_bytes = protector.protect(packet);
  size_t offset = 0;
  auto opened = protector.unprotect(wire_bytes, offset);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(offset, wire_bytes.size());
  if (payload_size >= 4) {
    EXPECT_EQ(opened->payload, packet.payload);
  } else {
    // Tiny payloads are padded to 4 bytes for the header-protection
    // sample; the original bytes are a prefix.
    ASSERT_GE(opened->payload.size(), payload_size);
    EXPECT_TRUE(std::equal(packet.payload.begin(), packet.payload.end(),
                           opened->payload.begin()));
  }
  EXPECT_EQ(opened->packet_number, packet.packet_number);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndVersions, ProtectionSweep,
    ::testing::Values(ProtectCase{quic::kVersion1, 0},
                      ProtectCase{quic::kVersion1, 1},
                      ProtectCase{quic::kVersion1, 4},
                      ProtectCase{quic::kVersion1, 17},
                      ProtectCase{quic::kVersion1, 1200},
                      ProtectCase{quic::kDraft29, 64},
                      ProtectCase{quic::kDraft29, 1451},
                      ProtectCase{quic::kDraft27, 333},
                      ProtectCase{quic::kDraft32, 999},
                      ProtectCase{quic::kDraft34, 10}));

/// --- Version negotiation greasing: every 0x?a?a?a?a forces VN -------

class GreasePattern : public ::testing::TestWithParam<uint32_t> {};

TEST_P(GreasePattern, ClassifiedAsForcing) {
  uint32_t prefix = GetParam();
  quic::Version version = 0x0a0a0a0a | prefix;
  EXPECT_TRUE(quic::is_force_negotiation(version));
  EXPECT_FALSE(quic::is_ietf(version));
}

INSTANTIATE_TEST_SUITE_P(HighNibbles, GreasePattern,
                         ::testing::Values(0x00000000u, 0x10203040u,
                                           0xf0f0f0f0u, 0xa0a0a0a0u,
                                           0x50607080u));

/// --- DNS name codec over structured names ---------------------------

class DnsNameSweep : public ::testing::TestWithParam<int> {};

TEST_P(DnsNameSweep, RoundTripRandomisedNames) {
  crypto::Rng rng(static_cast<uint64_t>(GetParam()));
  // Compose 1..5 labels of 1..20 chars from the hostname alphabet.
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789-";
  std::string name;
  int labels = 1 + static_cast<int>(rng.below(5));
  for (int l = 0; l < labels; ++l) {
    if (l) name.push_back('.');
    int len = 1 + static_cast<int>(rng.below(20));
    for (int i = 0; i < len; ++i)
      name.push_back(kAlphabet[rng.below(sizeof kAlphabet - 1)]);
  }
  wire::Writer w;
  dns::encode_name(w, name);
  wire::Reader r(w.span());
  EXPECT_EQ(dns::decode_name(r, w.span()), name);
  EXPECT_TRUE(r.done());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DnsNameSweep, ::testing::Range(0, 25));

/// --- DNS zone index against a reference model ----------------------

class ZoneIndexSweep : public ::testing::TestWithParam<int> {};

/// `name` with random letters upper-cased and, half the time, a
/// trailing dot: the spellings a zone file or a client may use.
std::string respell(crypto::Rng& rng, const std::string& name) {
  std::string out = name;
  for (char& c : out)
    if (c >= 'a' && c <= 'z' && rng.chance(0.4)) c = static_cast<char>(c - 32);
  if (rng.chance(0.5)) out.push_back('.');
  return out;
}

dns::ResourceRecord random_record(crypto::Rng& rng, const std::string& owner,
                                  const std::vector<std::string>& pool) {
  dns::ResourceRecord rr;
  rr.name = owner;
  rr.ttl = static_cast<uint32_t>(rng.range(1, 86400));
  switch (rng.below(5)) {
    case 0:
      rr.type = dns::RRType::kA;
      rr.data = dns::ARecord{
          netsim::IpAddress::v4(static_cast<uint32_t>(rng.next()))};
      break;
    case 1: {
      rr.type = dns::RRType::kAaaa;
      std::array<uint8_t, 16> v6{};
      rng.fill(v6);
      rr.data = dns::AaaaRecord{netsim::IpAddress::v6(v6)};
      break;
    }
    case 2:
      rr.type = dns::RRType::kCname;
      rr.data = dns::CnameRecord{respell(rng, pool[rng.below(pool.size())])};
      break;
    case 3:
      rr.type = dns::RRType::kTxt;
      rr.data = dns::TxtRecord{"v=" + std::to_string(rng.below(1000))};
      break;
    default: {
      rr.type = rng.chance(0.5) ? dns::RRType::kHttps : dns::RRType::kSvcb;
      dns::SvcbData svcb;
      svcb.priority = static_cast<uint16_t>(rng.below(3));
      svcb.target = rng.chance(0.5) ? "." : pool[rng.below(pool.size())];
      static const char* kAlpn[] = {"h3", "h3-29", "h3-Q050", "h2"};
      for (const char* id : kAlpn)
        if (rng.chance(0.5)) svcb.alpn.push_back(id);
      if (rng.chance(0.3)) svcb.port = static_cast<uint16_t>(rng.below(65536));
      for (uint64_t i = rng.below(3); i > 0; --i)
        svcb.ipv4_hints.push_back(
            netsim::IpAddress::v4(static_cast<uint32_t>(rng.next())));
      rr.data = std::move(svcb);
      break;
    }
  }
  return rr;
}

TEST_P(ZoneIndexSweep, ServeMatchesReferenceModel) {
  crypto::Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  // Owners come from the first 20 names; the last 4 and `unknown` are
  // never added (NXDOMAIN). A type an owner lacks is NODATA unless the
  // owner has a CNAME.
  std::vector<std::string> pool;
  for (int i = 0; i < 24; ++i)
    pool.push_back("n" + std::to_string(i) + (i % 3 ? ".example.com" : ".org"));
  const std::vector<std::string> unknown{"absent.example.com", "n1.example",
                                         "example.com"};

  // Reference: (normalized name, type) -> records in insertion order,
  // plus the set of names that exist.
  std::map<std::pair<std::string, dns::RRType>,
           std::vector<dns::ResourceRecord>> reference;
  std::set<std::string> names;
  dns::ZoneStore store;
  for (int i = 0; i < 60; ++i) {
    const std::string& owner = pool[rng.below(pool.size() - 4)];
    auto rr = random_record(rng, respell(rng, owner), pool);
    store.add(rr);
    rr.name = dns::normalize_name(rr.name);
    names.insert(rr.name);
    reference[{rr.name, rr.type}].push_back(rr);
  }

  auto expected_response = [&](const dns::Message& query) {
    dns::Message response;
    response.id = query.id;
    response.is_response = true;
    response.recursion_available = true;
    response.questions = query.questions;
    for (auto& q : response.questions) q.name = dns::normalize_name(q.name);
    if (query.questions.size() != 1) {
      response.rcode = dns::RCode::kFormErr;
      return dns::encode_message(response);
    }
    const auto& q = response.questions[0];
    auto it = reference.find({q.name, q.type});
    if (it == reference.end())
      it = reference.find({q.name, dns::RRType::kCname});
    if (it != reference.end())
      response.answers = it->second;
    else if (!names.contains(q.name))
      response.rcode = dns::RCode::kNxDomain;
    return dns::encode_message(response);
  };

  const dns::RRType types[] = {dns::RRType::kA,    dns::RRType::kCname,
                               dns::RRType::kTxt,  dns::RRType::kAaaa,
                               dns::RRType::kSvcb, dns::RRType::kHttps};
  std::vector<std::string> queried = pool;
  queried.insert(queried.end(), unknown.begin(), unknown.end());
  // One scratch pair for every query, as a Resolver keeps it.
  dns::Message scratch;
  wire::Writer out;
  auto check = [&](const dns::Message& query) {
    auto bytes = dns::encode_message(query);
    auto want = expected_response(query);
    EXPECT_EQ(store.serve(bytes), want);
    out.clear();
    store.serve(bytes, scratch, out);
    EXPECT_EQ(out.data(), want);
  };
  uint16_t id = 1;
  for (const auto& name : queried) {
    for (dns::RRType type : types) {
      dns::Message query;
      query.id = id++;
      query.questions.push_back({respell(rng, name), type});
      check(query);
    }
  }
  dns::Message none;  // 0 questions
  none.id = id++;
  check(none);
  dns::Message two;  // 2 questions
  two.id = id++;
  two.questions.push_back({pool[0], dns::RRType::kA});
  two.questions.push_back({respell(rng, pool[1]), dns::RRType::kHttps});
  check(two);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZoneIndexSweep, ::testing::Range(0, 20));

/// --- Alt-Svc: format-parse identity over generated entry lists ------

class AltSvcSweep : public ::testing::TestWithParam<int> {};

TEST_P(AltSvcSweep, FormatParseIdentity) {
  crypto::Rng rng(static_cast<uint64_t>(GetParam()) * 977);
  static const char* kTokens[] = {"h3",      "h3-29",  "h3-27",
                                  "h3-Q050", "quic",   "h3-34"};
  static const char* kHosts[] = {"", "alt.example.com", "cdn.example"};
  std::vector<http::AltSvcEntry> entries;
  size_t count = 1 + rng.below(4);
  for (size_t i = 0; i < count; ++i) {
    http::AltSvcEntry entry;
    entry.alpn = kTokens[rng.below(6)];
    entry.host = kHosts[rng.below(3)];
    entry.port = static_cast<uint16_t>(1 + rng.below(65535));
    if (rng.chance(0.5)) entry.max_age = rng.below(1u << 30);
    entries.push_back(std::move(entry));
  }
  auto parsed = http::parse_alt_svc(http::format_alt_svc(entries));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, entries);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AltSvcSweep, ::testing::Range(0, 25));

/// --- H3: request/response round trip over generated headers ---------

class H3Sweep : public ::testing::TestWithParam<int> {};

TEST_P(H3Sweep, ResponseRoundTrip) {
  crypto::Rng rng(static_cast<uint64_t>(GetParam()) * 1009);
  http::h3::Response response;
  response.status = 100 + static_cast<int>(rng.below(500));
  size_t headers = rng.below(6);
  for (size_t i = 0; i < headers; ++i)
    response.headers.add("x-field-" + std::to_string(i),
                         std::string(rng.below(40), 'v'));
  auto body = rng.bytes(rng.below(500));
  response.body.assign(body.begin(), body.end());
  auto decoded =
      http::h3::decode_response(http::h3::encode_response(response));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->status, response.status);
  EXPECT_EQ(decoded->headers, response.headers);
  EXPECT_EQ(decoded->body, response.body);
}

INSTANTIATE_TEST_SUITE_P(Seeds, H3Sweep, ::testing::Range(0, 20));

/// --- Certificates: wildcard matching truth table --------------------

struct WildcardCase {
  const char* pattern;
  const char* host;
  bool matches;
};

// The printed value becomes the ctest name suffix. Without this, GoogleTest
// prints the struct's raw bytes — the literals' run-time addresses — so the
// names changed with every discovery under ASLR.
void PrintTo(const WildcardCase& c, std::ostream* os) {
  *os << "{\"" << c.pattern << "\", \"" << c.host << "\", "
      << (c.matches ? "true" : "false") << '}';
}

class WildcardSweep : public ::testing::TestWithParam<WildcardCase> {};

TEST_P(WildcardSweep, MatchesExpectation) {
  auto [pattern, host, matches] = GetParam();
  EXPECT_EQ(tls::wildcard_match(pattern, host), matches)
      << pattern << " vs " << host;
}

INSTANTIATE_TEST_SUITE_P(
    TruthTable, WildcardSweep,
    ::testing::Values(WildcardCase{"example.com", "example.com", true},
                      WildcardCase{"example.com", "www.example.com", false},
                      WildcardCase{"*.example.com", "www.example.com", true},
                      WildcardCase{"*.example.com", "example.com", false},
                      WildcardCase{"*.example.com", "a.b.example.com", false},
                      WildcardCase{"*.example.com", ".example.com", false},
                      WildcardCase{"*.example.com", "xexample.com", false},
                      WildcardCase{"*.co", "x.co", true},
                      WildcardCase{"*", "example.com", false},
                      WildcardCase{"", "", true}));

/// --- Retry: integrity across versions -------------------------------

class RetrySweep : public ::testing::TestWithParam<quic::Version> {};

TEST_P(RetrySweep, RoundTripAndCrossVersionRejection) {
  quic::Version version = GetParam();
  crypto::Rng rng(version);
  quic::RetryPacket retry;
  retry.version = version;
  retry.dcid = rng.bytes(8);
  retry.scid = rng.bytes(8);
  retry.token = rng.bytes(24);
  auto odcid = rng.bytes(8);
  auto bytes = quic::encode_retry(retry, odcid);
  ASSERT_TRUE(quic::decode_retry(bytes, odcid).has_value());
  // Re-tagging under a different version's keys must not validate
  // (except between versions sharing integrity keys, e.g. 33+/v1).
  quic::RetryPacket other = retry;
  other.version = version == quic::kVersion1 ? quic::kDraft29
                                             : quic::kVersion1;
  auto other_bytes = quic::encode_retry(other, odcid);
  // Patch the version field back so only the tag mismatches.
  for (int i = 0; i < 4; ++i)
    other_bytes[1 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(version >> (8 * (3 - i)));
  EXPECT_FALSE(quic::decode_retry(other_bytes, odcid).has_value());
}

INSTANTIATE_TEST_SUITE_P(Versions, RetrySweep,
                         ::testing::Values(quic::kVersion1, quic::kDraft29,
                                           quic::kDraft32, quic::kDraft27,
                                           quic::kDraft28, quic::kDraft34));

/// --- Chunk scheduler: partitions, seeds, steal stress ---------------
///
/// The engine's determinism contract (DESIGN.md "Campaign engine")
/// rests on chunk_ranges being an exact order-stable partition and
/// chunk_seed being a pure function of (seed, index).

TEST(ChunkPartitionSweep, ConcatenationIsExactlyZeroToN) {
  struct Case {
    size_t n;
    size_t chunk;
  };
  for (auto [n, chunk] :
       {Case{0, 1}, Case{0, 64}, Case{1, 1}, Case{1, 7}, Case{5, 7},
        Case{7, 3}, Case{48, 1}, Case{48, 7}, Case{48, 48}, Case{48, 64},
        Case{97, 8}, Case{100, 13}, Case{1000, 64}, Case{2605, 16}}) {
    SCOPED_TRACE("n=" + std::to_string(n) +
                 " chunk=" + std::to_string(chunk));
    auto ranges = engine::chunk_ranges(n, chunk);

    // n == 0 clamps to one empty chunk (the campaign still runs one
    // world); chunk_size > n clamps to a single [0, n) chunk.
    if (n == 0) {
      ASSERT_EQ(ranges.size(), 1u);
      EXPECT_EQ(ranges[0], (engine::ShardRange{0, 0}));
    } else {
      ASSERT_EQ(ranges.size(), (n + chunk - 1) / chunk);
      if (chunk >= n) {
        ASSERT_EQ(ranges.size(), 1u);
        EXPECT_EQ(ranges[0], (engine::ShardRange{0, n}));
      }
    }

    // Contiguous, exhaustive, no overlap: concatenating in chunk order
    // enumerates 0..n-1 exactly once.
    size_t next = 0;
    for (const auto& range : ranges) {
      EXPECT_EQ(range.begin, next);
      EXPECT_LE(range.begin, range.end);
      next = range.end;
    }
    EXPECT_EQ(next, n);

    // Every chunk except the tail spans exactly chunk_size targets.
    for (size_t c = 0; c + 1 < ranges.size(); ++c)
      EXPECT_EQ(ranges[c].size(), chunk);

    // Pure function of (n, chunk_size).
    EXPECT_EQ(engine::chunk_ranges(n, chunk), ranges);
  }
  // chunk_size 0 clamps to 1.
  EXPECT_EQ(engine::chunk_ranges(5, 0), engine::chunk_ranges(5, 1));
}

TEST(ChunkSeedSweep, Chunk0InheritsCampaignSeedOthersDistinct) {
  for (uint64_t seed : {0ull, 1ull, 0x5ca9ull, 0x9e3779b97f4a7c15ull}) {
    // Chunk 0 inherits the campaign seed: a one-chunk dynamic campaign
    // is bit-compatible with the serial path.
    EXPECT_EQ(engine::chunk_seed(seed, 0), seed);
    // Stable and distinct across chunk indices.
    std::vector<uint64_t> seeds;
    for (size_t c = 0; c < 256; ++c) {
      seeds.push_back(engine::chunk_seed(seed, c));
      EXPECT_EQ(engine::chunk_seed(seed, c), seeds.back());
    }
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
  }
}

TEST(DynamicSchedulerStress, StealScheduleNeverChangesMergedOutput) {
  // The TSan-tree stress test: 64 single-target chunks on 8 workers,
  // each chunk burning a pseudorandom (chunk-seed-derived) amount of
  // virtual time, so workers drain the cursor in a different
  // interleaving on every repeat. Zero drift allowed: the merged
  // metrics JSON must be byte-identical across 8 repeats, and the
  // scheduler must hand out every chunk exactly once.
  constexpr size_t kTargets = 64;
  constexpr int kRepeats = 8;
  auto snapshot = std::make_shared<const internet::Snapshot>(
      internet::PopulationParams{.dns_corpus_scale = 0.002}, 18);

  std::string baseline;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    SCOPED_TRACE("repeat=" + std::to_string(repeat));
    engine::CampaignOptions options;
    options.jobs = 8;
    options.seed = 0x57ea1;
    options.chunk_size = 1;  // 64 chunks
    options.snapshot = snapshot;
    engine::Campaign campaign(options);
    ASSERT_EQ(campaign.slot_count(kTargets), kTargets);

    campaign.run(kTargets, [](engine::ShardEnv& env) {
      // Randomized per-chunk virtual-time cost: a chain of timer
      // events whose count and spacing derive from the chunk seed.
      crypto::Rng rng(env.seed);
      uint64_t events = 1 + rng.below(40);
      uint64_t fired = 0;
      for (uint64_t e = 0; e < events; ++e)
        env.loop->schedule_in(rng.below(5000), [&fired] { ++fired; });
      env.loop->run();
      env.metrics->counter("stress.chunks").add(1);
      env.metrics->counter("stress.events").add(fired);
      env.metrics->counter("stress.virtual_end_us").add(env.loop->now_us());
    });

    std::ostringstream json;
    campaign.metrics().write_json(json);
    const auto* chunks = campaign.metrics().find_counter("stress.chunks");
    ASSERT_NE(chunks, nullptr);
    EXPECT_EQ(chunks->value(), kTargets);  // every chunk ran exactly once
    if (repeat == 0) {
      baseline = json.str();
      EXPECT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(json.str(), baseline);
    }
  }
}

/// --- Adversary fabric: merged output is schedule/partition free ------
///
/// The misbehaving-endpoint overlay (DESIGN.md "Adversarial endpoints")
/// keys every per-host plan on (population seed, host address) alone,
/// so the merged campaign output under *every* adversary profile must
/// be a pure function of the option set: byte-identical across
/// --jobs 1/2/4/8 and chunk partitions.

struct AdversarySweepRun {
  std::vector<std::string> rows;
  std::string metrics_json;
};

AdversarySweepRun run_adversary_campaign(
    const std::shared_ptr<const internet::Snapshot>& snapshot,
    const std::vector<scanner::QscanTarget>& targets,
    const std::string& adversary, int jobs, size_t chunk_size) {
  engine::CampaignOptions options;
  options.jobs = jobs;
  options.seed = 0x5ca9;
  options.chunk_size = chunk_size;
  options.snapshot = snapshot;
  options.adversary = adversary;
  engine::Campaign campaign(options);

  const size_t slots = campaign.slot_count(targets.size());
  std::vector<std::vector<scanner::QscanResult>> shard_rows(slots);
  campaign.run(targets.size(), [&](engine::ShardEnv& env) {
    scanner::QscanOptions qopt;
    qopt.seed = env.seed;
    qopt.metrics = env.metrics;
    scanner::QScanner qscanner(env.internet->network(), qopt);
    auto& rows = shard_rows[static_cast<size_t>(env.shard_index)];
    for (size_t i = env.range.begin; i < env.range.end; ++i) {
      if (!qscanner.compatible(targets[i])) continue;
      rows.push_back(qscanner.scan_one(targets[i]));
    }
  });

  AdversarySweepRun run;
  for (const auto& result : engine::concat_shards(std::move(shard_rows))) {
    std::ostringstream row;
    row << result.target.address.to_string() << ','
        << scanner::to_string(result.outcome) << ','
        << quic::to_string(result.report.protocol_error);
    run.rows.push_back(row.str());
  }
  std::ostringstream json;
  campaign.metrics().write_json(json);
  run.metrics_json = json.str();
  return run;
}

TEST(AdversaryPropertySweep, MergedOutputInvariantAcrossJobsAndSchedules) {
  auto snapshot = std::make_shared<const internet::Snapshot>(
      internet::PopulationParams{.dns_corpus_scale = 0.002}, 18);
  std::vector<scanner::QscanTarget> targets;
  {
    netsim::EventLoop loop;
    internet::Internet net(snapshot, loop);
    for (const auto& host : net.population().hosts()) {
      if (!host.address.is_v4()) continue;
      targets.push_back({host.address, std::nullopt,
                         host.advertised_versions});
      if (targets.size() >= 40) break;
    }
  }
  ASSERT_FALSE(targets.empty());

  for (std::string_view profile : internet::adversary_profile_names()) {
    SCOPED_TRACE(std::string(profile));
    auto baseline = run_adversary_campaign(snapshot, targets,
                                           std::string(profile), 1,
                                           targets.size());
    EXPECT_FALSE(baseline.rows.empty());
    for (size_t chunk : {size_t{7}, targets.size() / 4}) {
      for (int jobs : {2, 4, 8}) {
        SCOPED_TRACE("chunk_size=" + std::to_string(chunk) +
                     " jobs=" + std::to_string(jobs));
        auto run = run_adversary_campaign(snapshot, targets,
                                          std::string(profile), jobs, chunk);
        EXPECT_EQ(run.rows, baseline.rows);
        EXPECT_EQ(run.metrics_json, baseline.metrics_json);
      }
    }
  }
}

/// --- Metrics merge: associative, commutative, order-independent -----
///
/// The campaign folds chunk registries in chunk-index order, but the
/// contract says the order is immaterial; hold the algebra to that.

telemetry::Histogram sample_histogram(uint64_t seed, int samples) {
  telemetry::Histogram h({10, 100, 1000});
  crypto::Rng rng(seed);
  for (int i = 0; i < samples; ++i)
    h.observe(rng.below(5000));  // spills into the overflow bucket
  return h;
}

void expect_same_histogram(const telemetry::Histogram& a,
                           const telemetry::Histogram& b) {
  EXPECT_EQ(a.bucket_counts(), b.bucket_counts());
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

TEST(HistogramMergeAlgebra, AssociativeAndCommutative) {
  auto a = sample_histogram(1, 40);
  auto b = sample_histogram(2, 25);
  auto c = sample_histogram(3, 0);  // one empty operand in the mix

  auto ab_c = a;        // (a + b) + c
  ab_c.merge_from(b);
  ab_c.merge_from(c);
  auto bc = b;          // a + (b + c)
  bc.merge_from(c);
  auto a_bc = a;
  a_bc.merge_from(bc);
  auto cba = c;         // (c + b) + a  -- commuted fold
  cba.merge_from(b);
  cba.merge_from(a);

  expect_same_histogram(ab_c, a_bc);
  expect_same_histogram(ab_c, cba);
}

TEST(RegistryMergeAlgebra, FoldOrderDoesNotChangeTheJson) {
  // Three shard-like registries with overlapping and disjoint names,
  // as produced by shards that saw different outcome mixes.
  auto make = [](uint64_t seed, bool with_extra) {
    auto registry = std::make_unique<telemetry::MetricsRegistry>();
    crypto::Rng rng(seed);
    registry->counter("qscan.attempts").add(rng.range(1, 50));
    registry->gauge("loop.depth").set(static_cast<int64_t>(seed));
    auto& h = registry->histogram("rtt", {10, 100, 1000});
    for (int i = 0; i < 20; ++i) h.observe(rng.below(5000));
    if (with_extra) registry->counter("qscan.outcome.timeout").add(seed);
    return registry;
  };
  auto r1 = make(1, true);
  auto r2 = make(2, false);
  auto r3 = make(3, true);

  auto fold = [](std::vector<const telemetry::MetricsRegistry*> order) {
    telemetry::MetricsRegistry merged;
    for (const auto* r : order) merged.merge_from(*r);
    std::ostringstream json;
    merged.write_json(json);
    return json.str();
  };

  auto forward = fold({r1.get(), r2.get(), r3.get()});
  EXPECT_EQ(forward, fold({r3.get(), r1.get(), r2.get()}));
  EXPECT_EQ(forward, fold({r2.get(), r3.get(), r1.get()}));
  EXPECT_NE(forward, fold({r1.get(), r2.get()}));  // merge is not lossy
}

/// --- Hot-path append APIs: byte-identical to return-by-value --------
//
// PR 3 converts the packet path to append-into-caller-buffer APIs with
// reusable scratch; these sweeps pin the contract that every new entry
// point produces exactly the bytes of the old return-by-value one, over
// randomized keys, sizes and buffer-reuse patterns.

class AppendApiSweep : public ::testing::TestWithParam<int> {};

TEST_P(AppendApiSweep, GcmSealOpenAppendMatchesReturnByValue) {
  crypto::Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  auto key = rng.bytes(16);
  crypto::Aes128Gcm gcm(key);
  std::vector<uint8_t> sealed_acc = rng.bytes(rng.below(9));
  for (int round = 0; round < 8; ++round) {
    auto nonce = rng.bytes(12);
    auto aad = rng.bytes(rng.below(40));
    auto plaintext = rng.bytes(rng.below(300));

    auto sealed = gcm.seal(nonce, aad, plaintext);
    const auto prefix = sealed_acc;
    gcm.seal_append(nonce, aad, plaintext, sealed_acc);
    ASSERT_EQ(sealed_acc.size(), prefix.size() + sealed.size());
    EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), sealed_acc.begin()));
    EXPECT_TRUE(
        std::equal(sealed.begin(), sealed.end(),
                   sealed_acc.begin() + static_cast<long>(prefix.size())));

    auto opened = gcm.open(nonce, aad, sealed);
    ASSERT_TRUE(opened.has_value());
    std::vector<uint8_t> opened_acc = rng.bytes(rng.below(5));
    const auto opened_prefix = opened_acc;
    ASSERT_TRUE(gcm.open_append(nonce, aad, sealed, opened_acc));
    ASSERT_EQ(opened_acc.size(), opened_prefix.size() + opened->size());
    EXPECT_TRUE(std::equal(opened->begin(), opened->end(),
                           opened_acc.begin() +
                               static_cast<long>(opened_prefix.size())));

    // A corrupted tag must fail and leave the output buffer untouched.
    auto corrupt = sealed;
    corrupt.back() ^= 0x01;
    auto before = opened_acc;
    EXPECT_FALSE(gcm.open_append(nonce, aad, corrupt, opened_acc));
    EXPECT_EQ(opened_acc, before);
  }
}

TEST_P(AppendApiSweep, ProtectIntoMatchesProtectAndCoalesces) {
  crypto::Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 7);
  auto dcid = rng.bytes(8);
  auto protector =
      quic::PacketProtector::for_initial(quic::kVersion1, dcid, false);

  std::vector<uint8_t> coalesced;
  std::vector<uint8_t> expected;
  quic::Packet reused;  // rx scratch reused across every round
  for (int round = 0; round < 6; ++round) {
    quic::Packet packet;
    packet.type = round % 2 ? quic::PacketType::kHandshake
                            : quic::PacketType::kInitial;
    packet.version = quic::kVersion1;
    packet.dcid = dcid;
    packet.scid = rng.bytes(8);
    packet.packet_number = static_cast<uint64_t>(round);
    packet.payload = rng.bytes(4 + rng.below(600));

    auto alone = protector.protect(packet);
    protector.protect_into(packet, packet.payload, coalesced);
    expected.insert(expected.end(), alone.begin(), alone.end());
    ASSERT_EQ(coalesced, expected) << "round " << round;
  }

  // Walking the coalesced datagram with the reusing unprotect_into
  // recovers each packet identically to the allocating unprotect.
  size_t offset = 0, check_offset = 0;
  for (int round = 0; round < 6; ++round) {
    auto fresh = protector.unprotect(coalesced, check_offset);
    ASSERT_TRUE(fresh.has_value());
    ASSERT_TRUE(protector.unprotect_into(coalesced, offset, reused));
    EXPECT_EQ(offset, check_offset);
    EXPECT_EQ(reused.packet_number, fresh->packet_number);
    EXPECT_EQ(reused.dcid, fresh->dcid);
    EXPECT_EQ(reused.scid, fresh->scid);
    EXPECT_EQ(reused.token, fresh->token);
    EXPECT_EQ(reused.payload, fresh->payload);
  }
  EXPECT_EQ(offset, coalesced.size());
}

TEST_P(AppendApiSweep, FrameEncodeIntoReusedWriterMatchesEncodeFrames) {
  crypto::Rng rng(static_cast<uint64_t>(GetParam()) * 65537 + 3);
  wire::Writer reused;
  for (int round = 0; round < 10; ++round) {
    std::vector<quic::Frame> frames;
    size_t count = 1 + rng.below(6);
    for (size_t i = 0; i < count; ++i) {
      switch (rng.below(6)) {
        case 0: frames.push_back(quic::PaddingFrame{1 + rng.below(50)}); break;
        case 1: frames.push_back(quic::PingFrame{}); break;
        case 2:
          frames.push_back(quic::AckFrame{rng.below(1000), rng.below(100),
                                          rng.below(10), {}});
          break;
        case 3:
          frames.push_back(
              quic::CryptoFrame{rng.below(1 << 14), rng.bytes(rng.below(80))});
          break;
        case 4:
          frames.push_back(quic::StreamFrame{rng.below(64), rng.below(1 << 14),
                                             rng.below(2) == 0,
                                             rng.bytes(rng.below(80))});
          break;
        default: frames.push_back(quic::HandshakeDoneFrame{}); break;
      }
    }
    auto expected = quic::encode_frames(frames);
    reused.clear();  // capacity survives; contents must not
    quic::encode_frames_into(reused, frames);
    ASSERT_EQ(std::vector<uint8_t>(reused.span().begin(), reused.span().end()),
              expected)
        << "round " << round;
    auto decoded = quic::decode_frames(reused.span());
    auto reference = quic::decode_frames(expected);
    EXPECT_EQ(decoded, reference);
  }
}

TEST_P(AppendApiSweep, WireAppendPrimitivesMatchWriter) {
  crypto::Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 1);
  wire::Writer w;
  std::vector<uint8_t> appended;
  for (int i = 0; i < 200; ++i) {
    uint64_t v = rng.next() >> rng.below(64);
    switch (rng.below(6)) {
      case 0: w.u8(static_cast<uint8_t>(v));
              wire::append_u8(appended, static_cast<uint8_t>(v)); break;
      case 1: w.u16(static_cast<uint16_t>(v));
              wire::append_u16(appended, static_cast<uint16_t>(v)); break;
      case 2: w.u32(static_cast<uint32_t>(v));
              wire::append_u32(appended, static_cast<uint32_t>(v)); break;
      case 3: w.u64(v); wire::append_u64(appended, v); break;
      case 4: {
        uint64_t varint = v & wire::kVarintMax;
        w.varint(varint);
        wire::append_varint(appended, varint);
        break;
      }
      default: {
        auto blob = rng.bytes(rng.below(20));
        w.bytes(blob);
        wire::append_bytes(appended, blob);
        break;
      }
    }
  }
  EXPECT_EQ(std::vector<uint8_t>(w.span().begin(), w.span().end()), appended);
}

TEST_P(AppendApiSweep, RecordSealIntoMatchesSeal) {
  crypto::Rng rng(static_cast<uint64_t>(GetParam()) * 2654435761u + 17);
  tls::TrafficKeys keys;
  rng.fill(keys.key);
  rng.fill(keys.iv);
  // Two crypters with the same keys advance their sequence numbers in
  // lockstep, one per API under test.
  tls::RecordCrypter by_value(keys);
  tls::RecordCrypter by_append(keys);
  std::vector<uint8_t> flight;
  std::vector<uint8_t> expected;
  for (int round = 0; round < 8; ++round) {
    auto payload = rng.bytes(rng.below(400));
    auto record = by_value.seal(tls::ContentType::kHandshake, payload);
    by_append.seal_into(tls::ContentType::kHandshake, payload, flight);
    expected.insert(expected.end(), record.begin(), record.end());
    ASSERT_EQ(flight, expected) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AppendApiSweep, ::testing::Range(0, 12));

}  // namespace
