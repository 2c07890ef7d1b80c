// Report pipeline tests: the RFC 4180 codec, the fingerprint golden
// contract, the accumulator's merge algebra, and the subsystem's core
// acceptance -- report artifacts byte-identical across shard counts
// and between the streaming and offline (CSV replay) front ends.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/table.h"
#include "engine/engine.h"
#include "internet/internet.h"
#include "internet/tp_catalog.h"
#include "report/csv.h"
#include "report/fingerprint.h"
#include "report/json.h"
#include "report/report.h"
#include "scanner/qscanner.h"
#include "telemetry/metrics.h"

namespace {

constexpr uint64_t kSeed = 0x5ca9;
constexpr int kWeek = 18;
constexpr internet::PopulationParams kPopulation{.dns_corpus_scale = 0.002};

// ---------------------------------------------------------------------
// RFC 4180 codec
// ---------------------------------------------------------------------

std::vector<std::vector<std::string>> parse_all(const std::string& text) {
  return report::parse_csv(text);
}

TEST(Csv, EscapePlainFieldsUntouched) {
  EXPECT_EQ(report::csv_escape("plain"), "plain");
  EXPECT_EQ(report::csv_escape(""), "");
  EXPECT_EQ(report::csv_escape("with space"), "with space");
}

TEST(Csv, EscapeQuotesDelimitersAndNewlines) {
  EXPECT_EQ(report::csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(report::csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(report::csv_escape("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(report::csv_escape("cr\rhere"), "\"cr\rhere\"");
}

TEST(Csv, ReaderHandlesQuotedFields) {
  auto rows = parse_all("a,\"b,c\",d\n\"x\"\"y\",\"1\n2\",z\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b,c", "d"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"x\"y", "1\n2", "z"}));
}

TEST(Csv, ReaderHandlesCrlfAndMissingFinalNewline) {
  auto rows = parse_all("a,b\r\nc,d");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(Csv, ReaderHandlesEmptyFields) {
  auto rows = parse_all(",,\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"", "", ""}));
}

TEST(Csv, ReaderRejectsMalformedQuoting) {
  EXPECT_THROW(parse_all("a\"b,c\n"), std::runtime_error);
  EXPECT_THROW(parse_all("\"unterminated\n"), std::runtime_error);
}

// Writer <-> reader round-trip property: any field survives
// csv_join + CsvReader, including the wire-derived nasties the
// scanner prints verbatim (server headers, certificate names, SNI).
TEST(Csv, RoundTripPropertySweep) {
  // Deterministic generator; no global RNG state.
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  const std::string alphabet = "ab,\"\n\r;| %x0\t";
  for (int round = 0; round < 200; ++round) {
    std::vector<std::string> fields(1 + next() % 6);
    for (auto& field : fields) {
      size_t len = next() % 12;
      for (size_t i = 0; i < len; ++i)
        field += alphabet[next() % alphabet.size()];
    }
    auto rows = parse_all(report::csv_join(fields) + "\n");
    ASSERT_EQ(rows.size(), 1u) << "round " << round;
    EXPECT_EQ(rows[0], fields) << "round " << round;
  }
}

// ---------------------------------------------------------------------
// Row features
// ---------------------------------------------------------------------

report::QscanRowFeatures sample_features() {
  report::QscanRowFeatures f;
  f.address = "104.16.1.1";
  f.sni = "example, \"quoted\".com";
  f.outcome = "Success";
  f.version = "ietf-01";
  f.alpn = "h3";
  f.cert_cn = "cn\nwith newline";
  f.tp_config = 7;
  f.initial_max_data = 1048576;
  f.max_udp_payload = 1472;
  f.server = "LiteSpeed";
  return f;
}

TEST(RowFeatures, CsvRoundTrip) {
  auto f = sample_features();
  auto rows = parse_all(report::to_csv_row(f) + "\n");
  ASSERT_EQ(rows.size(), 1u);
  auto parsed = report::features_from_csv(rows[0]);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, f);
}

TEST(RowFeatures, RejectsMalformedRows) {
  auto fields = parse_all(report::to_csv_row(sample_features()) + "\n")[0];
  auto short_row = fields;
  short_row.pop_back();
  EXPECT_FALSE(report::features_from_csv(short_row).has_value());
  auto bad_number = fields;
  bad_number[7] = "not-a-number";
  EXPECT_FALSE(report::features_from_csv(bad_number).has_value());
  auto bad_config = fields;
  bad_config[6] = "";
  EXPECT_FALSE(report::features_from_csv(bad_config).has_value());
}

// ---------------------------------------------------------------------
// Fingerprint golden contract
// ---------------------------------------------------------------------

// Every catalog configuration must classify to its own id and its own
// library -- the TP-presence-and-values clustering of section 5.2.
TEST(Fingerprint, EveryCatalogEntryClassifiesToItself) {
  for (const auto& entry : internet::tp_catalog()) {
    EXPECT_EQ(internet::tp_config_id_for(entry.params), entry.id);
    auto fp = report::fingerprint_of(entry.params);
    EXPECT_EQ(fp.config_id, entry.id);
    EXPECT_TRUE(fp.known());
    EXPECT_EQ(fp.library, report::library_for_owner(entry.owner_hint))
        << "config " << entry.id;
    EXPECT_NE(fp.library, report::kUnknownLibrary) << "config " << entry.id;
  }
}

// A perturbed configuration must classify as unknown -- never be
// attributed to the nearest library. Perturb every config three ways:
// change a value, clear a present parameter, set an absent one.
TEST(Fingerprint, PerturbedConfigsAreUnknownNeverMisattributed) {
  for (const auto& entry : internet::tp_catalog()) {
    auto expect_unknown = [&](quic::TransportParameters tp,
                              const char* how) {
      auto fp = report::fingerprint_of(tp);
      EXPECT_EQ(fp.config_id, -1)
          << "config " << entry.id << " perturbed by " << how
          << " misattributed to config " << fp.config_id;
      EXPECT_EQ(fp.library, report::kUnknownLibrary)
          << "config " << entry.id << " perturbed by " << how;
    };

    auto tweaked = entry.params;
    tweaked.initial_max_data = tweaked.initial_max_data.value_or(0) + 1;
    expect_unknown(tweaked, "initial_max_data + 1");

    auto cleared = entry.params;
    cleared.max_idle_timeout.reset();
    if (cleared.config_key() != entry.params.config_key())
      expect_unknown(cleared, "clearing max_idle_timeout");

    auto extended = entry.params;
    extended.ack_delay_exponent = 7;  // no catalog entry uses 7
    expect_unknown(extended, "ack_delay_exponent = 7");

    // Every single-field perturbation: the field lookup names the
    // catalog entry whose config_key() string equals the perturbed one,
    // or none, exactly as a string-keyed lookup would.
    auto expect_key_agrees = [&](const quic::TransportParameters& tp,
                                 const std::string& how) {
      int by_key = -1;
      for (const auto& other : internet::tp_catalog())
        if (other.params.config_key() == tp.config_key()) by_key = other.id;
      EXPECT_EQ(internet::tp_config_id_for(tp), by_key)
          << "config " << entry.id << " perturbed by " << how;
      EXPECT_EQ(report::fingerprint_of(tp).config_id, by_key)
          << "config " << entry.id << " perturbed by " << how;
    };
    using Tp = quic::TransportParameters;
    const std::pair<const char*, std::optional<uint64_t> Tp::*> fields[] = {
        {"max_idle_timeout", &Tp::max_idle_timeout},
        {"max_udp_payload_size", &Tp::max_udp_payload_size},
        {"initial_max_data", &Tp::initial_max_data},
        {"initial_max_stream_data_bidi_local",
         &Tp::initial_max_stream_data_bidi_local},
        {"initial_max_stream_data_bidi_remote",
         &Tp::initial_max_stream_data_bidi_remote},
        {"initial_max_stream_data_uni", &Tp::initial_max_stream_data_uni},
        {"initial_max_streams_bidi", &Tp::initial_max_streams_bidi},
        {"initial_max_streams_uni", &Tp::initial_max_streams_uni},
        {"ack_delay_exponent", &Tp::ack_delay_exponent},
        {"max_ack_delay", &Tp::max_ack_delay},
        {"active_connection_id_limit", &Tp::active_connection_id_limit},
    };
    for (const auto& [name, field] : fields) {
      auto bumped = entry.params;
      auto& value = bumped.*field;
      value = value ? *value + 1 : 0;
      expect_key_agrees(bumped, std::string("bumping ") + name);
      auto cleared_field = entry.params;
      (cleared_field.*field).reset();
      expect_key_agrees(cleared_field, std::string("clearing ") + name);
    }
    auto flipped = entry.params;
    flipped.disable_active_migration = !flipped.disable_active_migration;
    expect_key_agrees(flipped, "flipping disable_active_migration");

    // Session-specific values are not part of the configuration.
    auto session = entry.params;
    session.original_destination_connection_id = {1, 2, 3, 4};
    session.stateless_reset_token = std::vector<uint8_t>(16, 0xab);
    session.unknown.emplace_back(0x2a, std::vector<uint8_t>{7});
    EXPECT_EQ(internet::tp_config_id_for(session), entry.id);
    expect_key_agrees(session, "session-specific values");
  }
}

TEST(Fingerprint, OutOfRangeConfigIdsAreUnknown) {
  EXPECT_EQ(report::fingerprint_of_config(-1).library,
            report::kUnknownLibrary);
  EXPECT_EQ(report::fingerprint_of_config(internet::kTpConfigCount).library,
            report::kUnknownLibrary);
  EXPECT_FALSE(report::fingerprint_of_config(-1).known());
}

TEST(Fingerprint, OwnerHintsCoverAllLibraries) {
  EXPECT_EQ(report::library_for_owner("cloudflare"), "quiche");
  EXPECT_EQ(report::library_for_owner("mvfst-as"), "mvfst");
  EXPECT_EQ(report::library_for_owner("mvfst-pop"), "mvfst");
  EXPECT_EQ(report::library_for_owner("gvs"), "google-quic");
  EXPECT_EQ(report::library_for_owner("google-frontend"), "google-quic");
  EXPECT_EQ(report::library_for_owner("litespeed"), "lsquic");
  EXPECT_EQ(report::library_for_owner("nginx"), "nginx-quic");
  EXPECT_EQ(report::library_for_owner("caddy"), "quic-go");
  EXPECT_EQ(report::library_for_owner("misc"), "custom");
  EXPECT_EQ(report::library_for_owner("nonsense"), report::kUnknownLibrary);
}

// ---------------------------------------------------------------------
// Merge algebra
// ---------------------------------------------------------------------

std::string report_json(const report::ReportAccumulator& acc) {
  std::ostringstream out;
  report::write_report_json(out, acc);
  return out.str();
}

// One add_* call of a synthetic campaign.
struct SyntheticEvent {
  enum class Kind { kRow, kZmapHit, kDnsRecord } kind = Kind::kRow;
  report::QscanRowFeatures row;         // kRow; kZmapHit uses row.address
  std::vector<quic::Version> versions;  // kZmapHit
  std::string list;                     // kDnsRecord
  dns::BulkRecord record;               // kDnsRecord
  uint32_t asn = 0;

  void apply(report::ReportAccumulator& acc) const {
    switch (kind) {
      case Kind::kRow:
        acc.add_row(row, asn);
        break;
      case Kind::kZmapHit:
        acc.add_zmap_hit(row.address, versions, asn);
        break;
      case Kind::kDnsRecord:
        acc.add_dns_record(list, record);
        break;
    }
  }
};

// Deterministic pseudo-random events exercising every add_* path over
// both address families. Rows, ZMap hits, A/AAAA answers and HTTPS-RR
// hints all draw from small overlapping address pools, and the 40
// domains repeat within and across two lists, so the DNS join has
// shared addresses, shared domains and duplicate pairs.
std::vector<SyntheticEvent> synthetic_events(uint64_t seed, int events) {
  uint64_t state = seed * 0x9e3779b97f4a7c15ull + 1;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  auto v4 = [&next] {
    return netsim::IpAddress::v4(0x0a000000u +
                                 static_cast<uint32_t>(next() % 400));
  };
  auto v6 = [&next] {
    return netsim::IpAddress::v6(0x20010db8ull << 32, next() % 48);
  };
  auto address = [&] { return next() % 4 ? v4() : v6(); };
  auto some = [&next](auto draw) {
    std::vector<netsim::IpAddress> out(next() % 3);
    for (auto& addr : out) addr = draw();
    return out;
  };
  const char* outcomes[] = {"Success", "Timeout", "Crypto Error (0x128)",
                            "Rate Limited", "Degraded"};
  std::vector<SyntheticEvent> out(static_cast<size_t>(events));
  for (auto& event : out) {
    switch (next() % 3) {
      case 0: {
        event.kind = SyntheticEvent::Kind::kRow;
        auto& row = event.row;
        row.address = address().to_string();
        row.outcome = outcomes[next() % 5];
        if (row.success()) {
          row.version = next() % 2 ? "ietf-01" : "draft-29";
          row.alpn = "h3";
          row.tp_config = static_cast<int>(next() % 46) - 1;
          row.initial_max_data = 1024 << (next() % 6);
          row.max_udp_payload = next() % 2 ? 1472 : 65527;
          row.server = next() % 2 ? "nginx" : "LiteSpeed";
        }
        event.asn = static_cast<uint32_t>(next() % 9);
        break;
      }
      case 1: {
        event.kind = SyntheticEvent::Kind::kZmapHit;
        event.row.address = address().to_string();
        event.versions = {quic::kVersion1};
        if (next() % 2) event.versions.push_back(quic::kDraft29);
        event.asn = static_cast<uint32_t>(next() % 9);
        break;
      }
      default: {
        event.kind = SyntheticEvent::Kind::kDnsRecord;
        event.list = next() % 2 ? "alexa" : "umbrella";
        auto& record = event.record;
        record.domain = "host-" + std::to_string(next() % 40) + ".example";
        record.a = some(v4);
        record.aaaa = some(v6);
        if (next() % 3 == 0) {
          dns::SvcbData svcb;
          svcb.alpn = {"h3"};
          svcb.ipv4_hints = some(v4);
          svcb.ipv6_hints = some(v6);
          record.https.push_back(std::move(svcb));
        }
        break;
      }
    }
  }
  return out;
}

report::ReportAccumulator synthetic_accumulator(uint64_t seed,
                                                int events) {
  report::ReportAccumulator acc("qscanner");
  for (const auto& event : synthetic_events(seed, events)) event.apply(acc);
  return acc;
}

TEST(MergeAlgebra, EmptyIsIdentity) {
  auto acc = synthetic_accumulator(1, 64);
  auto expected = report_json(acc);

  report::ReportAccumulator left;
  left.merge_from(acc);
  EXPECT_EQ(report_json(left), expected);

  auto right = synthetic_accumulator(1, 64);
  right.merge_from(report::ReportAccumulator());
  EXPECT_EQ(report_json(right), expected);
}

TEST(MergeAlgebra, CommutativeAndAssociativeSweep) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto a = synthetic_accumulator(seed, 48);
    auto b = synthetic_accumulator(seed + 100, 37);
    auto c = synthetic_accumulator(seed + 200, 23);

    // a + b == b + a
    report::ReportAccumulator ab, ba;
    ab.merge_from(a);
    ab.merge_from(b);
    ba.merge_from(b);
    ba.merge_from(a);
    EXPECT_EQ(report_json(ab), report_json(ba)) << "seed " << seed;

    // (a + b) + c == a + (b + c)
    report::ReportAccumulator ab_c, bc, a_bc;
    ab_c.merge_from(ab);
    ab_c.merge_from(c);
    bc.merge_from(b);
    bc.merge_from(c);
    a_bc.merge_from(a);
    a_bc.merge_from(bc);
    EXPECT_EQ(report_json(ab_c), report_json(a_bc)) << "seed " << seed;
  }
}

// Table 1's join columns counted the slow, obvious way: std::set
// address sets, and every address checked against every domain.
struct NaiveJoin {
  int64_t joined_addresses = 0;
  int64_t joined_domains = 0;
  int64_t dns_pairs = 0;
};

NaiveJoin naive_join(const std::vector<SyntheticEvent>& events) {
  std::set<netsim::IpAddress> success;
  std::map<std::string, std::set<netsim::IpAddress>> domains;
  for (const auto& event : events) {
    if (event.kind == SyntheticEvent::Kind::kDnsRecord) {
      auto& addrs = domains[event.record.domain];
      addrs.insert(event.record.a.begin(), event.record.a.end());
      addrs.insert(event.record.aaaa.begin(), event.record.aaaa.end());
      for (const auto& svcb : event.record.https) {
        addrs.insert(svcb.ipv4_hints.begin(), svcb.ipv4_hints.end());
        addrs.insert(svcb.ipv6_hints.begin(), svcb.ipv6_hints.end());
      }
    } else if (event.kind == SyntheticEvent::Kind::kZmapHit ||
               event.row.success()) {
      success.insert(*netsim::IpAddress::parse(event.row.address));
    }
  }
  NaiveJoin join;
  for (const auto& addr : success)
    for (const auto& [domain, addrs] : domains)
      if (addrs.contains(addr)) {
        ++join.joined_addresses;
        break;
      }
  for (const auto& [domain, addrs] : domains) {
    join.dns_pairs += static_cast<int64_t>(addrs.size());
    for (const auto& addr : addrs)
      if (success.contains(addr)) {
        ++join.joined_domains;
        break;
      }
  }
  return join;
}

// The cells of report.md's Table 1 data row.
std::vector<std::string> markdown_table1(const report::ReportAccumulator& acc) {
  std::ostringstream out;
  report::write_report_markdown(out, acc);
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line) && line.rfind("## Table 1", 0) != 0) {
  }
  for (int i = 0; i < 4; ++i) std::getline(lines, line);  // blank, head, rule
  std::vector<std::string> cells;
  std::istringstream row(line);
  std::string cell;
  while (std::getline(row, cell, '|'))
    if (cell.size() > 2) cells.push_back(cell.substr(1, cell.size() - 2));
  return cells;
}

// The one-pass join over the merged typed state equals the naive
// reference, whatever the sharding and the merge order.
TEST(MergeAlgebra, Table1JoinMatchesNaiveSetsOverShuffledShards) {
  std::mt19937_64 rng(0x7ab1e1);
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const auto events = synthetic_events(seed, 300);
    const NaiveJoin expected = naive_join(events);
    EXPECT_GT(expected.joined_addresses, 0) << "seed " << seed;
    EXPECT_GT(expected.joined_domains, 0) << "seed " << seed;
    for (size_t shards : {1, 2, 5, 9}) {
      std::vector<report::ReportAccumulator> parts(
          shards, report::ReportAccumulator("qscanner"));
      for (const auto& event : events) event.apply(parts[rng() % shards]);
      std::shuffle(parts.begin(), parts.end(), rng);
      report::ReportAccumulator merged;
      for (const auto& part : parts) merged.merge_from(part);

      auto json = report::json::parse(report_json(merged));
      const auto* table1 = json.find("table1_discovery");
      ASSERT_NE(table1, nullptr);
      EXPECT_EQ(table1->int_or("joined_addresses", -1),
                expected.joined_addresses)
          << "seed " << seed << ", " << shards << " shards";
      EXPECT_EQ(table1->int_or("joined_domains", -1), expected.joined_domains)
          << "seed " << seed << ", " << shards << " shards";
      EXPECT_EQ(table1->int_or("dns_pairs", -1), expected.dns_pairs)
          << "seed " << seed << ", " << shards << " shards";

      auto cells = markdown_table1(merged);
      ASSERT_EQ(cells.size(), 5u);
      EXPECT_EQ(cells[3], analysis::num(static_cast<uint64_t>(
                              expected.joined_addresses)));
      EXPECT_EQ(cells[4], analysis::num(static_cast<uint64_t>(
                              expected.joined_domains)));
    }
  }
}

TEST(Accumulator, UnparsableAddressThrowsAndAddsNothing) {
  report::ReportAccumulator acc("qscanner");
  report::QscanRowFeatures row;
  row.address = "not-an-address";
  row.outcome = "Success";
  EXPECT_THROW(acc.add_row(row, 1), std::invalid_argument);
  EXPECT_THROW(acc.add_zmap_hit("10.0.0.256", {quic::kVersion1}, 1),
               std::invalid_argument);
  EXPECT_EQ(acc.rows(), 0u);
  EXPECT_EQ(acc.distinct_addresses(), 0u);
  EXPECT_TRUE(acc.outcomes().empty());
}

// Addresses are values: two spellings of one address are one address.
TEST(Accumulator, TextualFormsOfOneAddressCountOnce) {
  report::ReportAccumulator acc("qscanner");
  report::QscanRowFeatures row;
  row.outcome = "Timeout";
  for (const char* text : {"2001:db8::1", "2001:0db8:0:0:0:0:0:1",
                           "10.0.0.1", "10.0.0.01"}) {
    row.address = text;
    acc.add_row(row, 1);
  }
  EXPECT_EQ(acc.rows(), 4u);
  EXPECT_EQ(acc.distinct_addresses(), 2u);
}

TEST(Accumulator, CountersBumpOnAddNotOnMerge) {
  telemetry::MetricsRegistry metrics;
  report::ReportAccumulator acc("qscanner", &metrics);
  report::QscanRowFeatures row;
  row.address = "10.0.0.1";
  row.outcome = "Success";
  row.tp_config = -1;
  acc.add_row(row, 1);
  acc.add_zmap_hit("10.0.0.2", {quic::kVersion1}, 1);

  const auto* rows = metrics.find_counter("report.rows");
  const auto* hits = metrics.find_counter("report.zmap_hits");
  const auto* unknown = metrics.find_counter("report.fingerprint_unknown");
  ASSERT_NE(rows, nullptr);
  ASSERT_NE(hits, nullptr);
  ASSERT_NE(unknown, nullptr);
  EXPECT_EQ(rows->value(), 1u);
  EXPECT_EQ(hits->value(), 1u);
  EXPECT_EQ(unknown->value(), 1u);

  // Merging someone else's accumulator must not re-count observations.
  acc.merge_from(synthetic_accumulator(3, 32));
  EXPECT_EQ(rows->value(), 1u);
  EXPECT_EQ(hits->value(), 1u);
}

TEST(Accumulator, DnsJoinAndListStats) {
  report::ReportAccumulator acc("dns");
  dns::BulkRecord record;
  record.domain = "joined.example";
  record.a.push_back(*netsim::IpAddress::parse("10.1.2.3"));
  dns::SvcbData svcb;
  svcb.alpn = {"h3", "h3-29"};
  svcb.ipv4_hints.push_back(*netsim::IpAddress::parse("10.1.2.4"));
  record.https.push_back(svcb);
  acc.add_dns_record("alexa", record);

  const auto& stats = acc.dns_lists().at("alexa");
  EXPECT_EQ(stats.resolved, 1u);
  EXPECT_EQ(stats.with_a, 1u);
  EXPECT_EQ(stats.with_aaaa, 0u);
  EXPECT_EQ(stats.with_https_rr, 1u);
  EXPECT_EQ(acc.alpn_sets().at("h3 h3-29"), 1u);

  // A successful scan row on the joined address makes the Table 1 join
  // columns non-zero.
  report::QscanRowFeatures row;
  row.address = "10.1.2.3";
  row.outcome = "Success";
  acc.add_row(row, 1);
  auto json = report::json::parse(report_json(acc));
  const auto* table1 = json.find("table1_discovery");
  ASSERT_NE(table1, nullptr);
  EXPECT_EQ(table1->int_or("joined_addresses", -1), 1);
  EXPECT_EQ(table1->int_or("joined_domains", -1), 1);
  EXPECT_EQ(table1->int_or("dns_pairs", -1), 2);
}

TEST(Accumulator, VersionSupportMatrixCountsClassesOnce) {
  report::ReportAccumulator acc("zmap");
  acc.add_zmap_hit("10.0.0.1", {quic::kVersion1, quic::kDraft29}, 1);
  const auto& support = acc.version_support();
  EXPECT_EQ(support.at("ietf-01"), 1u);
  EXPECT_EQ(support.at("draft-29"), 1u);
  // Both announced versions are IETF-class: the class row counts the
  // address once, not twice.
  EXPECT_EQ(support.at("any-ietf"), 1u);
  EXPECT_EQ(support.count("any-gquic"), 0u);
}

// ---------------------------------------------------------------------
// JSON artifact and diff
// ---------------------------------------------------------------------

TEST(Json, ParserRoundTripsReportDocument) {
  auto acc = synthetic_accumulator(5, 96);
  auto text = report_json(acc);
  auto doc = report::json::parse(text);
  ASSERT_EQ(doc.kind, report::json::Value::Kind::kObject);
  const auto* schema = doc.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string, "quic-campaign-report");
  const auto* table1 = doc.find("table1_discovery");
  ASSERT_NE(table1, nullptr);
  EXPECT_EQ(table1->int_or("rows", -1),
            static_cast<int64_t>(acc.rows()));
}

TEST(Json, ParserRejectsGarbage) {
  EXPECT_THROW(report::json::parse("{"), std::runtime_error);
  EXPECT_THROW(report::json::parse("{} trailing"), std::runtime_error);
  EXPECT_THROW(report::json::parse("{\"a\": 01x}"), std::runtime_error);
}

TEST(Json, EscapeRoundTripsThroughParser) {
  std::string nasty = "quote \" backslash \\ newline \n tab \t bell \x07";
  auto doc = report::json::parse("\"" + report::json::escape(nasty) + "\"");
  EXPECT_EQ(doc.string, nasty);
}

TEST(Diff, ReportsDriftBetweenWeeks) {
  auto baseline = report_json(synthetic_accumulator(7, 64));
  auto current = report_json(synthetic_accumulator(8, 80));
  auto diff = report::render_report_diff(baseline, current);
  EXPECT_NE(diff.find("# Report drift"), std::string::npos);
  EXPECT_NE(diff.find("| Metric | Baseline | Current | Delta |"),
            std::string::npos);

  // Identical reports drift nowhere.
  auto none = report::render_report_diff(baseline, baseline);
  EXPECT_NE(none.find("0 of"), std::string::npos);
}

// ---------------------------------------------------------------------
// Campaign differential: jobs-invariance and offline replay
// ---------------------------------------------------------------------

/// One snapshot shared by the planning world and every campaign run;
/// world construction is pure over (params, week).
std::shared_ptr<const internet::Snapshot> shared_snapshot() {
  static auto snapshot =
      std::make_shared<const internet::Snapshot>(kPopulation, kWeek);
  return snapshot;
}

std::vector<scanner::QscanTarget> campaign_targets(size_t limit = 48) {
  netsim::EventLoop loop;
  internet::Internet net(shared_snapshot(), loop);
  std::vector<scanner::QscanTarget> targets;
  for (const auto& host : net.population().hosts()) {
    if (!host.address.is_v4()) continue;
    targets.push_back({host.address, std::nullopt,
                       host.advertised_versions});
    if (targets.size() >= limit) break;
  }
  return targets;
}

struct CampaignReport {
  std::string json;
  std::string csv;
};

// The qscanner_cli --targets --report shard body, in miniature: rows
// stream into per-shard accumulator slots, the CSV is the merged row
// list, and the report is the shard-order fold.
CampaignReport run_report_campaign(
    const std::vector<scanner::QscanTarget>& targets, int jobs) {
  engine::CampaignOptions options;
  options.jobs = jobs;
  options.seed = kSeed;
  options.week = kWeek;
  options.population = kPopulation;
  options.snapshot = shared_snapshot();
  engine::Campaign campaign(options);

  // Under the dynamic default the slice count is the chunk count, not
  // jobs -- size every slot with slot_count.
  const size_t slots = campaign.slot_count(targets.size());
  std::vector<std::vector<scanner::QscanResult>> shard_rows(slots);
  engine::ShardFold<report::ReportAccumulator> fold(
      slots, [] { return report::ReportAccumulator("qscanner"); });
  campaign.run(targets.size(), [&](engine::ShardEnv& env) {
    auto& acc = fold.slot(env.shard_index);
    acc.attach_metrics(env.metrics);
    const auto& registry = env.internet->population().as_registry();
    scanner::QscanOptions qopt;
    qopt.seed = env.seed;
    qopt.metrics = env.metrics;
    scanner::QScanner qscanner(env.internet->network(), qopt);
    auto& rows = shard_rows[static_cast<size_t>(env.shard_index)];
    for (size_t i = env.range.begin; i < env.range.end; ++i) {
      if (!qscanner.compatible(targets[i])) continue;
      rows.push_back(qscanner.scan_one(targets[i]));
      acc.add_row(report::features_of(rows.back()),
                  registry.asn_for(rows.back().target.address));
    }
  });

  CampaignReport out;
  out.csv = std::string(report::kQscanCsvHeader) + "\n";
  for (const auto& result : engine::concat_shards(std::move(shard_rows)))
    out.csv += report::to_csv_row(report::features_of(result)) + "\n";
  std::ostringstream json;
  report::write_report_json(json, fold.merged());
  out.json = json.str();
  return out;
}

// The qreport_cli replay path, in miniature.
std::string replay_report(const std::string& csv) {
  const internet::AsRegistry& registry = internet::campaign_as_registry();
  report::ReportAccumulator acc("qscanner");
  auto rows = report::parse_csv(csv);
  EXPECT_GT(rows.size(), 1u);
  for (size_t i = 1; i < rows.size(); ++i) {
    auto features = report::features_from_csv(rows[i]);
    EXPECT_TRUE(features.has_value()) << "row " << i;
    if (!features) continue;
    auto addr = netsim::IpAddress::parse(features->address);
    EXPECT_TRUE(addr.has_value()) << "row " << i;
    if (!addr) continue;
    acc.add_row(*features, registry.asn_for(*addr));
  }
  std::ostringstream json;
  report::RenderOptions render;
  render.as_registry = &registry;
  report::write_report_json(json, acc, render);
  return json.str();
}

TEST(CampaignReport, ByteIdenticalAcrossJobsAndOfflineReplay) {
  auto targets = campaign_targets();
  auto baseline = run_report_campaign(targets, 1);
  EXPECT_FALSE(baseline.json.empty());

  for (int jobs : {2, 4, 8}) {
    auto run = run_report_campaign(targets, jobs);
    EXPECT_EQ(run.json, baseline.json) << "jobs " << jobs;
    EXPECT_EQ(run.csv, baseline.csv) << "jobs " << jobs;
  }

  // Replaying the merged CSV offline reproduces the streaming report
  // byte for byte -- the contract that lets weekly tracking regenerate
  // every artifact from archived CSV.
  EXPECT_EQ(replay_report(baseline.csv), baseline.json);
}

}  // namespace
