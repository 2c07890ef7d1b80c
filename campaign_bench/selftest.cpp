// Self-tests of the benchmark's own machinery: the seeded generator,
// the digest check, span self time, and traced/untraced identity.
//
//   python3 campaign_bench/run.py --selftest
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <thread>

#include "digest.h"
#include "span.h"
#include "workloads.h"

namespace {

const internet::Snapshot& week18() {
  static const auto snapshot = std::make_shared<const internet::Snapshot>(
      internet::PopulationParams{.dns_corpus_scale = 0.01}, 18);
  return *snapshot;
}

// A small SNI workload: the full pipeline over a few hundred domains.
bench::WorkloadSpec small_sni(bool hostile) {
  bench::WorkloadSpec spec = *bench::find_workload(
      hostile ? "sni_hostile" : "sni_scan");
  spec.sni_domains = 300;
  spec.dns_chunk = 64;
  spec.tcp_chunk = 64;
  spec.quic_chunk = 64;
  return spec;
}

TEST(Generator, SameSeedSameDomains) {
  const auto& pop = week18().population();
  auto a = bench::draw_sni_domains(pop, 2000, 7);
  auto b = bench::draw_sni_domains(pop, 2000, 7);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 2000u);
  EXPECT_EQ(std::set<std::string>(a.begin(), a.end()).size(), a.size());
  EXPECT_NE(a, bench::draw_sni_domains(pop, 2000, 8));
  for (const auto& name : a) {
    const auto* domain = pop.domain_by_name(name);
    ASSERT_NE(domain, nullptr) << name;
    EXPECT_FALSE(domain->v4_hosts.empty() && domain->v6_hosts.empty());
  }
}

TEST(Generator, SameSeedSameInputs) {
  const auto& spec = *bench::find_workload("weekly_sweep");
  bench::WorkloadSpec two_weeks = spec;
  two_weeks.weeks = {5, 18};
  auto a = bench::make_inputs(two_weeks, 3);
  auto b = bench::make_inputs(two_weeks, 3);
  auto c = bench::make_inputs(two_weeks, 4);
  ASSERT_EQ(a.weeks.size(), 2u);
  for (size_t w = 0; w < a.weeks.size(); ++w) {
    EXPECT_EQ(a.weeks[w].domains, b.weeks[w].domains);
    EXPECT_EQ(a.weeks[w].domain_list, b.weeks[w].domain_list);
    EXPECT_EQ(a.weeks[w].sweep, b.weeks[w].sweep);
    EXPECT_NE(a.weeks[w].sweep, c.weeks[w].sweep);
    EXPECT_FALSE(a.weeks[w].domains.empty());
  }
}

TEST(Digest, RejectsOneAlteredByte) {
  auto digest_of = [](const std::vector<std::string>& rows) {
    bench::Digest digest;
    for (const auto& row : rows) digest.add(row);
    return digest.hex();
  };
  std::vector<std::string> rows = {"192.0.2.1,a.example,Success",
                                   "192.0.2.2,b.example,Timeout"};
  bench::UnitDigests want{"week18", {{"csv", digest_of(rows)}}, 2, 2, 1};
  bench::UnitDigests same = want;
  EXPECT_EQ(bench::mismatched_targets({want}, {same}), 0u);

  for (size_t row = 0; row < rows.size(); ++row) {
    for (size_t byte = 0; byte < rows[row].size(); ++byte) {
      auto altered = rows;
      altered[row][byte] ^= 1;
      bench::UnitDigests got = want;
      got.digests["csv"] = digest_of(altered);
      EXPECT_EQ(bench::mismatched_targets({want}, {got}), want.targets)
          << "row " << row << " byte " << byte;
    }
  }
  // Moving a byte across the row boundary changes the digest too.
  EXPECT_NE(digest_of({"ab", "c"}), digest_of({"a", "bc"}));
  // A missing unit counts all of its targets.
  EXPECT_EQ(bench::mismatched_targets({want}, {}), want.targets);
}

TEST(Digest, ReferenceRoundTrip) {
  // Written to the working directory (run.py runs the tests in the
  // build tree).
  const std::string path = "campaign_bench_selftest_ref.json";
  std::remove(path.c_str());
  bench::UnitDigests unit{"week18", {{"csv", "ab"}, {"report", "cd"}}, 9, 4, 3};
  EXPECT_FALSE(bench::load_reference(path, 1).has_value());
  bench::store_reference(path, "sni_scan", 1, {unit});
  bench::store_reference(path, "sni_scan", 9001, {unit, unit});
  auto one = bench::load_reference(path, 1);
  ASSERT_TRUE(one.has_value());
  EXPECT_EQ(*one, std::vector<bench::UnitDigests>{unit});
  EXPECT_EQ(bench::load_reference(path, 9001)->size(), 2u);
  EXPECT_FALSE(bench::load_reference(path, 2).has_value());
  std::remove(path.c_str());
}

TEST(Spans, SelfTimeIsSpanMinusChildren) {
  using namespace std::chrono_literals;
  bench::SpanRecorder spans(true);
  {
    bench::SpanRecorder::Scope root(spans, "root");
    std::this_thread::sleep_for(1ms);
    {
      bench::SpanRecorder::Scope child(spans, "child");
      std::this_thread::sleep_for(2ms);
      bench::SpanRecorder::Scope grandchild(spans, "grandchild");
      std::this_thread::sleep_for(1ms);
    }
    bench::SpanRecorder::Scope child(spans, "child");
    std::this_thread::sleep_for(1ms);
  }
  auto logs = spans.logs();
  ASSERT_EQ(logs.size(), 1u);
  const auto& log = logs[0];
  ASSERT_EQ(log.size(), 4u);
  for (size_t i = 0; i < log.size(); ++i) {
    uint64_t children = 0;
    for (const auto& span : log)
      if (span.parent == static_cast<int64_t>(i))
        children += span.duration_ns();
    EXPECT_EQ(log[i].self_ns(), log[i].duration_ns() - children) << log[i].name;
  }
  auto totals = spans.totals();
  EXPECT_EQ(totals["child"].count, 2u);
  // Self times partition the root span exactly.
  uint64_t self_sum = 0;
  for (const auto& [name, t] : totals) self_sum += t.self_ns;
  EXPECT_EQ(self_sum, totals["root"].total_ns);
  EXPECT_GE(totals["root"].self_ns, 1'000'000u);
}

TEST(Spans, ThreadsKeepSeparateLogs) {
  bench::SpanRecorder spans(true);
  std::thread a([&] { bench::SpanRecorder::Scope s(spans, "worker"); });
  std::thread b([&] { bench::SpanRecorder::Scope s(spans, "worker"); });
  a.join();
  b.join();
  EXPECT_EQ(spans.logs().size(), 2u);
  EXPECT_EQ(spans.totals()["worker"].count, 2u);
  for (const auto& log : spans.logs()) EXPECT_EQ(log[0].parent, -1);

  bench::SpanRecorder off(false);
  { bench::SpanRecorder::Scope s(off, "ignored"); }
  EXPECT_EQ(off.span_count(), 0u);
}

TEST(Workload, TracedAndUntracedOutputsAreIdentical) {
  for (bool hostile : {false, true}) {
    auto spec = small_sni(hostile);
    auto inputs = bench::make_inputs(spec, 5);
    bench::SpanRecorder plain(false), traced(true);
    auto a = bench::run_rep(spec, inputs, 5, 2, plain);
    auto b = bench::run_rep(spec, inputs, 5, 2, traced);
    auto serial = bench::run_rep(spec, inputs, 5, 1, plain);
    EXPECT_EQ(a.units, b.units) << spec.name;
    EXPECT_EQ(a.units, serial.units) << spec.name;
    EXPECT_EQ(a.missing, 0u);
    EXPECT_TRUE(a.errors.empty());
    EXPECT_GT(a.stateful(), 0u);
    EXPECT_GT(traced.totals()["qscan.target"].count, 0u);
    EXPECT_EQ(traced.totals()["qscan.target"].count, a.stateful());
  }
}

}  // namespace
