#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <span>
#include <sstream>

#include "engine/engine.h"
#include "http/alpn.h"
#include "report/report.h"
#include "scanner/dns_scan.h"
#include "scanner/qscanner.h"
#include "scanner/tcp_tls.h"
#include "scanner/zmap.h"

namespace bench {

namespace {

using Clock = std::chrono::steady_clock;
using Scope = SpanRecorder::Scope;

uint64_t elapsed_us(Clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            since)
          .count());
}

uint64_t splitmix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Uniform index in [0, bound) without modulo bias.
uint64_t draw_below(uint64_t& state, uint64_t bound) {
  uint64_t limit = UINT64_MAX - UINT64_MAX % bound;
  uint64_t r = splitmix64(state);
  while (r >= limit) r = splitmix64(state);
  return r % bound;
}

// The campaign seed of one stage of one week: distinct streams per
// stage so the stages never share connection entropy.
uint64_t stage_seed(uint64_t seed, int week, int stage) {
  uint64_t state = seed ^ (static_cast<uint64_t>(week) << 8) ^
                   static_cast<uint64_t>(stage);
  return splitmix64(state);
}

const char* const kSweepLists[] = {"alexa", "majestic", "umbrella", "czds",
                                   "comnetorg"};

internet::PopulationParams population_params() {
  // The qscanner_cli campaign population: 1 % of the synthetic
  // non-QUIC DNS bulk.
  return {.dns_corpus_scale = 0.01};
}

std::vector<quic::Version> versions_from_tokens(
    const std::vector<std::string>& tokens) {
  std::vector<quic::Version> out;
  for (const auto& token : tokens)
    if (auto version = http::version_for_alpn(token)) out.push_back(*version);
  return out;
}

struct AltSvcFinding {
  netsim::IpAddress address;
  std::string domain;
  std::vector<std::string> alpn;
};

// Runs one campaign, records its wall-clock account and merges its
// deterministic metrics into the repetition. A body exception is
// recorded as an error; the caller counts the stage's targets missing.
bool run_stage(engine::Campaign& campaign, size_t targets,
               const engine::Campaign::ShardBody& body, SpanRecorder& spans,
               RepResult& rep, Digest& metrics_digest) {
  auto t0 = Clock::now();
  try {
    Scope span(spans, "engine.run");
    campaign.run(targets, body);
  } catch (const std::exception& e) {
    rep.errors.push_back(e.what());
    return false;
  }
  CampaignAccount account;
  account.wall_us = elapsed_us(t0);
  const auto& sched = campaign.scheduler_metrics();
  for (const auto& [name, counter] : sched.counters()) {
    if (name.rfind("engine.busy_us.", 0) == 0) {
      account.busy_us += counter.value();
      account.max_worker_busy_us =
          std::max(account.max_worker_busy_us, counter.value());
    } else if (name.rfind("engine.chunks_run.", 0) == 0) {
      account.chunks += counter.value();
    }
  }
  auto workers = sched.gauges().find("engine.workers");
  account.workers = workers == sched.gauges().end()
                        ? 1
                        : static_cast<int>(workers->second.value());
  rep.campaigns.push_back(account);

  std::ostringstream json;
  campaign.metrics().write_json(json);
  metrics_digest.add(json.str());
  rep.metrics.merge_from(campaign.metrics());
  return true;
}

UnitDigests run_week(const WorkloadSpec& spec, const WeekInputs& in,
                     uint64_t seed, int jobs, SpanRecorder& spans,
                     RepResult& rep) {
  UnitDigests unit;
  char name[16];
  std::snprintf(name, sizeof name, "week%02d", in.week);
  unit.name = name;
  Digest metrics_digest;

  auto options_for = [&](int stage, size_t chunk) {
    engine::CampaignOptions options;
    options.jobs = jobs;
    options.seed = stage_seed(seed, in.week, stage);
    options.schedule = engine::Schedule::kDynamic;
    options.chunk_size = chunk;
    options.week = in.week;
    options.population = in.snapshot->params();
    options.snapshot = in.snapshot;
    return options;
  };
  auto new_report = [](const char* source) {
    return [source] { return report::ReportAccumulator(source); };
  };

  // --- 1. DNS: bulk resolution of the week's lists ---
  const size_t n_domains = in.domains.size();
  engine::Campaign dns_campaign(options_for(1, spec.dns_chunk));
  const size_t dns_slots = dns_campaign.slot_count(n_domains);
  std::vector<std::vector<std::pair<uint8_t, dns::BulkRecord>>> dns_out(
      dns_slots);
  std::vector<uint64_t> dns_resolved(dns_slots, 0);
  engine::ShardFold<report::ReportAccumulator> dns_fold(dns_slots,
                                                        new_report("dns"));
  bool dns_ok = run_stage(
      dns_campaign, n_domains,
      [&](engine::ShardEnv& env) {
        Scope body(spans, "engine.body");
        const auto slot = static_cast<size_t>(env.shard_index);
        auto& out = dns_out[slot];
        {
          Scope span(spans, "dns.scan");
          scanner::DnsScanner dns(env.internet->zones(), env.metrics);
          for (size_t i = env.range.begin; i < env.range.end;) {
            size_t j = i;
            while (j < env.range.end && in.domain_list[j] == in.domain_list[i])
              ++j;
            auto scan = dns.scan_list(
                in.lists[in.domain_list[i]],
                std::span<const std::string>(in.domains.data() + i, j - i));
            dns_resolved[slot] += scan.domains_resolved;
            for (auto& record : scan.records)
              out.emplace_back(in.domain_list[i], std::move(record));
            i = j;
          }
        }
        Scope span(spans, "report.fold");
        auto& acc = dns_fold.slot(env.shard_index);
        acc.attach_metrics(env.metrics);
        for (const auto& [list, record] : out)
          acc.add_dns_record(in.lists[list], record);
      },
      spans, rep, metrics_digest);
  uint64_t resolved = 0;
  for (uint64_t n : dns_resolved) resolved += n;
  rep.missing += dns_ok ? n_domains - std::min<uint64_t>(resolved, n_domains)
                        : n_domains;

  // --- 2. TLS over TCP: Alt-Svc discovery on the joined pairs ---
  std::vector<scanner::TcpTarget> pairs;
  for (const auto& shard : dns_out) {
    for (const auto& [list, record] : shard) {
      if (in.lists[list] != in.alt_svc_list) continue;
      for (const auto& addr : record.a) pairs.push_back({addr, record.domain});
      for (const auto& addr : record.aaaa)
        pairs.push_back({addr, record.domain});
    }
  }
  engine::Campaign tcp_campaign(options_for(2, spec.tcp_chunk));
  const size_t tcp_slots = tcp_campaign.slot_count(pairs.size());
  std::vector<std::vector<AltSvcFinding>> tcp_out(tcp_slots);
  std::vector<uint64_t> tcp_done(tcp_slots, 0);
  bool tcp_ok = run_stage(
      tcp_campaign, pairs.size(),
      [&](engine::ShardEnv& env) {
        Scope body(spans, "engine.body");
        Scope span(spans, "tcp.scan");
        const auto slot = static_cast<size_t>(env.shard_index);
        scanner::TcpTlsOptions options;
        options.seed = env.seed;
        options.metrics = env.metrics;
        scanner::TcpTlsScanner tcp(env.internet->network(), options);
        for (size_t i = env.range.begin; i < env.range.end; ++i) {
          scanner::TcpTlsResult result;
          {
            Scope target(spans, "tcp.target");
            result = tcp.scan_one(pairs[i]);
          }
          ++tcp_done[slot];
          AltSvcFinding finding{pairs[i].address, *pairs[i].sni, {}};
          for (const auto& entry : result.alt_svc)
            if (http::alpn_implies_quic(entry.alpn))
              finding.alpn.push_back(entry.alpn);
          if (!finding.alpn.empty())
            tcp_out[slot].push_back(std::move(finding));
        }
      },
      spans, rep, metrics_digest);
  uint64_t tcp_concluded = 0;
  for (uint64_t n : tcp_done) tcp_concluded += n;
  rep.missing += tcp_ok ? pairs.size() - tcp_concluded : pairs.size();

  std::vector<AltSvcFinding> findings;
  Digest alt_svc_digest;
  for (auto& shard : tcp_out) {
    for (auto& finding : shard) {
      std::string line = finding.address.to_string() + "," + finding.domain;
      for (const auto& token : finding.alpn) line += " " + token;
      alt_svc_digest.add(line);
      findings.push_back(std::move(finding));
    }
  }

  // --- 3. QUIC: ZMap VN sweep, then QScanner ---
  const size_t quic_targets = spec.sni ? findings.size() : in.sweep.size();
  engine::CampaignOptions quic_options = options_for(3, spec.quic_chunk);
  quic_options.impairment = spec.quic_impairment;
  quic_options.adversary = spec.quic_adversary;
  engine::Campaign quic_campaign(quic_options);
  const size_t quic_slots = quic_campaign.slot_count(quic_targets);
  std::vector<std::vector<scanner::QscanResult>> quic_out(quic_slots);
  std::vector<uint64_t> quic_compatible(quic_slots, 0);
  engine::ShardFold<report::ReportAccumulator> quic_fold(
      quic_slots, new_report("qscanner"));
  bool quic_ok = run_stage(
      quic_campaign, quic_targets,
      [&](engine::ShardEnv& env) {
        Scope body(spans, "engine.body");
        const auto slot = static_cast<size_t>(env.shard_index);
        const auto& registry = env.internet->population().as_registry();

        // The sweep probes its slice of the candidates; the SNI pipeline
        // probes the distinct addresses of its slice of announced pairs,
        // whose VN answers become the handshake's version hints.
        std::vector<netsim::IpAddress> probe;
        if (spec.sni) {
          for (size_t i = env.range.begin; i < env.range.end; ++i)
            probe.push_back(findings[i].address);
          std::sort(probe.begin(), probe.end());
          probe.erase(std::unique(probe.begin(), probe.end()), probe.end());
        } else {
          const auto begin = in.sweep.begin();
          probe.assign(begin + static_cast<ptrdiff_t>(env.range.begin),
                       begin + static_cast<ptrdiff_t>(env.range.end));
        }
        std::vector<scanner::ZmapHit> hits;
        {
          Scope span(spans, "zmap.scan");
          scanner::ZmapOptions zmap_options;
          zmap_options.seed = env.seed;
          zmap_options.metrics = env.metrics;
          scanner::ZmapQuicScanner zmap(env.internet->network(),
                                        std::move(zmap_options));
          hits = zmap.scan(probe);
        }

        std::vector<scanner::QscanTarget> targets;
        if (spec.sni) {
          std::map<netsim::IpAddress, const std::vector<quic::Version>*> vn;
          for (const auto& hit : hits) vn[hit.address] = &hit.versions;
          for (size_t i = env.range.begin; i < env.range.end; ++i) {
            const auto& finding = findings[i];
            auto it = vn.find(finding.address);
            targets.push_back({finding.address, finding.domain,
                               it != vn.end()
                                   ? *it->second
                                   : versions_from_tokens(finding.alpn)});
          }
        } else {
          for (const auto& hit : hits)
            targets.push_back({hit.address, std::nullopt, hit.versions});
        }

        auto& rows = quic_out[slot];
        {
          Scope span(spans, "qscan.scan");
          scanner::QscanOptions options;
          options.seed = env.seed;
          options.metrics = env.metrics;
          options.retry.max_attempts = 1 + spec.quic_retries;
          scanner::QScanner qscanner(env.internet->network(),
                                     std::move(options));
          for (const auto& target : targets) {
            if (!qscanner.compatible(target)) continue;
            ++quic_compatible[slot];
            Scope span_target(spans, "qscan.target");
            rows.push_back(qscanner.scan_one(target));
          }
        }
        Scope span(spans, "report.fold");
        auto& acc = quic_fold.slot(env.shard_index);
        acc.attach_metrics(env.metrics);
        for (const auto& hit : hits)
          acc.add_zmap_hit(hit.address.to_string(), hit.versions,
                           registry.asn_for(hit.address));
        for (const auto& row : rows)
          acc.add_row(report::features_of(row),
                      registry.asn_for(row.target.address));
      },
      spans, rep, metrics_digest);

  std::vector<scanner::QscanResult> rows =
      engine::concat_shards(std::move(quic_out));
  uint64_t compatible = 0;
  for (uint64_t n : quic_compatible) compatible += n;
  if (!quic_ok) rep.missing += quic_targets;
  rep.missing += compatible - std::min<uint64_t>(compatible, rows.size());

  // --- 4. Report: merge, render, CSV ---
  report::ReportAccumulator merged;
  {
    Scope span(spans, "report.merge");
    merged = dns_fold.merged();
    merged.merge_from(quic_fold.merged());
  }
  Digest report_digest;
  {
    Scope span(spans, "report.render");
    report::RenderOptions render;
    render.as_registry = &in.snapshot->population().as_registry();
    std::ostringstream json, markdown;
    report::write_report_json(json, merged, render);
    report::write_report_markdown(markdown, merged, render);
    report_digest.add(json.str());
    report_digest.add(markdown.str());
  }
  Digest csv_digest;
  {
    Scope span(spans, "report.csv");
    // The sweep's rows are address-ordered like qscanner_cli --all; the
    // SNI rows keep target order.
    if (!spec.sni)
      std::sort(rows.begin(), rows.end(),
                [](const scanner::QscanResult& a,
                   const scanner::QscanResult& b) {
                  return a.target.address < b.target.address;
                });
    csv_digest.add(report::kQscanCsvHeader);
    for (const auto& row : rows) {
      if (row.outcome >= scanner::QscanOutcome::kCount) ++rep.missing;
      if (row.outcome == scanner::QscanOutcome::kSuccess) ++unit.successes;
      csv_digest.add(report::to_csv_row(report::features_of(row)));
    }
  }

  unit.targets = n_domains + pairs.size() + quic_targets;
  unit.stateful = rows.size();
  unit.digests["csv"] = csv_digest.hex();
  unit.digests["report"] = report_digest.hex();
  unit.digests["metrics"] = metrics_digest.hex();
  unit.digests["alt_svc"] = alt_svc_digest.hex();
  return unit;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> out;
    WorkloadSpec sweep;
    sweep.name = "weekly_sweep";
    for (int week = 5; week <= 18; ++week) sweep.weeks.push_back(week);
    sweep.dns_sample = 10;
    sweep.dns_chunk = 2048;
    sweep.tcp_chunk = 256;
    sweep.quic_chunk = 512;
    out.push_back(sweep);

    WorkloadSpec sni;
    sni.name = "sni_scan";
    sni.weeks = {18};
    sni.sni = true;
    sni.sni_domains = 4000;
    sni.dns_chunk = 2048;
    sni.tcp_chunk = 512;
    sni.quic_chunk = 512;
    out.push_back(sni);

    WorkloadSpec hostile = sni;
    hostile.name = "sni_hostile";
    hostile.quic_impairment = "hostile";
    hostile.quic_adversary = "malicious";
    hostile.quic_retries = 2;
    out.push_back(hostile);
    return out;
  }();
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& spec : workloads())
    if (spec.name == name) return &spec;
  return nullptr;
}

void seeded_shuffle(std::vector<netsim::IpAddress>& items, uint64_t seed) {
  uint64_t state = seed;
  for (size_t i = items.size(); i > 1; --i)
    std::swap(items[i - 1], items[draw_below(state, i)]);
}

std::vector<std::string> draw_sni_domains(const internet::Population& pop,
                                          size_t count, uint64_t seed) {
  std::vector<uint32_t> hosted;
  for (const auto& domain : pop.domains())
    if (!domain.v4_hosts.empty() || !domain.v6_hosts.empty())
      hosted.push_back(domain.id);
  count = std::min(count, hosted.size());
  // Partial Fisher-Yates: the first `count` slots are a uniform draw
  // without replacement, in draw order.
  uint64_t state = seed ^ 0x5e1ec7ed5a17ull;
  for (size_t i = 0; i < count; ++i)
    std::swap(hosted[i], hosted[i + draw_below(state, hosted.size() - i)]);
  std::vector<std::string> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i)
    out.push_back(pop.domains()[hosted[i]].name);
  return out;
}

Inputs make_inputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs inputs;
  for (int week : spec.weeks) {
    WeekInputs in;
    in.week = week;
    auto t0 = Clock::now();
    in.snapshot =
        std::make_shared<const internet::Snapshot>(population_params(), week);
    inputs.snapshot_ms.push_back(static_cast<double>(elapsed_us(t0)) / 1e3);

    if (spec.sni) {
      in.lists = {"sni"};
      in.domains =
          draw_sni_domains(in.snapshot->population(), spec.sni_domains, seed);
      in.domain_list.assign(in.domains.size(), 0);
      in.alt_svc_list = "sni";
    } else {
      netsim::EventLoop loop;
      internet::Internet planning(in.snapshot, loop);
      uint64_t state = stage_seed(seed, week, 1);
      for (const char* list : kSweepLists) {
        const auto index = static_cast<uint8_t>(in.lists.size());
        in.lists.push_back(list);
        for (auto& domain : planning.list_corpus(list)) {
          if (draw_below(state, spec.dns_sample) != 0) continue;
          in.domains.push_back(std::move(domain));
          in.domain_list.push_back(index);
        }
      }
      in.alt_svc_list = "alexa";
      in.sweep = planning.zmap_candidates_v4();
      auto hitlist = planning.ipv6_hitlist();
      in.sweep.insert(in.sweep.end(), hitlist.begin(), hitlist.end());
      seeded_shuffle(in.sweep, stage_seed(seed, week, 0));
    }
    inputs.weeks.push_back(std::move(in));
  }
  return inputs;
}

uint64_t RepResult::targets() const {
  uint64_t n = 0;
  for (const auto& unit : units) n += unit.targets;
  return n;
}

uint64_t RepResult::stateful() const {
  uint64_t n = 0;
  for (const auto& unit : units) n += unit.stateful;
  return n;
}

uint64_t RepResult::successes() const {
  uint64_t n = 0;
  for (const auto& unit : units) n += unit.successes;
  return n;
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

RepResult run_rep(const WorkloadSpec& spec, const Inputs& inputs,
                  uint64_t seed, int jobs, SpanRecorder& spans) {
  RepResult rep;
  Scope span(spans, "bench.rep");
  for (const auto& week : inputs.weeks) {
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    rep.units.push_back(run_week(spec, week, seed, jobs, spans, rep));
    rep.timings.push_back(
        {static_cast<double>(elapsed_us(t0)) / 1e6, process_cpu_s() - cpu0});
  }
  return rep;
}

}  // namespace bench
