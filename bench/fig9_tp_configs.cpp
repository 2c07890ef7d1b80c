// Figure 9: distribution of transport-parameter configurations ranked
// by number of targets (left) and number of ASes (right), from the
// stateful SNI + no-SNI scans.
#include <cstdio>

#include "common.h"
#include "internet/tp_catalog.h"

int main() {
  bench::print_header(
      "Transport-parameter configurations ranked by targets and ASes "
      "(week 18)",
      "Figure 9 (paper: 45 configurations; rank 0 = Cloudflare's "
      "draft-34-defaults config spanning targets in 15 ASes; 20 configs "
      "in a single AS; 3 configs recur across 42 %% of ASes)");

  auto discovery = bench::run_discovery(18);
  scanner::QScanner qscanner(discovery.net->network(), {});
  const auto& registry = discovery.net->population().as_registry();

  struct ConfigStats {
    int catalog_id = -1;
    size_t targets = 0;
    std::set<uint32_t> ases;
  };
  std::map<std::string, ConfigStats> by_config;
  std::map<uint32_t, std::set<std::string>> configs_per_as;

  auto ingest = [&](const std::vector<scanner::QscanResult>& results) {
    for (const auto& result : results) {
      if (result.outcome != scanner::QscanOutcome::kSuccess) continue;
      const auto& params = result.report.server_transport_params;
      auto key = params.config_key();
      uint32_t asn = registry.asn_for(result.target.address);
      auto& stats = by_config[key];
      stats.catalog_id = internet::tp_config_id_for(params);
      ++stats.targets;
      stats.ases.insert(asn);
      configs_per_as[asn].insert(key);
    }
  };

  for (bool v6 : {false, true}) {
    std::vector<scanner::QscanTarget> filtered;
    for (const auto& target : bench::assemble_no_sni_targets(discovery, v6))
      if (qscanner.compatible(target)) filtered.push_back(target);
    ingest(qscanner.scan(filtered));
    filtered.clear();
    for (const auto& target :
         bench::assemble_sni_targets(discovery, v6).combined)
      if (qscanner.compatible(target)) filtered.push_back(target);
    ingest(qscanner.scan(filtered));
  }

  std::vector<std::pair<std::string, ConfigStats>> ranked(by_config.begin(),
                                                          by_config.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second.targets > b.second.targets;
  });

  std::printf("Distinct configurations observed: %zu (paper: 45)\n\n",
              ranked.size());
  analysis::Table table({"Rank", "Catalog id", "#Targets", "#ASes"});
  for (size_t i = 0; i < ranked.size(); ++i) {
    table.row({std::to_string(i), std::to_string(ranked[i].second.catalog_id),
               analysis::num(ranked[i].second.targets),
               analysis::num(ranked[i].second.ases.size())});
  }
  std::printf("%s\n", table.render().c_str());

  size_t single_as_configs = 0;
  for (const auto& [key, stats] : ranked)
    if (stats.ases.size() == 1) ++single_as_configs;
  std::printf("Configurations seen in exactly one AS: %zu (paper: 20)\n",
              single_as_configs);

  size_t single_config_ases = 0;
  for (const auto& [asn, configs] : configs_per_as)
    if (configs.size() == 1) ++single_config_ases;
  std::printf("ASes exposing a single configuration: %zu of %zu (paper: "
              "50 %%)\n",
              single_config_ases, configs_per_as.size());

  // The three-config recurrence: POP configs appearing in many ASes.
  std::set<std::string> pop_keys{
      internet::tp_catalog()[internet::kTpConfigMvfstPop1500]
          .params.config_key(),
      internet::tp_catalog()[internet::kTpConfigMvfstPop1404]
          .params.config_key(),
      internet::tp_catalog()[internet::kTpConfigGvs].params.config_key()};
  size_t pop_ases = 0;
  for (const auto& [asn, configs] : configs_per_as)
    for (const auto& key : configs)
      if (pop_keys.contains(key)) {
        ++pop_ases;
        break;
      }
  std::printf("ASes containing one of the three edge-POP configurations: "
              "%zu of %zu (paper: 42.2 %%)\n",
              pop_ases, configs_per_as.size());
  return 0;
}
