// Edge-POP fingerprinting (section 5.2): combine QUIC transport
// parameters with HTTP Server header values to identify large providers
// operating deployments *outside* their own networks -- the paper's
// Facebook (proxygen-bolt) and Google (gvs 1.0) off-net discoveries.
//
//   ./build/examples/edge_pop_fingerprinting
#include <cstdio>
#include <map>
#include <set>

#include "internet/internet.h"
#include "internet/tp_catalog.h"
#include "scanner/qscanner.h"
#include "scanner/zmap.h"

int main() {
  netsim::EventLoop loop;
  internet::Internet internet({.dns_corpus_scale = 0.01}, 18, loop);
  const auto& registry = internet.population().as_registry();

  // Sweep, then complete handshakes with every compatible address.
  scanner::ZmapQuicScanner zmap(internet.network(), {});
  scanner::QScanner qscanner(internet.network(), {});
  struct Fingerprint {
    std::string server_value;
    std::string tp_key;
  };
  std::map<std::string, std::map<uint32_t, size_t>> sightings;
  for (const auto& hit : zmap.scan(internet.zmap_candidates_v4())) {
    scanner::QscanTarget target{hit.address, std::nullopt, hit.versions};
    if (!qscanner.compatible(target)) continue;
    auto result = qscanner.scan_one(target);
    if (result.outcome != scanner::QscanOutcome::kSuccess) continue;
    if (!result.server_header) continue;
    std::string key =
        *result.server_header + " | tp-config " +
        std::to_string(internet::tp_config_id_for(
            result.report.server_transport_params));
    ++sightings[key][registry.asn_for(hit.address)];
  }

  std::printf("(Server header | transport-parameter config) fingerprints "
              "seen in more than 5 ASes:\n\n");
  for (const auto& [fingerprint, by_as] : sightings) {
    if (by_as.size() <= 5) continue;
    size_t total = 0;
    size_t home_as_share = 0;
    uint32_t top_asn = 0;
    for (const auto& [asn, count] : by_as) {
      total += count;
      if (count > home_as_share) {
        home_as_share = count;
        top_asn = asn;
      }
    }
    std::printf("%-40s  %3zu ASes  %4zu hosts  biggest AS: %s\n",
                fingerprint.c_str(), by_as.size(), total,
                registry.name(top_asn).c_str());
  }

  std::printf(
      "\nReading the output: a fingerprint that recurs across dozens of\n"
      "ASes but belongs to one implementation (proxygen-bolt -> mvfst ->\n"
      "Facebook; gvs 1.0 -> Google video serving) marks edge POPs that\n"
      "large providers operate inside other networks. Counting ASes alone\n"
      "(Table 2) would wrongly attribute those deployments to the hosting\n"
      "networks -- the paper's centralization warning.\n");
  return 0;
}
