// Ablation: the connection-level consequences of the 45 transport-
// parameter configurations. The paper's section 5.2 observes that
// "data transmission related parameters vary within multiple orders of
// magnitude" and its section 7 calls for analyzing "the impact of
// different parameters on QUIC connections" -- this bench runs that
// analysis: for every catalog configuration, the bytes a client can
// push before the first flow-control update, and the round trips a
// 1 MiB transfer needs under the advertised windows.
#include <algorithm>
#include <cstdio>

#include "common.h"
#include "internet/tp_catalog.h"
#include "quic/transport_params.h"

namespace {

/// Round trips to deliver `total` bytes when every window refills once
/// per RTT (the most generous server behavior): each RTT moves at most
/// the first-flight budget.
uint64_t rtts_for_transfer(const quic::TransportParameters& params,
                           uint64_t total, uint64_t streams) {
  uint64_t per_rtt = quic::first_flight_budget(params, streams);
  if (per_rtt == 0) return UINT64_MAX;
  return (total + per_rtt - 1) / per_rtt;
}

}  // namespace

int main() {
  bench::print_header(
      "Transport-parameter flow-control ablation over the 45 configs",
      "Section 5.2 / section 7 ('impact of different parameters on QUIC "
      "connections')");

  struct Row {
    int id;
    std::string owner;
    uint64_t budget1;    // single-stream first flight
    uint64_t budget;     // multi-stream first flight
    uint64_t rtts_1mib;  // RTTs for a 1 MiB object on one stream
  };
  std::vector<Row> rows;
  for (const auto& entry : internet::tp_catalog()) {
    Row row;
    row.id = entry.id;
    row.owner = entry.owner_hint;
    row.budget1 = quic::first_flight_budget(entry.params, 1);
    row.budget = quic::first_flight_budget(entry.params, 100);
    quic::TransportParameters one = entry.params;
    row.rtts_1mib = rtts_for_transfer(one, 1 << 20, 1);
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.budget > b.budget; });

  analysis::Table table({"Catalog id", "Owner hint", "1-stream budget",
                         "100-stream budget", "RTTs for 1 MiB"});
  for (const auto& row : rows) {
    table.row({std::to_string(row.id), row.owner,
               analysis::num(row.budget1), analysis::num(row.budget),
               std::to_string(row.rtts_1mib)});
  }
  std::printf("%s\n", table.render().c_str());

  auto& best = rows.front();
  auto& worst = rows.back();
  std::printf(
      "Spread check (paper: 'multiple orders of magnitude'): the most\n"
      "generous config (#%d, %s) admits %s bytes in the first flight; the\n"
      "most conservative (#%d, %s) admits %s -- a factor of %.0fx. A 1 MiB\n"
      "download needs %llu RTT(s) at the top and %llu at the bottom of the\n"
      "table: the configuration a provider ships is a real performance\n"
      "decision, not bookkeeping.\n",
      best.id, best.owner.c_str(), analysis::num(best.budget).c_str(),
      worst.id, worst.owner.c_str(), analysis::num(worst.budget).c_str(),
      static_cast<double>(best.budget) /
          static_cast<double>(std::max<uint64_t>(1, worst.budget)),
      static_cast<unsigned long long>(best.rtts_1mib),
      static_cast<unsigned long long>(worst.rtts_1mib));
  return 0;
}
