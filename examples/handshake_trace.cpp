// Handshake trace: an annotated, Figure-2-style ladder diagram of a
// real QUIC handshake against a simulated deployment -- including the
// optional Version Negotiation round the figure shows (the client first
// offers a version the server does not speak). The ladder is rebuilt
// from the connection's own telemetry trace (src/telemetry/): the same
// packet_sent / packet_received events qscanner_cli --qlog records,
// captured here in a MemorySink. The raw JSON-Lines rendering is
// printed afterwards.
//
//   ./build/examples/handshake_trace
#include <cstdio>
#include <iostream>
#include <memory>

#include "internet/internet.h"
#include "scanner/qscanner.h"
#include "telemetry/trace.h"

int main() {
  netsim::EventLoop loop;
  internet::Internet internet({.dns_corpus_scale = 0.01}, 18, loop);
  const auto& pop = internet.population();

  // A Fastly host: speaks draft-29 only (so offering v1 triggers the
  // figure's Version Negotiation round) *and* demands a Retry.
  const internet::HostProfile* host = nullptr;
  const internet::DomainInfo* domain = nullptr;
  for (const auto& d : pop.domains()) {
    if (d.v4_hosts.empty()) continue;
    const auto& h = pop.hosts()[d.v4_hosts[0]];
    if (h.group == "fastly" && pop.serves(h.id, d)) {
      host = &h;
      domain = &d;
      break;
    }
  }
  if (!host) return 1;

  // Capture the attempt's qlog events in memory. QScanner asks the
  // factory for one sink per attempt; hand it a proxy so the events
  // stay readable after the scan returns.
  auto trace = std::make_shared<telemetry::MemorySink>();
  scanner::QscanOptions options;
  // Offer v1 first: Fastly only speaks draft-29/27, forcing the
  // optional Version Negotiation round from Figure 2.
  options.supported_versions = {quic::kVersion1, quic::kDraft29};
  options.trace_factory =
      [trace](const std::string&) -> std::unique_ptr<telemetry::TraceSink> {
    struct Proxy : telemetry::TraceSink {
      std::shared_ptr<telemetry::MemorySink> target;
      void on_event(const telemetry::TraceEvent& event) override {
        target->on_event(event);
      }
    };
    auto proxy = std::make_unique<Proxy>();
    proxy->target = trace;
    return proxy;
  };
  scanner::QScanner qscanner(internet.network(), options);
  auto result = qscanner.scan_one({host->address, domain->name,
                                   {quic::kVersion1}});

  std::printf("Scanner                                              %s\n",
              host->address.to_string().c_str());
  std::printf("  |                                                    |\n");
  for (const auto& event : trace->events()) {
    const telemetry::Value* type = event.find("packet_type");
    char line[128];
    if (event.type == telemetry::EventType::kPacketSent && type) {
      const auto* size = event.find("size");
      std::snprintf(line, sizeof line, "%s[%llu B]", type->str.c_str(),
                    static_cast<unsigned long long>(size ? size->num : 0));
      std::printf("  |---- %-42s ---->|\n", line);
    } else if (event.type == telemetry::EventType::kPacketReceived && type) {
      const auto* size = event.find("size");
      std::snprintf(line, sizeof line, "%s[%llu B]", type->str.c_str(),
                    static_cast<unsigned long long>(size ? size->num : 0));
      std::printf("  |<--- %-42s -----|\n", line);
    } else if (event.type == telemetry::EventType::kVersionNegotiation) {
      const auto* versions = event.find("server_versions");
      std::snprintf(line, sizeof line, "  (server speaks: %s)",
                    versions ? versions->str.c_str() : "?");
      std::printf("  |     %-42s      |\n", line);
    } else if (event.type == telemetry::EventType::kRetry) {
      std::printf("  |     %-42s      |\n", "  (address validation Retry)");
    }
  }
  std::printf("  |                                                    |\n");
  std::printf("outcome: %s, version %s, retry=%s, alpn=%s, server='%s'\n",
              scanner::to_string(result.outcome).c_str(),
              quic::version_name(result.report.negotiated_version).c_str(),
              result.report.retry_used ? "yes" : "no",
              result.report.tls.selected_alpn.value_or("-").c_str(),
              result.server_header.value_or("-").c_str());

  std::printf("\nThe same trace as qlog JSON-Lines (qscanner_cli --qlog):\n");
  for (const auto& event : trace->events())
    telemetry::write_json_line(std::cout, event);

  std::printf(
      "\nCompare with the paper's Figure 2: Initial[CRYPTO[CH], PADDING],\n"
      "the optional Version Negotiation, the server's Initial[SH] +\n"
      "Handshake[EE, CERT, CV, FIN] flight, the client's Finished, and the\n"
      "1-RTT exchange carrying HANDSHAKE_DONE and the HTTP/3 request.\n");
  return 0;
}
