#include "report/fingerprint.h"

#include "internet/tp_catalog.h"

namespace report {

std::string library_for_owner(const std::string& owner_hint) {
  if (owner_hint == "cloudflare") return "quiche";
  if (owner_hint == "mvfst-as" || owner_hint == "mvfst-pop") return "mvfst";
  if (owner_hint == "gvs" || owner_hint == "google-frontend")
    return "google-quic";
  if (owner_hint == "litespeed") return "lsquic";
  if (owner_hint == "nginx") return "nginx-quic";
  if (owner_hint == "caddy") return "quic-go";
  if (owner_hint == "misc") return "custom";
  return kUnknownLibrary;
}

Fingerprint fingerprint_of(const quic::TransportParameters& tp) {
  return fingerprint_of_config(internet::tp_config_id_for(tp));
}

Fingerprint fingerprint_of_config(int config_id) {
  const auto& catalog = internet::tp_catalog();
  if (config_id < 0 || static_cast<size_t>(config_id) >= catalog.size())
    return Fingerprint{};
  const auto& entry = catalog[static_cast<size_t>(config_id)];
  return Fingerprint{entry.id, library_for_owner(entry.owner_hint)};
}

}  // namespace report
