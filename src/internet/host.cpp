#include "internet/host.h"

#include "http/alt_svc.h"
#include "http/h3.h"
#include "http/message.h"
#include "quic/packet.h"

namespace internet {

ServerHost::ServerHost(const Population& population,
                       const HostProfile& profile, crypto::Rng rng)
    : population_(population), profile_(profile), rng_(std::move(rng)) {
  behavior_.handshake_versions = profile_.handshake_versions;
  behavior_.advertised_versions = profile_.advertised_versions;
  behavior_.respond_to_version_negotiation = profile_.respond_to_vn;
  behavior_.require_padding = profile_.require_padding;
  behavior_.stall_handshake = profile_.stall_handshake;
  behavior_.stall_without_sni = profile_.stall_without_sni;
  behavior_.require_retry = profile_.require_retry;
  behavior_.always_handshake_failure =
      profile_.sni_policy == SniPolicy::kAlwaysFail;
  behavior_.handshake_failure_reason = profile_.alert_message;
  behavior_.alpn = profile_.quic_alpn;
  behavior_.transport_params = tp_catalog()[static_cast<size_t>(
                                                profile_.tp_config)]
                                   .params;
  behavior_.select_certificate =
      [this](const std::optional<std::string>& sni) {
        return select_certificate(sni, /*tcp_path=*/false);
      };
  behavior_.http_responder = [this](const std::string& request) {
    return h3_response(request);
  };

  tls_config_.max_version = profile_.tls_max_version;
  tls_config_.echo_sni = profile_.tcp_echo_sni;
  tls_config_.alpn_without_sni = profile_.tcp_alpn_without_sni;
  tls_config_.alpn = {"h2", "http/1.1"};
  tls_config_.select_certificate =
      [this](const std::optional<std::string>& sni) {
        return select_certificate(sni, /*tcp_path=*/true);
      };
  tls_config_.http_responder = [this](const std::string& request) {
    return http1_response(request);
  };
}

bool ServerHost::hosts_domain(const std::string& name) const {
  const auto* domain = population_.domain_by_name(name);
  return domain && profile_.domain_ids.contains(domain->id);
}

tls::Certificate ServerHost::make_certificate(const std::string& subject,
                                              bool tcp_path) const {
  tls::Certificate cert;
  cert.subject_cn = subject;
  cert.san_dns = {subject};
  cert.issuer_cn = "Sim Trust Services CA 1C3";
  int week = population_.week();
  // Weekly rotation (Google, section 5.1) -- and the scan-delay skew
  // where the TCP scan still sees last week's certificate.
  int rotation = profile_.cert_rotates_weekly
                     ? (tcp_path && profile_.cert_skew ? week - 1 : week)
                     : 0;
  cert.serial =
      crypto::fnv1a64(subject) ^ static_cast<uint64_t>(rotation) << 48;
  cert.not_before_day = static_cast<uint32_t>(18600 + 7 * rotation);
  cert.not_after_day = cert.not_before_day + 90;
  cert.public_key_id = crypto::fnv1a64(profile_.group);
  std::vector<uint8_t> ca_key{0x51, 0x55, 0x49, 0x43};  // simulation CA
  tls::sign_certificate(cert, ca_key);
  return cert;
}

std::optional<tls::Certificate> ServerHost::select_certificate(
    const std::optional<std::string>& sni, bool tcp_path) const {
  if (profile_.sni_policy == SniPolicy::kAlwaysFail && !tcp_path)
    return std::nullopt;
  if (sni && (hosts_domain(*sni) || *sni == profile_.default_domain))
    return make_certificate(*sni, tcp_path);
  if (sni) {
    // Unknown SNI: vhost-style deployments reject it outright.
    if (profile_.sni_policy == SniPolicy::kKnownOnly || tcp_path)
      return std::nullopt;
  }
  // No SNI (or an unknown one at a default-cert deployment).
  if (tcp_path && !sni &&
      profile_.tcp_no_sni_cert == TcpNoSniCert::kSelfSigned) {
    tls::Certificate cert;
    cert.subject_cn = "invalid2.invalid";
    cert.issuer_cn = "invalid2.invalid";
    cert.serial = 1;
    cert.public_key_id = crypto::fnv1a64(profile_.group);
    tls::sign_certificate(cert, std::vector<uint8_t>{0});
    return cert;
  }
  if (profile_.sni_policy == SniPolicy::kDefaultCert ||
      (tcp_path && !profile_.default_domain.empty())) {
    if (profile_.default_domain.empty()) return std::nullopt;
    return make_certificate(profile_.default_domain, tcp_path);
  }
  if (tcp_path && profile_.sni_policy == SniPolicy::kAlwaysFail &&
      !profile_.default_domain.empty())
    return make_certificate(profile_.default_domain, tcp_path);
  return std::nullopt;
}

std::string ServerHost::h3_response(const std::string& request) const {
  std::span<const uint8_t> raw{
      reinterpret_cast<const uint8_t*>(request.data()), request.size()};
  http::h3::Response response;
  response.status = http::h3::decode_request(raw) ? 200 : 400;
  if (!profile_.server_value.empty())
    response.headers.add("server", profile_.server_value);
  response.headers.add("content-length", "0");
  auto bytes = http::h3::encode_response(response);
  return {bytes.begin(), bytes.end()};
}

std::string ServerHost::http1_response(const std::string& request) const {
  auto parsed = http::Request::parse(request);
  http::Response response;
  response.status = parsed ? 200 : 400;
  response.reason = parsed ? "OK" : "Bad Request";
  if (!profile_.server_value.empty())
    response.headers.add("Server", profile_.server_value);
  if (!profile_.alt_svc_alpn.empty()) {
    std::vector<http::AltSvcEntry> entries;
    for (const auto& token : profile_.alt_svc_alpn)
      entries.push_back({token, "", 443, 86400});
    response.headers.add("Alt-Svc", http::format_alt_svc(entries));
  }
  response.headers.add("Content-Length", "0");
  return response.serialize();
}

size_t ServerHost::SessionHash::operator()(const SessionKey& key) const {
  const std::string_view dcid(reinterpret_cast<const char*>(key.dcid.data()),
                              key.dcid.size());
  return netsim::EndpointHash{}(key.from) * 31 +
         static_cast<size_t>(crypto::fnv1a64(dcid));
}

void ServerHost::on_datagram(const netsim::Endpoint& from,
                             std::span<const uint8_t> payload,
                             const Transmit& transmit) {
  auto info = quic::peek_datagram(payload);
  if (!info) return;
  SessionKey key{from, std::move(info->dcid)};
  auto it = sessions_.find(key);
  if (it == sessions_.end()) {
    // New connections start with a long-header packet; stray short-
    // header datagrams for unknown connections are dropped.
    if (!info->long_header) return;
    auto session = std::make_unique<quic::ServerConnection>(
        behavior_, rng_.fork("conn" + std::to_string(session_counter_++)),
        [transmit, from](std::vector<uint8_t> datagram) {
          transmit(from, std::move(datagram));
        });
    it = sessions_.emplace(std::move(key), std::move(session)).first;
  }
  if (profile_.broken_transport) {
    // Minimal conformance: a garbage CONNECTION_CLOSE-ish reply that the
    // scanner classifies as a transport error. Still answers VN.
    if (info->version != 0 &&
        std::find(profile_.handshake_versions.begin(),
                  profile_.handshake_versions.end(),
                  info->version) != profile_.handshake_versions.end()) {
      // Protected close with PROTOCOL_VIOLATION at the Initial level.
      quic::PacketSpaces spaces(/*is_server=*/true);
      spaces.start(info->version, it->first.dcid);
      spaces.set_cids(info->scid, it->first.dcid);
      spaces.next_header(quic::PacketType::kInitial);
      quic::encode_frame(spaces.frames(),
                         quic::ConnectionCloseFrame{quic::kProtocolViolation,
                                                    false, 0x06,
                                                    "internal error"});
      transmit(from, spaces.seal());
      sessions_.erase(it);
      return;
    }
  }
  it->second->on_datagram(payload);
  if (it->second->closed()) sessions_.erase(it);
}

namespace {

/// Adapts TlsServerSession to the netsim TCP interface.
class TcpTlsSession : public netsim::TcpSession {
 public:
  TcpTlsSession(const tls::TlsServerConfig& config, crypto::Rng rng)
      : session_(config, std::move(rng)) {}
  std::vector<uint8_t> on_data(std::span<const uint8_t> data) override {
    return session_.on_data(data);
  }

 private:
  tls::TlsServerSession session_;
};

}  // namespace

std::unique_ptr<netsim::TcpSession> ServerHost::accept(
    const netsim::Endpoint& client) {
  return std::make_unique<TcpTlsSession>(
      tls_config_, rng_.fork("tcp" + client.to_string() +
                             std::to_string(session_counter_++)));
}

}  // namespace internet
