// ServerHost: binds one HostProfile to the simulated network. It owns
// the QUIC side (a quic::ServerConnection per client connection, built
// from a DeploymentBehavior derived from the profile) and the TCP side
// (a tls::TlsServerSession per accepted connection), and implements the
// certificate selection and HTTP responder both paths share -- which is
// exactly what makes the paper's QUIC vs TLS-over-TCP comparison
// (Table 5) meaningful.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>

#include "internet/population.h"
#include "netsim/network.h"
#include "quic/connection.h"
#include "tls/endpoint.h"

namespace internet {

class ServerHost : public netsim::UdpService, public netsim::TcpService {
 public:
  ServerHost(const Population& population, const HostProfile& profile,
             crypto::Rng rng);

  // netsim::UdpService (QUIC on UDP 443)
  void on_datagram(const netsim::Endpoint& from,
                   std::span<const uint8_t> payload,
                   const Transmit& transmit) override;

  // netsim::TcpService (TLS on TCP 443)
  std::unique_ptr<netsim::TcpSession> accept(
      const netsim::Endpoint& client) override;

  const HostProfile& profile() const { return profile_; }

  /// Enables split server handshake flights (see
  /// quic::DeploymentBehavior::max_crypto_chunk). Called by
  /// Internet::apply_impairment for profiles that reorder, so
  /// out-of-order CRYPTO is actually reachable; 0 restores the default
  /// coalesced flight.
  void set_max_crypto_chunk(size_t bytes) { behavior_.max_crypto_chunk = bytes; }

  /// Installs this host's misbehavior plan (see internet/adversary.h).
  /// Called by Internet::apply_adversary; every QUIC session the host
  /// accepts afterwards misbehaves per the plan.
  void set_adversary(const quic::AdversaryPlan& plan) {
    behavior_.adversary = plan;
  }

  /// Certificate selection shared by both stacks. `tcp_path` switches
  /// on the TCP-only behaviors (self-signed no-SNI placeholder,
  /// rotation skew).
  std::optional<tls::Certificate> select_certificate(
      const std::optional<std::string>& sni, bool tcp_path) const;

  /// The HTTP/3 response to a request on QUIC stream 0: 200, or 400 when
  /// the request does not decode as HTTP/3.
  std::string h3_response(const std::string& request) const;
  /// The HTTP/1.1 response over TLS-over-TCP, with the Alt-Svc header.
  std::string http1_response(const std::string& request) const;

 private:
  bool hosts_domain(const std::string& name) const;
  tls::Certificate make_certificate(const std::string& subject,
                                    bool tcp_path) const;

  const Population& population_;
  const HostProfile& profile_;
  crypto::Rng rng_;
  quic::DeploymentBehavior behavior_;
  tls::TlsServerConfig tls_config_;

  // One QUIC connection per (client endpoint, DCID of its first packet).
  struct SessionKey {
    netsim::Endpoint from;
    quic::ConnectionId dcid;
    bool operator==(const SessionKey&) const = default;
  };
  struct SessionHash {
    size_t operator()(const SessionKey& key) const;
  };
  std::unordered_map<SessionKey, std::unique_ptr<quic::ServerConnection>,
                     SessionHash>
      sessions_;
  uint64_t session_counter_ = 0;
};

}  // namespace internet
