// Simulated Internet data plane: UDP datagram delivery with per-host
// link properties (latency, loss, silent drop) and a minimal
// synchronous TCP abstraction for the TLS-over-TCP scanner.
//
// Hosts register services on (address, port), either up front or
// lazily through a resolver the fabric consults on first contact with
// an address. Client sockets deliver datagrams through the shared
// EventLoop so multi-round-trip protocol exchanges (QUIC handshakes)
// and timeouts interleave deterministically.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "netsim/address.h"
#include "netsim/event_loop.h"

namespace netsim {

class Network;

/// Sends datagrams into a network from one endpoint, the way a
/// UdpService answers. A network pointer and an endpoint: the fabric
/// hands one to every delivered datagram without allocating, and a
/// service may keep a copy while the network lives.
class DatagramSender {
 public:
  DatagramSender(Network& network, const Endpoint& from)
      : network_(&network), from_(from) {}
  void operator()(const Endpoint& to, std::vector<uint8_t> payload) const;

 private:
  Network* network_;
  Endpoint from_;
};

/// Server-side UDP handler. `transmit` sends a datagram back into the
/// network from this service's endpoint.
class UdpService {
 public:
  virtual ~UdpService() = default;
  using Transmit = DatagramSender;
  virtual void on_datagram(const Endpoint& from,
                           std::span<const uint8_t> payload,
                           const Transmit& transmit) = 0;
};

/// One accepted TCP connection: byte-in, byte-out, synchronous.
class TcpSession {
 public:
  virtual ~TcpSession() = default;
  /// Consumes client bytes, returns server bytes (possibly empty).
  virtual std::vector<uint8_t> on_data(std::span<const uint8_t> data) = 0;
};

class TcpService {
 public:
  virtual ~TcpService() = default;
  virtual std::unique_ptr<TcpSession> accept(const Endpoint& client) = 0;
};

/// Per-host link behavior knobs. The fields after `silent` form the
/// fault-injection fabric (see impairment.h for the named profiles);
/// they all default to off, and the legacy latency/loss/silent path is
/// byte-for-byte unchanged when they stay off.
struct LinkProperties {
  uint64_t latency_us = 10'000;  // one-way
  double loss = 0.0;             // uniform datagram loss probability
  bool silent = false;           // swallow everything (paper's timeouts)

  // Gilbert-Elliott bursty loss (two-state Markov; starts good).
  double ge_loss_good = 0.0;
  double ge_loss_bad = 0.0;
  double ge_p_good_bad = 0.0;
  double ge_p_bad_good = 0.0;
  // Bounded reordering: hold a datagram back `reorder_extra_us` extra.
  double reorder = 0.0;
  uint64_t reorder_extra_us = 0;
  // Datagram duplication probability.
  double duplicate = 0.0;
  // One-bit payload corruption probability (caught by the AEAD tag).
  double corrupt = 0.0;
  // Uniform extra latency in [0, jitter_us] per datagram.
  uint64_t jitter_us = 0;
  // Token-bucket policer; over-budget datagrams vanish silently.
  double rate_limit_pps = 0.0;
  double rate_burst = 0.0;

  /// True when any fabric impairment is active on this link.
  bool impaired() const {
    return ge_loss_good > 0 || ge_loss_bad > 0 || ge_p_good_bad > 0 ||
           reorder > 0 || duplicate > 0 || corrupt > 0 || jitter_us > 0 ||
           rate_limit_pps > 0;
  }

  bool operator==(const LinkProperties&) const = default;
};

class UdpSocket;

/// The network fabric. Owns routing tables; services and sockets are
/// borrowed (callers keep them alive while the loop runs).
class Network {
 public:
  explicit Network(EventLoop& loop, uint64_t loss_seed = 0x5eed);

  EventLoop& loop() { return loop_; }

  /// Supplies the routing state of an address on first contact: it may
  /// register services on the address and set its link. The fabric
  /// offers each address to the resolver at most once, the first time
  /// it routes to it (send_datagram, tcp_connect, tcp_port_open) or
  /// registers state on it (the add/remove/set calls below), always
  /// before reading that address's link or services. An address the
  /// resolver leaves alone (a sweep dud, a client socket) costs one set
  /// lookup per later use. Until first contact, link() reports the
  /// default link for an address the resolver would configure.
  using Resolver = std::function<void(const IpAddress&)>;
  void set_resolver(Resolver resolver) { resolver_ = std::move(resolver); }

  /// Explicit registrations resolve the address first, so they layer
  /// on top of whatever the resolver supplies, as if it had run up
  /// front.
  void add_udp_service(const Endpoint& at, UdpService* service);
  void remove_udp_service(const Endpoint& at);
  void add_tcp_service(const Endpoint& at, TcpService* service);

  void set_link(const IpAddress& host, const LinkProperties& props);
  const LinkProperties& link(const IpAddress& host) const;

  /// True if a TCP listener exists (a SYN scan hit).
  bool tcp_port_open(const Endpoint& at);

  /// Synchronous TCP connect; nullopt when no listener (RST).
  class TcpConnection {
   public:
    TcpConnection(std::unique_ptr<TcpSession> session, uint64_t rtt_us,
                  EventLoop& loop)
        : session_(std::move(session)), rtt_us_(rtt_us), loop_(loop) {}
    /// One application-level exchange; advances virtual time by one RTT.
    std::vector<uint8_t> exchange(std::span<const uint8_t> data);

   private:
    std::unique_ptr<TcpSession> session_;
    uint64_t rtt_us_;
    EventLoop& loop_;
  };
  std::optional<TcpConnection> tcp_connect(const Endpoint& from,
                                           const Endpoint& to);

  /// Creates a client socket bound to `local`. The socket unregisters
  /// itself on destruction.
  std::unique_ptr<UdpSocket> open_udp(const Endpoint& local);

  /// Datagram injection used by sockets and services.
  void send_datagram(const Endpoint& from, const Endpoint& to,
                     std::vector<uint8_t> payload);

  /// Packet tap: observes every datagram offered to the fabric (before
  /// loss/silent-drop), for tracing and debugging tools.
  using Tap = std::function<void(const Endpoint& from, const Endpoint& to,
                                 std::span<const uint8_t> payload)>;
  void set_tap(Tap tap) { tap_ = std::move(tap); }

  /// Total datagrams offered to the fabric (probe budget accounting).
  uint64_t datagrams_sent() const { return datagrams_sent_; }
  uint64_t bytes_sent() const { return bytes_sent_; }

  /// Attaches fabric accounting (datagrams routed, bytes, drop causes)
  /// to a metrics registry; pass nullptr to detach. Unattached, each
  /// datagram costs a handful of null checks.
  void set_metrics(telemetry::MetricsRegistry* metrics);

 private:
  friend class UdpSocket;
  /// Offers `addr` to the resolver on first contact.
  void resolve(const IpAddress& addr) {
    if (resolver_ && resolved_.insert(addr).second) resolver_(addr);
  }
  void deliver(const Endpoint& from, const Endpoint& to,
               std::vector<uint8_t> payload, bool reordered = false);

  /// Mutable per-link fabric state. The RNG itself is stateless
  /// (counter-based over `seq`); only the Markov loss state and the
  /// token bucket live here.
  struct ImpairState {
    uint64_t seq = 0;       // datagrams seen on this impaired link
    bool ge_bad = false;    // Gilbert-Elliott state
    bool bucket_init = false;
    double tokens = 0.0;
    uint64_t bucket_last_us = 0;
  };

  EventLoop& loop_;
  std::unordered_map<Endpoint, UdpService*, EndpointHash> udp_services_;
  std::unordered_map<Endpoint, UdpSocket*, EndpointHash> udp_sockets_;
  std::unordered_map<Endpoint, TcpService*, EndpointHash> tcp_services_;
  std::unordered_map<IpAddress, LinkProperties, IpAddressHash> links_;
  std::unordered_map<IpAddress, ImpairState, IpAddressHash> impair_state_;
  LinkProperties default_link_{};
  Resolver resolver_;
  std::unordered_set<IpAddress, IpAddressHash> resolved_;
  Tap tap_;
  uint64_t loss_state_;
  uint64_t impair_seed_;
  uint64_t datagrams_sent_ = 0;
  uint64_t bytes_sent_ = 0;
  telemetry::Counter* metric_datagrams_ = nullptr;
  telemetry::Counter* metric_bytes_ = nullptr;
  telemetry::Counter* metric_dropped_silent_ = nullptr;
  telemetry::Counter* metric_dropped_loss_ = nullptr;
  telemetry::Counter* metric_dropped_unrouted_ = nullptr;
  telemetry::Counter* metric_delivered_ = nullptr;
  telemetry::Counter* metric_dropped_rate_limited_ = nullptr;
  telemetry::Counter* metric_dropped_reorder_expired_ = nullptr;
  telemetry::Counter* metric_corrupted_ = nullptr;
  telemetry::Counter* metric_duplicated_ = nullptr;
  telemetry::Counter* metric_reordered_ = nullptr;
};

/// Client-side datagram socket with an async receive callback.
class UdpSocket {
 public:
  using Receiver =
      std::function<void(const Endpoint& from, std::span<const uint8_t>)>;

  UdpSocket(Network& net, const Endpoint& local);
  ~UdpSocket();

  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  const Endpoint& local() const { return local_; }
  void set_receiver(Receiver r) { receiver_ = std::move(r); }
  void send(const Endpoint& to, std::vector<uint8_t> payload);

 private:
  friend class Network;
  void on_datagram(const Endpoint& from, std::span<const uint8_t> payload);

  Network& net_;
  Endpoint local_;
  Receiver receiver_;
};

}  // namespace netsim
