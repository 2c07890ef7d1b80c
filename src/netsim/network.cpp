#include "netsim/network.h"

#include <algorithm>
#include <stdexcept>

#include "crypto/rng.h"

namespace netsim {

namespace {

// Counter-based RNG lanes for the fault-injection fabric: one
// independent draw per (link, datagram_seq, decision). Stateless by
// construction, so the n-th datagram on a link gets the same fate no
// matter how shards interleave globally.
enum ImpairLane : uint32_t {
  kLaneLoss = 1,
  kLaneTransition,
  kLaneCorrupt,
  kLaneCorruptBit,
  kLaneJitter,
  kLaneReorder,
  kLaneDuplicate,
};

uint64_t impair_bits(uint64_t seed, uint64_t link_key, uint64_t seq,
                     uint32_t lane) {
  uint64_t state = seed ^ link_key ^ seq * 0x9e3779b97f4a7c15ull ^
                   (static_cast<uint64_t>(lane) + 1) * 0xbf58476d1ce4e5b9ull;
  crypto::splitmix64(state);  // decorrelate the xor-structured key
  return crypto::splitmix64(state);
}

double unit_draw(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

Network::Network(EventLoop& loop, uint64_t loss_seed)
    : loop_(loop),
      loss_state_(loss_seed),
      // Distinct derivation so fabric draws never perturb (or depend
      // on) the legacy shared-stream loss RNG.
      impair_seed_(loss_seed * 0x2545f4914f6cdd1dull ^ 0x0fab51cull) {}

void Network::set_metrics(telemetry::MetricsRegistry* metrics) {
  metric_datagrams_ = telemetry::maybe_counter(metrics, "net.datagrams_sent");
  metric_bytes_ = telemetry::maybe_counter(metrics, "net.bytes_sent");
  metric_dropped_silent_ =
      telemetry::maybe_counter(metrics, "net.dropped_silent");
  metric_dropped_loss_ = telemetry::maybe_counter(metrics, "net.dropped_loss");
  metric_dropped_unrouted_ =
      telemetry::maybe_counter(metrics, "net.dropped_unrouted");
  metric_delivered_ = telemetry::maybe_counter(metrics, "net.delivered");
  metric_dropped_rate_limited_ =
      telemetry::maybe_counter(metrics, "net.dropped_rate_limited");
  metric_dropped_reorder_expired_ =
      telemetry::maybe_counter(metrics, "net.dropped_reorder_expired");
  metric_corrupted_ = telemetry::maybe_counter(metrics, "net.corrupted");
  metric_duplicated_ = telemetry::maybe_counter(metrics, "net.duplicated");
  metric_reordered_ = telemetry::maybe_counter(metrics, "net.reordered");
}

void Network::add_udp_service(const Endpoint& at, UdpService* service) {
  resolve(at.addr);
  udp_services_[at] = service;
}

void Network::remove_udp_service(const Endpoint& at) {
  resolve(at.addr);
  udp_services_.erase(at);
}

void Network::add_tcp_service(const Endpoint& at, TcpService* service) {
  resolve(at.addr);
  tcp_services_[at] = service;
}

void Network::set_link(const IpAddress& host, const LinkProperties& props) {
  resolve(host);
  links_[host] = props;
}

const LinkProperties& Network::link(const IpAddress& host) const {
  auto it = links_.find(host);
  return it == links_.end() ? default_link_ : it->second;
}

bool Network::tcp_port_open(const Endpoint& at) {
  resolve(at.addr);
  return tcp_services_.contains(at) && !link(at.addr).silent;
}

std::vector<uint8_t> Network::TcpConnection::exchange(
    std::span<const uint8_t> data) {
  // Advance virtual time by one round trip; pending events due in that
  // window (e.g. interleaved UDP deliveries) fire in order.
  loop_.run_until(loop_.now_us() + rtt_us_);
  return session_->on_data(data);
}

std::optional<Network::TcpConnection> Network::tcp_connect(
    const Endpoint& from, const Endpoint& to) {
  resolve(to.addr);
  auto it = tcp_services_.find(to);
  if (it == tcp_services_.end()) return std::nullopt;
  const auto& props = link(to.addr);
  if (props.silent) return std::nullopt;
  auto session = it->second->accept(from);
  if (!session) return std::nullopt;
  return TcpConnection(std::move(session), 2 * props.latency_us, loop_);
}

std::unique_ptr<UdpSocket> Network::open_udp(const Endpoint& local) {
  return std::make_unique<UdpSocket>(*this, local);
}

void Network::send_datagram(const Endpoint& from, const Endpoint& to,
                            std::vector<uint8_t> payload) {
  ++datagrams_sent_;
  bytes_sent_ += payload.size();
  telemetry::add(metric_datagrams_);
  telemetry::add(metric_bytes_, payload.size());
  if (tap_) tap_(from, to, payload);
  // The destination's link decides the datagram's fate here, before
  // delivery, so its resolver state must exist now.
  resolve(to.addr);
  const auto& props = link(to.addr);
  if (props.silent) {
    telemetry::add(metric_dropped_silent_);
    return;
  }
  if (props.loss > 0) {
    double draw = static_cast<double>(crypto::splitmix64(loss_state_) >> 11) *
                  0x1.0p-53;
    if (draw < props.loss) {
      telemetry::add(metric_dropped_loss_);
      return;
    }
  }

  // Fault-injection fabric. Impairments configured on either endpoint
  // apply (a profile set on a server host impairs both directions, so
  // reordering can hit its reply flights too); every decision comes
  // from counter-based RNG keyed on (impair seed, impaired link,
  // per-link seq), making the n-th datagram's fate on a link identical
  // at any --jobs K and replayable.
  const LinkProperties* imp = nullptr;
  IpAddress imp_addr;
  if (props.impaired()) {
    imp = &props;
    imp_addr = to.addr;
  } else if (auto it = links_.find(from.addr);
             it != links_.end() && it->second.impaired()) {
    imp = &it->second;
    imp_addr = from.addr;
  }
  uint64_t delay_us = props.latency_us;
  bool reordered = false;
  if (imp) {
    auto& state = impair_state_[imp_addr];
    const uint64_t key = address_key64(imp_addr);
    const uint64_t seq = state.seq++;
    auto bits = [&](uint32_t lane) {
      return impair_bits(impair_seed_, key, seq, lane);
    };
    auto draw = [&](uint32_t lane) { return unit_draw(bits(lane)); };

    if (imp->rate_limit_pps > 0) {
      // Token bucket seeded full at first sight of the link and
      // refilled from elapsed virtual time: decisions depend only on
      // the link's inter-datagram spacing, never the absolute clock
      // (which differs across shard counts).
      const uint64_t now = loop_.now_us();
      const double burst = std::max(1.0, imp->rate_burst);
      if (!state.bucket_init) {
        state.bucket_init = true;
        state.tokens = burst;
      } else {
        state.tokens = std::min(
            burst, state.tokens +
                       static_cast<double>(now - state.bucket_last_us) *
                           imp->rate_limit_pps * 1e-6);
      }
      state.bucket_last_us = now;
      if (state.tokens < 1.0) {
        telemetry::add(metric_dropped_rate_limited_);
        return;
      }
      state.tokens -= 1.0;
    }

    if (imp->ge_loss_good > 0 || imp->ge_loss_bad > 0 ||
        imp->ge_p_good_bad > 0) {
      const bool was_bad = state.ge_bad;
      const double loss_rate = was_bad ? imp->ge_loss_bad : imp->ge_loss_good;
      const bool lost = loss_rate > 0 && draw(kLaneLoss) < loss_rate;
      // The state transition is drawn whether or not this datagram
      // survived, keeping the chain's dynamics loss-independent.
      const double flip = was_bad ? imp->ge_p_bad_good : imp->ge_p_good_bad;
      if (flip > 0 && draw(kLaneTransition) < flip) state.ge_bad = !was_bad;
      if (lost) {
        telemetry::add(metric_dropped_loss_);
        return;
      }
    }

    if (imp->corrupt > 0 && !payload.empty() &&
        draw(kLaneCorrupt) < imp->corrupt) {
      const uint64_t r = bits(kLaneCorruptBit);
      payload[r % payload.size()] ^=
          static_cast<uint8_t>(1u << ((r >> 32) % 8));
      telemetry::add(metric_corrupted_);
    }

    if (imp->jitter_us > 0)
      delay_us += bits(kLaneJitter) % (imp->jitter_us + 1);

    if (imp->reorder > 0 && draw(kLaneReorder) < imp->reorder) {
      delay_us += imp->reorder_extra_us;
      reordered = true;
      telemetry::add(metric_reordered_);
    }

    if (imp->duplicate > 0 && draw(kLaneDuplicate) < imp->duplicate) {
      telemetry::add(metric_duplicated_);
      loop_.schedule_in(delay_us,
                        [this, from, to, payload, reordered]() mutable {
                          deliver(from, to, std::move(payload), reordered);
                        });
    }
  }

  loop_.schedule_in(
      delay_us,
      [this, from, to, payload = std::move(payload), reordered]() mutable {
        deliver(from, to, std::move(payload), reordered);
      });
}

void Network::deliver(const Endpoint& from, const Endpoint& to,
                      std::vector<uint8_t> payload, bool reordered) {
  if (auto it = udp_sockets_.find(to); it != udp_sockets_.end()) {
    telemetry::add(metric_delivered_);
    it->second->on_datagram(from, payload);
    return;
  }
  if (auto it = udp_services_.find(to); it != udp_services_.end()) {
    telemetry::add(metric_delivered_);
    it->second->on_datagram(from, payload, DatagramSender(*this, to));
    return;
  }
  // No listener: datagram silently dropped, as on the real Internet
  // (ICMP unreachable is not modeled; scanners classify by timeout).
  // A reordered datagram outliving its attempt's socket is a distinct,
  // expected cause and gets its own counter.
  if (reordered)
    telemetry::add(metric_dropped_reorder_expired_);
  else
    telemetry::add(metric_dropped_unrouted_);
}

void DatagramSender::operator()(const Endpoint& to,
                                std::vector<uint8_t> payload) const {
  network_->send_datagram(from_, to, std::move(payload));
}

UdpSocket::UdpSocket(Network& net, const Endpoint& local)
    : net_(net), local_(local) {
  auto [it, inserted] = net_.udp_sockets_.emplace(local, this);
  if (!inserted) throw std::logic_error("UdpSocket: endpoint already bound");
}

UdpSocket::~UdpSocket() { net_.udp_sockets_.erase(local_); }

void UdpSocket::send(const Endpoint& to, std::vector<uint8_t> payload) {
  net_.send_datagram(local_, to, std::move(payload));
}

void UdpSocket::on_datagram(const Endpoint& from,
                            std::span<const uint8_t> payload) {
  if (receiver_) receiver_(from, payload);
}

}  // namespace netsim
