// Network simulator tests: address parsing/formatting, prefixes,
// virtual-time event loop, datagram delivery, link failure modes.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "netsim/address.h"
#include "netsim/event_loop.h"
#include "netsim/impairment.h"
#include "netsim/network.h"
#include "telemetry/metrics.h"

using netsim::Endpoint;
using netsim::IpAddress;
using netsim::Prefix;

namespace {

TEST(IpAddress, V4ParseFormat) {
  auto a = IpAddress::parse("192.168.1.200");
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(a->is_v4());
  EXPECT_EQ(a->v4_value(), 0xc0a801c8u);
  EXPECT_EQ(a->to_string(), "192.168.1.200");
}

TEST(IpAddress, V4RejectsMalformed) {
  EXPECT_FALSE(IpAddress::parse("1.2.3").has_value());
  EXPECT_FALSE(IpAddress::parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(IpAddress::parse("1.2.3.256").has_value());
  EXPECT_FALSE(IpAddress::parse("a.b.c.d").has_value());
  EXPECT_FALSE(IpAddress::parse("").has_value());
}

TEST(IpAddress, V6ParseFormat) {
  auto a = IpAddress::parse("2001:db8::1");
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(a->is_v6());
  EXPECT_EQ(a->v6_hi(), 0x20010db800000000ull);
  EXPECT_EQ(a->v6_lo(), 1ull);
  EXPECT_EQ(a->to_string(), "2001:db8::1");
}

TEST(IpAddress, V6ZeroCompression) {
  EXPECT_EQ(IpAddress::v6(0, 0).to_string(), "::");
  EXPECT_EQ(IpAddress::v6(0, 1).to_string(), "::1");
  EXPECT_EQ(IpAddress::parse("::")->v6_lo(), 0u);
  EXPECT_EQ(IpAddress::parse("::1")->v6_lo(), 1u);
  // Longest zero run is compressed.
  auto a = IpAddress::parse("2606:4700:0:0:0:0:0:1111");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->to_string(), "2606:4700::1111");
}

TEST(IpAddress, V6RejectsMalformed) {
  EXPECT_FALSE(IpAddress::parse("2001:db8::1::2").has_value());
  EXPECT_FALSE(IpAddress::parse("1:2:3:4:5:6:7").has_value());
  EXPECT_FALSE(IpAddress::parse("1:2:3:4:5:6:7:8:9").has_value());
  EXPECT_FALSE(IpAddress::parse("20011:db8::1").has_value());
}

TEST(IpAddress, RoundTripThroughText) {
  for (const char* text :
       {"0.0.0.0", "255.255.255.255", "104.16.0.1", "2606:4700::", "::ffff",
        "fe80::1:2:3:4", "2001:db8:1:2:3:4:5:6"}) {
    auto a = IpAddress::parse(text);
    ASSERT_TRUE(a.has_value()) << text;
    auto b = IpAddress::parse(a->to_string());
    ASSERT_TRUE(b.has_value()) << text;
    EXPECT_EQ(*a, *b) << text;
  }
}

TEST(Prefix, V4Contains) {
  auto p = Prefix::parse("104.16.0.0/12");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->contains(*IpAddress::parse("104.16.0.1")));
  EXPECT_TRUE(p->contains(*IpAddress::parse("104.31.255.255")));
  EXPECT_FALSE(p->contains(*IpAddress::parse("104.32.0.0")));
  EXPECT_FALSE(p->contains(*IpAddress::parse("103.255.255.255")));
  EXPECT_FALSE(p->contains(*IpAddress::parse("2001:db8::1")));
}

TEST(Prefix, V6Contains) {
  auto p = Prefix::parse("2606:4700::/32");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->contains(*IpAddress::parse("2606:4700::1")));
  EXPECT_TRUE(p->contains(*IpAddress::parse("2606:4700:ffff::")));
  EXPECT_FALSE(p->contains(*IpAddress::parse("2606:4701::")));
}

TEST(Prefix, HostEnumeration) {
  auto p = Prefix::parse("10.0.0.0/24");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->host_count(), 256u);
  EXPECT_EQ(p->host_at(0).to_string(), "10.0.0.0");
  EXPECT_EQ(p->host_at(255).to_string(), "10.0.0.255");
  EXPECT_THROW(p->host_at(256), std::out_of_range);
}

TEST(Prefix, ZeroLengthContainsEverything) {
  auto p = Prefix::parse("0.0.0.0/0");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->contains(*IpAddress::parse("1.2.3.4")));
  EXPECT_TRUE(p->contains(*IpAddress::parse("255.0.0.1")));
}

TEST(EventLoop, RunsInTimeOrder) {
  netsim::EventLoop loop;
  std::vector<int> order;
  loop.schedule_in(300, [&] { order.push_back(3); });
  loop.schedule_in(100, [&] { order.push_back(1); });
  loop.schedule_in(200, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now_us(), 300u);
}

TEST(EventLoop, SameTimeFiresInScheduleOrder) {
  netsim::EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    loop.schedule_in(100, [&order, i] { order.push_back(i); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, CancelPreventsFiring) {
  netsim::EventLoop loop;
  bool fired = false;
  auto id = loop.schedule_in(100, [&] { fired = true; });
  loop.cancel(id);
  loop.run();
  EXPECT_FALSE(fired);
}

TEST(EventLoop, NestedScheduling) {
  netsim::EventLoop loop;
  uint64_t fired_at = 0;
  loop.schedule_in(100, [&] {
    loop.schedule_in(50, [&] { fired_at = loop.now_us(); });
  });
  loop.run();
  EXPECT_EQ(fired_at, 150u);
}

TEST(EventLoop, RunUntilAdvancesClockWhenIdle) {
  netsim::EventLoop loop;
  loop.run_until(5000);
  EXPECT_EQ(loop.now_us(), 5000u);
}

class EchoService : public netsim::UdpService {
 public:
  void on_datagram(const Endpoint& from, std::span<const uint8_t> payload,
                   const Transmit& transmit) override {
    std::vector<uint8_t> reply(payload.begin(), payload.end());
    std::reverse(reply.begin(), reply.end());
    transmit(from, std::move(reply));
  }
};

TEST(Network, UdpRoundTrip) {
  netsim::EventLoop loop;
  netsim::Network net(loop);
  EchoService echo;
  Endpoint server{*IpAddress::parse("10.0.0.1"), 443};
  net.add_udp_service(server, &echo);

  auto sock = net.open_udp({*IpAddress::parse("192.0.2.1"), 5000});
  std::vector<uint8_t> got;
  sock->set_receiver([&](const Endpoint&, std::span<const uint8_t> data) {
    got.assign(data.begin(), data.end());
  });
  sock->send(server, {1, 2, 3});
  loop.run();
  EXPECT_EQ(got, (std::vector<uint8_t>{3, 2, 1}));
  EXPECT_EQ(loop.now_us(), 20'000u);  // two one-way default latencies
  EXPECT_EQ(net.datagrams_sent(), 2u);
}

TEST(Network, SilentLinkSwallowsDatagrams) {
  netsim::EventLoop loop;
  netsim::Network net(loop);
  EchoService echo;
  Endpoint server{*IpAddress::parse("10.0.0.1"), 443};
  net.add_udp_service(server, &echo);
  net.set_link(server.addr, {.latency_us = 10, .silent = true});

  auto sock = net.open_udp({*IpAddress::parse("192.0.2.1"), 5000});
  bool received = false;
  sock->set_receiver(
      [&](const Endpoint&, std::span<const uint8_t>) { received = true; });
  sock->send(server, {1});
  loop.run();
  EXPECT_FALSE(received);
}

TEST(Network, NoListenerDropsSilently) {
  netsim::EventLoop loop;
  netsim::Network net(loop);
  auto sock = net.open_udp({*IpAddress::parse("192.0.2.1"), 5000});
  bool received = false;
  sock->set_receiver(
      [&](const Endpoint&, std::span<const uint8_t>) { received = true; });
  sock->send({*IpAddress::parse("10.9.9.9"), 443}, {1});
  loop.run();
  EXPECT_FALSE(received);
}

TEST(Network, FullLossDropsEverything) {
  netsim::EventLoop loop;
  netsim::Network net(loop);
  EchoService echo;
  Endpoint server{*IpAddress::parse("10.0.0.1"), 443};
  net.add_udp_service(server, &echo);
  net.set_link(server.addr,
               {.latency_us = 10,
                .impairment = {.ge_loss_good = 1.0, .ge_loss_bad = 1.0}});
  auto sock = net.open_udp({*IpAddress::parse("192.0.2.1"), 5000});
  bool received = false;
  sock->set_receiver(
      [&](const Endpoint&, std::span<const uint8_t>) { received = true; });
  for (int i = 0; i < 10; ++i) sock->send(server, {1});
  loop.run();
  EXPECT_FALSE(received);
}

class GreeterTcp : public netsim::TcpService {
 public:
  class Session : public netsim::TcpSession {
   public:
    std::vector<uint8_t> on_data(std::span<const uint8_t> data) override {
      std::string in(data.begin(), data.end());
      std::string out = "hello " + in;
      return {out.begin(), out.end()};
    }
  };
  std::unique_ptr<netsim::TcpSession> accept(const Endpoint&) override {
    return std::make_unique<Session>();
  }
};

TEST(Network, TcpConnectAndExchange) {
  netsim::EventLoop loop;
  netsim::Network net(loop);
  GreeterTcp service;
  Endpoint server{*IpAddress::parse("10.0.0.2"), 443};
  net.add_tcp_service(server, &service);

  EXPECT_TRUE(net.tcp_port_open(server));
  EXPECT_FALSE(net.tcp_port_open({server.addr, 80}));

  auto conn = net.tcp_connect({*IpAddress::parse("192.0.2.1"), 40000}, server);
  ASSERT_TRUE(conn.has_value());
  std::string msg = "world";
  auto reply = conn->exchange({reinterpret_cast<const uint8_t*>(msg.data()),
                               msg.size()});
  EXPECT_EQ(std::string(reply.begin(), reply.end()), "hello world");
  EXPECT_GT(loop.now_us(), 0u);
}

TEST(Network, TcpConnectToClosedPortFails) {
  netsim::EventLoop loop;
  netsim::Network net(loop);
  auto conn = net.tcp_connect({*IpAddress::parse("192.0.2.1"), 40000},
                              {*IpAddress::parse("10.0.0.3"), 443});
  EXPECT_FALSE(conn.has_value());
}

TEST(Network, LossRateIsApproximatelyHonored) {
  netsim::EventLoop loop;
  netsim::Network net(loop);
  EchoService echo;
  Endpoint server{*IpAddress::parse("10.0.0.7"), 443};
  net.add_udp_service(server, &echo);
  net.set_link(server.addr,
               {.latency_us = 10,
                .impairment = {.ge_loss_good = 0.5, .ge_loss_bad = 0.5}});
  auto sock = net.open_udp({*IpAddress::parse("192.0.2.9"), 5001});
  int received = 0;
  sock->set_receiver(
      [&](const Endpoint&, std::span<const uint8_t>) { ++received; });
  const int kProbes = 2000;
  for (int i = 0; i < kProbes; ++i) sock->send(server, {1});
  loop.run();
  // Both directions traverse the lossy link: expected delivery 25 %.
  EXPECT_GT(received, kProbes / 8);
  EXPECT_LT(received, kProbes / 2);
}

TEST(Network, TapSeesEveryDatagramIncludingDropped) {
  netsim::EventLoop loop;
  netsim::Network net(loop);
  EchoService echo;
  Endpoint server{*IpAddress::parse("10.0.0.8"), 443};
  net.add_udp_service(server, &echo);
  net.set_link(server.addr, {.latency_us = 10, .silent = true});
  size_t tapped = 0;
  net.set_tap([&](const Endpoint&, const Endpoint&,
                  std::span<const uint8_t>) { ++tapped; });
  auto sock = net.open_udp({*IpAddress::parse("192.0.2.9"), 5002});
  for (int i = 0; i < 5; ++i) sock->send(server, {1});
  loop.run();
  EXPECT_EQ(tapped, 5u);  // silent drop happens after the tap
}

TEST(EventLoop, CancelFromWithinCallback) {
  netsim::EventLoop loop;
  bool second_fired = false;
  netsim::TimerId second = 0;
  loop.schedule_in(10, [&] { loop.cancel(second); });
  second = loop.schedule_in(20, [&] { second_fired = true; });
  loop.run();
  EXPECT_FALSE(second_fired);
}

TEST(EventLoop, StaleIdDoesNotCancelRecycledSlot) {
  // After a timer fires, its slot is recycled with a bumped generation;
  // cancelling with the old id must be a no-op on the new occupant.
  netsim::EventLoop loop;
  auto stale = loop.schedule_in(10, [] {});
  loop.run();
  bool fired = false;
  loop.schedule_in(10, [&] { fired = true; });  // reuses the freed slot
  loop.cancel(stale);
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_TRUE(fired);
}

TEST(EventLoop, DoubleCancelIsIdempotent) {
  netsim::EventLoop loop;
  auto id = loop.schedule_in(10, [] {});
  EXPECT_EQ(loop.pending(), 1u);
  loop.cancel(id);
  EXPECT_EQ(loop.pending(), 0u);
  loop.cancel(id);  // second cancel must not underflow pending()
  EXPECT_EQ(loop.pending(), 0u);
  loop.run();
  EXPECT_EQ(loop.now_us(), 0u);  // cancelled events never advance time
}

TEST(EventLoop, CancelledTombstonesDoNotAdvanceClock) {
  netsim::EventLoop loop;
  std::vector<netsim::TimerId> ids;
  for (int i = 0; i < 64; ++i)
    ids.push_back(loop.schedule_in(100 + i, [] { FAIL(); }));
  for (auto id : ids) loop.cancel(id);
  EXPECT_EQ(loop.pending(), 0u);
  loop.run();
  EXPECT_EQ(loop.now_us(), 0u);
}

TEST(SmallCallback, InlineAndHeapCallablesBothRun) {
  int hits = 0;
  netsim::SmallCallback small([&hits] { ++hits; });
  small();
  // Force the heap fallback with captures far beyond the inline budget.
  std::array<uint64_t, 32> big{};
  big[0] = 1;
  netsim::SmallCallback large([&hits, big] { hits += static_cast<int>(big[0]); });
  netsim::SmallCallback moved = std::move(large);
  moved();
  EXPECT_EQ(hits, 2);
}

TEST(SmallCallback, ResetReleasesCapturedResources) {
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  netsim::SmallCallback cb([token] { (void)*token; });
  token.reset();
  EXPECT_FALSE(watch.expired());
  cb.reset();  // what EventLoop::cancel does: destroy the callable now
  EXPECT_TRUE(watch.expired());
}

// --- Differential: heap-based loop vs a reference map implementation ---
//
// The reference replicates the pre-hotpath EventLoop exactly: two
// std::maps keyed by (time, id) with eager cancellation. The heap loop
// must match its fire order (including the same-time scheduling-order
// guarantee), virtual clock and pending() accounting on randomized
// schedule/cancel/run interleavings.
class ReferenceEventLoop {
 public:
  uint64_t now_us() const { return now_us_; }

  uint64_t schedule_at(uint64_t at_us, std::function<void()> fn) {
    if (at_us < now_us_) at_us = now_us_;
    uint64_t id = next_id_++;
    queue_.emplace(std::make_pair(at_us, id), std::move(fn));
    id_to_time_.emplace(id, at_us);
    return id;
  }

  uint64_t schedule_in(uint64_t delay_us, std::function<void()> fn) {
    return schedule_at(now_us_ + delay_us, std::move(fn));
  }

  void cancel(uint64_t id) {
    auto it = id_to_time_.find(id);
    if (it == id_to_time_.end()) return;
    queue_.erase({it->second, id});
    id_to_time_.erase(it);
  }

  void run_until(uint64_t limit_us) {
    while (!queue_.empty()) {
      auto it = queue_.begin();
      if (it->first.first > limit_us) {
        now_us_ = limit_us;
        return;
      }
      auto fn = std::move(it->second);
      now_us_ = it->first.first;
      id_to_time_.erase(it->first.second);
      queue_.erase(it);
      fn();
    }
    // Queue drained before the limit: clock still advances to the limit.
    if (limit_us != UINT64_MAX && limit_us > now_us_) now_us_ = limit_us;
  }

  size_t pending() const { return queue_.size(); }

 private:
  std::map<std::pair<uint64_t, uint64_t>, std::function<void()>> queue_;
  std::map<uint64_t, uint64_t> id_to_time_;
  uint64_t now_us_ = 0;
  uint64_t next_id_ = 1;
};

TEST(EventLoopDifferential, RandomizedScheduleCancelRunMatchesReference) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    netsim::EventLoop heap_loop;
    ReferenceEventLoop map_loop;
    // Parallel handles for the same logical timer in both worlds.
    std::vector<std::pair<netsim::TimerId, uint64_t>> handles;
    // Fire logs: (label, virtual time) per firing.
    std::vector<std::pair<int, uint64_t>> heap_log, map_log;
    int next_label = 0;

    // A firing callback with label % 5 == 0 schedules a nested timer
    // (parameters derived from the label so both worlds agree) --
    // exercising schedule-from-within-callback on both sides.
    auto make_heap_fn = [&](int label) {
      return [&, label] {
        heap_log.push_back({label, heap_loop.now_us()});
        if (label % 5 == 0)
          heap_loop.schedule_in(1 + label % 97, [&, label] {
            heap_log.push_back({label + 1'000'000, heap_loop.now_us()});
          });
      };
    };
    auto make_map_fn = [&](int label) {
      return [&, label] {
        map_log.push_back({label, map_loop.now_us()});
        if (label % 5 == 0)
          map_loop.schedule_in(1 + label % 97, [&, label] {
            map_log.push_back({label + 1'000'000, map_loop.now_us()});
          });
      };
    };

    for (int step = 0; step < 3000; ++step) {
      uint64_t op = rng() % 100;
      if (op < 55) {
        // Coarse delay grid so same-time collisions are common.
        uint64_t delay = (rng() % 40) * 10;
        int label = next_label++;
        handles.push_back({heap_loop.schedule_in(delay, make_heap_fn(label)),
                           map_loop.schedule_in(delay, make_map_fn(label))});
      } else if (op < 80 && !handles.empty()) {
        // Cancel a random handle: sometimes live, sometimes already
        // fired or already cancelled (both must no-op identically).
        auto& h = handles[rng() % handles.size()];
        heap_loop.cancel(h.first);
        map_loop.cancel(h.second);
      } else if (op < 95) {
        uint64_t limit = heap_loop.now_us() + rng() % 200;
        heap_loop.run_until(limit);
        map_loop.run_until(limit);
      } else {
        heap_loop.run_until(heap_loop.now_us());  // drain overdue only
        map_loop.run_until(map_loop.now_us());
      }
      ASSERT_EQ(heap_loop.pending(), map_loop.pending())
          << "seed " << seed << " step " << step;
      ASSERT_EQ(heap_loop.now_us(), map_loop.now_us())
          << "seed " << seed << " step " << step;
      ASSERT_EQ(heap_log, map_log) << "seed " << seed << " step " << step;
    }
    heap_loop.run();
    map_loop.run_until(UINT64_MAX);
    EXPECT_EQ(heap_log, map_log) << "seed " << seed;
    EXPECT_EQ(heap_loop.pending(), map_loop.pending()) << "seed " << seed;
    EXPECT_EQ(heap_loop.now_us(), map_loop.now_us()) << "seed " << seed;
    EXPECT_FALSE(heap_log.empty());
  }
}

// ---------------------------------------------------------------------
// Fault-injection fabric (impairment.h / LinkProperties::impairment).

uint64_t counter_value(const telemetry::MetricsRegistry& metrics,
                       const std::string& name) {
  const auto* counter = metrics.find_counter(name);
  return counter ? counter->value() : 0;
}

TEST(Impairment, NamedProfileLookup) {
  for (auto name : netsim::impairment_profile_names()) {
    const auto* profile = netsim::find_impairment_profile(name);
    ASSERT_NE(profile, nullptr) << name;
    EXPECT_EQ(profile->name, name);
  }
  EXPECT_EQ(netsim::find_impairment_profile("nope"), nullptr);
  const auto* clean = netsim::find_impairment_profile("clean");
  ASSERT_NE(clean, nullptr);
  EXPECT_TRUE(clean->is_clean());
  for (const char* name : {"lossy", "bursty", "hostile", "throttled"})
    EXPECT_FALSE(netsim::find_impairment_profile(name)->is_clean()) << name;
}

TEST(Impairment, ApplyPreservesLatencyAndLegacyLoss) {
  netsim::LinkProperties props;
  props.latency_us = 1234;
  props.impairment = netsim::find_impairment_profile("hostile")->impairment;
  EXPECT_EQ(props.latency_us, 1234u);
  EXPECT_TRUE(props.impairment.active());
  // A clean overlay turns the fabric back off without touching the
  // latency.
  props.impairment = netsim::find_impairment_profile("clean")->impairment;
  EXPECT_FALSE(props.impairment.active());
  EXPECT_EQ(props.latency_us, 1234u);
}

TEST(Network, DropCauseAccountingCoversSilentLossUnrouted) {
  netsim::EventLoop loop;
  netsim::Network net(loop);
  telemetry::MetricsRegistry metrics;
  net.set_metrics(&metrics);
  EchoService echo;
  Endpoint silent_server{*IpAddress::parse("10.1.0.1"), 443};
  net.add_udp_service(silent_server, &echo);
  net.set_link(silent_server.addr,
               {.latency_us = 10, .silent = true});
  Endpoint lossy_server{*IpAddress::parse("10.1.0.2"), 443};
  net.add_udp_service(lossy_server, &echo);
  net.set_link(lossy_server.addr,
               {.latency_us = 10,
                .impairment = {.ge_loss_good = 1.0, .ge_loss_bad = 1.0}});

  auto sock = net.open_udp({*IpAddress::parse("192.0.2.30"), 6000});
  sock->set_receiver([](const Endpoint&, std::span<const uint8_t>) {});
  sock->send(silent_server, {1});
  sock->send(lossy_server, {2});
  sock->send({*IpAddress::parse("10.1.0.99"), 443}, {3});  // no listener
  loop.run();
  EXPECT_EQ(counter_value(metrics, "net.datagrams_sent"), 3u);
  EXPECT_EQ(counter_value(metrics, "net.dropped_silent"), 1u);
  EXPECT_EQ(counter_value(metrics, "net.dropped_loss"), 1u);
  EXPECT_EQ(counter_value(metrics, "net.dropped_unrouted"), 1u);
  EXPECT_EQ(counter_value(metrics, "net.delivered"), 0u);
}

TEST(Network, TokenBucketRateLimiterDropsOverBudget) {
  netsim::EventLoop loop;
  netsim::Network net(loop);
  telemetry::MetricsRegistry metrics;
  net.set_metrics(&metrics);
  EchoService echo;
  Endpoint server{*IpAddress::parse("10.2.0.1"), 443};
  net.add_udp_service(server, &echo);
  netsim::LinkProperties props;
  props.latency_us = 10;
  props.impairment.rate_limit_pps = 100.0;  // one token per 10ms
  props.impairment.rate_burst = 2.0;
  net.set_link(server.addr, props);

  auto sock = net.open_udp({*IpAddress::parse("192.0.2.31"), 6001});
  int received = 0;
  sock->set_receiver(
      [&](const Endpoint&, std::span<const uint8_t>) { ++received; });
  // A same-instant burst of 10: only the 2-token burst passes. The
  // echo replies also cross the impaired link and spend tokens, so
  // just assert the policer bit both directions.
  for (int i = 0; i < 10; ++i) sock->send(server, {1});
  loop.run();
  EXPECT_GE(counter_value(metrics, "net.dropped_rate_limited"), 8u);
  EXPECT_LE(received, 2);
  // After a long idle gap the bucket refills up to the burst.
  loop.run_until(loop.now_us() + 1'000'000);
  uint64_t dropped_before =
      counter_value(metrics, "net.dropped_rate_limited");
  sock->send(server, {2});
  loop.run();
  EXPECT_EQ(counter_value(metrics, "net.dropped_rate_limited"),
            dropped_before);
}

TEST(Network, GilbertElliottLossTracksConfiguredRates) {
  netsim::EventLoop loop;
  netsim::Network net(loop);
  telemetry::MetricsRegistry metrics;
  net.set_metrics(&metrics);
  // Sink service: no replies, so only the forward direction draws.
  class Sink : public netsim::UdpService {
   public:
    void on_datagram(const Endpoint&, std::span<const uint8_t>,
                     const Transmit&) override {}
  } sink;
  Endpoint server{*IpAddress::parse("10.2.0.2"), 443};
  net.add_udp_service(server, &sink);
  netsim::LinkProperties props;
  props.latency_us = 10;
  props.impairment.ge_loss_good = 0.01;
  props.impairment.ge_loss_bad = 0.6;
  props.impairment.ge_p_good_bad = 0.05;
  props.impairment.ge_p_bad_good = 0.25;
  net.set_link(server.addr, props);

  auto sock = net.open_udp({*IpAddress::parse("192.0.2.32"), 6002});
  const int kProbes = 5000;
  for (int i = 0; i < kProbes; ++i) sock->send(server, {1});
  loop.run();
  // Stationary bad-state share = 0.05/(0.05+0.25) = 1/6, mean loss
  // = (5/6)*0.01 + (1/6)*0.6 ~ 10.8 %. Allow generous slack.
  uint64_t lost = counter_value(metrics, "net.dropped_loss");
  EXPECT_GT(lost, kProbes * 5 / 100);
  EXPECT_LT(lost, kProbes * 20 / 100);
  EXPECT_EQ(lost + counter_value(metrics, "net.delivered"),
            static_cast<uint64_t>(kProbes));
}

TEST(Network, CorruptionFlipsExactlyOneBit) {
  netsim::EventLoop loop;
  netsim::Network net(loop);
  telemetry::MetricsRegistry metrics;
  net.set_metrics(&metrics);
  class Capture : public netsim::UdpService {
   public:
    std::vector<std::vector<uint8_t>> got;
    void on_datagram(const Endpoint&, std::span<const uint8_t> payload,
                     const Transmit&) override {
      got.emplace_back(payload.begin(), payload.end());
    }
  } capture;
  Endpoint server{*IpAddress::parse("10.2.0.3"), 443};
  net.add_udp_service(server, &capture);
  netsim::LinkProperties props;
  props.latency_us = 10;
  props.impairment.corrupt = 1.0;
  net.set_link(server.addr, props);

  auto sock = net.open_udp({*IpAddress::parse("192.0.2.33"), 6003});
  const std::vector<uint8_t> sent{0x00, 0xff, 0x5a, 0xa5};
  for (int i = 0; i < 20; ++i) sock->send(server, sent);
  loop.run();
  ASSERT_EQ(capture.got.size(), 20u);
  EXPECT_EQ(counter_value(metrics, "net.corrupted"), 20u);
  for (const auto& got : capture.got) {
    ASSERT_EQ(got.size(), sent.size());
    int flipped_bits = 0;
    for (size_t i = 0; i < sent.size(); ++i)
      flipped_bits += __builtin_popcount(got[i] ^ sent[i]);
    EXPECT_EQ(flipped_bits, 1);
  }
}

TEST(Network, DuplicationDeliversTwice) {
  netsim::EventLoop loop;
  netsim::Network net(loop);
  telemetry::MetricsRegistry metrics;
  net.set_metrics(&metrics);
  class Count : public netsim::UdpService {
   public:
    int got = 0;
    void on_datagram(const Endpoint&, std::span<const uint8_t>,
                     const Transmit&) override {
      ++got;
    }
  } count;
  Endpoint server{*IpAddress::parse("10.2.0.4"), 443};
  net.add_udp_service(server, &count);
  netsim::LinkProperties props;
  props.latency_us = 10;
  props.impairment.duplicate = 1.0;
  net.set_link(server.addr, props);

  auto sock = net.open_udp({*IpAddress::parse("192.0.2.34"), 6004});
  sock->send(server, {7});
  loop.run();
  EXPECT_EQ(count.got, 2);
  EXPECT_EQ(counter_value(metrics, "net.duplicated"), 1u);
  EXPECT_EQ(counter_value(metrics, "net.delivered"), 2u);
}

TEST(Network, ReorderExpiredDropHasItsOwnCause) {
  netsim::EventLoop loop;
  netsim::Network net(loop);
  telemetry::MetricsRegistry metrics;
  net.set_metrics(&metrics);
  EchoService echo;
  Endpoint server{*IpAddress::parse("10.2.0.5"), 443};
  net.add_udp_service(server, &echo);
  netsim::LinkProperties props;
  props.latency_us = 10;
  props.impairment.reorder = 1.0;
  props.impairment.reorder_extra_us = 50'000;  // held back 50ms
  net.set_link(server.addr, props);

  auto sock = net.open_udp({*IpAddress::parse("192.0.2.35"), 6005});
  int received = 0;
  sock->set_receiver(
      [&](const Endpoint&, std::span<const uint8_t>) { ++received; });
  sock->send(server, {1});
  // Let the request reach the server and the (also reordered) reply
  // enter flight, then close the socket before the reply lands -- the
  // classic reordered-past-its-attempt datagram.
  loop.run_until(loop.now_us() + 60'100);
  sock.reset();
  loop.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(counter_value(metrics, "net.reordered"), 2u);  // both legs
  EXPECT_EQ(counter_value(metrics, "net.dropped_reorder_expired"), 1u);
  EXPECT_EQ(counter_value(metrics, "net.dropped_unrouted"), 0u);
}

TEST(Network, ImpairmentAppliesToBothDirections) {
  // The profile lives on the server's link only, but replies from the
  // server must pass the same pipeline (imp lookup falls back to the
  // sender's link).
  netsim::EventLoop loop;
  netsim::Network net(loop);
  telemetry::MetricsRegistry metrics;
  net.set_metrics(&metrics);
  EchoService echo;
  Endpoint server{*IpAddress::parse("10.2.0.6"), 443};
  net.add_udp_service(server, &echo);
  netsim::LinkProperties props;
  props.latency_us = 10;
  props.impairment.corrupt = 1.0;
  net.set_link(server.addr, props);

  auto sock = net.open_udp({*IpAddress::parse("192.0.2.36"), 6006});
  sock->set_receiver([](const Endpoint&, std::span<const uint8_t>) {});
  sock->send(server, {0x00, 0x00});
  loop.run();
  // Request corrupted on the way in, reply corrupted on the way out.
  EXPECT_EQ(counter_value(metrics, "net.corrupted"), 2u);
}

TEST(Network, ImpairmentIsDeterministicAcrossRuns) {
  auto run = [] {
    netsim::EventLoop loop;
    netsim::Network net(loop, 0x5eed);
    EchoService echo;
    Endpoint server{*IpAddress::parse("10.2.0.7"), 443};
    net.add_udp_service(server, &echo);
    netsim::LinkProperties props;
    props.latency_us = 10;
    props.impairment = netsim::find_impairment_profile("hostile")->impairment;
    net.set_link(server.addr, props);

    auto sock = net.open_udp({*IpAddress::parse("192.0.2.37"), 6007});
    std::vector<std::pair<uint64_t, std::vector<uint8_t>>> log;
    sock->set_receiver(
        [&](const Endpoint&, std::span<const uint8_t> payload) {
          log.emplace_back(loop.now_us(),
                           std::vector<uint8_t>(payload.begin(),
                                                payload.end()));
        });
    for (uint8_t i = 0; i < 100; ++i) sock->send(server, {i, 0x5a});
    loop.run();
    return log;
  };
  auto first = run();
  auto second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(Network, LossyLinkUntouchedByImpairedNeighborTraffic) {
  // A lossy link's draws must not depend on traffic over impaired links
  // elsewhere in the fabric -- otherwise enabling a profile on one host
  // would perturb another host's loss pattern.
  auto run = [](bool with_impaired_neighbor) {
    netsim::EventLoop loop;
    netsim::Network net(loop, 0xfeed);
    EchoService echo;
    Endpoint lossy{*IpAddress::parse("10.2.0.8"), 443};
    net.add_udp_service(lossy, &echo);
    net.set_link(lossy.addr,
                 {.latency_us = 10,
                  .impairment = {.ge_loss_good = 0.5, .ge_loss_bad = 0.5}});
    Endpoint neighbor{*IpAddress::parse("10.2.0.9"), 443};
    if (with_impaired_neighbor) {
      netsim::LinkProperties props;
      props.latency_us = 10;
      props.impairment =
          netsim::find_impairment_profile("hostile")->impairment;
      net.set_link(neighbor.addr, props);
    }
    auto sock = net.open_udp({*IpAddress::parse("192.0.2.38"), 6008});
    std::vector<uint64_t> arrivals;
    sock->set_receiver([&](const Endpoint&, std::span<const uint8_t>) {
      arrivals.push_back(loop.now_us());
    });
    for (int i = 0; i < 200; ++i) {
      sock->send(lossy, {1});
      // Interleaved traffic across the (possibly) impaired link: its
      // draws are keyed on its own link, never on the lossy one's.
      if (with_impaired_neighbor) sock->send(neighbor, {2});
    }
    loop.run();
    return arrivals;
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
