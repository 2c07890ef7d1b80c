// Transport-internals tests: flow control windows (RFC 9000 section 4),
// the model behind the transport-parameter ablation (bench/ablation_tp_flow).
#include <gtest/gtest.h>

#include "internet/tp_catalog.h"
#include "quic/flow_control.h"

namespace {

using namespace quic;

/// --- Flow control ----------------------------------------------------

TransportParameters small_params() {
  TransportParameters tp;
  tp.initial_max_data = 1000;
  tp.initial_max_stream_data_bidi_remote = 400;
  tp.initial_max_stream_data_uni = 100;
  tp.initial_max_streams_bidi = 2;
  tp.initial_max_streams_uni = 1;
  return tp;
}

TEST(FlowControl, StreamAndConnectionLimitsInteract) {
  ConnectionFlowController controller(small_params());
  auto s0 = controller.open_bidi_stream();
  ASSERT_TRUE(s0.has_value());
  EXPECT_EQ(*s0, 0u);
  // Stream window (400) binds before the connection window (1000).
  EXPECT_EQ(controller.sendable_on(*s0), 400u);
  EXPECT_EQ(controller.send_on(*s0, 1000), 400u);
  EXPECT_EQ(controller.connection_available(), 600u);

  auto s1 = controller.open_bidi_stream();
  ASSERT_TRUE(s1.has_value());
  EXPECT_EQ(*s1, 4u);  // client bidi ids step by 4
  EXPECT_EQ(controller.send_on(*s1, 1000), 400u);
  // Connection window now binds: 1000 - 800 = 200 left.
  EXPECT_EQ(controller.connection_available(), 200u);

  // Stream concurrency limit.
  EXPECT_FALSE(controller.open_bidi_stream().has_value());
}

TEST(FlowControl, MaxDataRaisesOnlyUpward) {
  ConnectionFlowController controller(small_params());
  auto s0 = controller.open_bidi_stream();
  controller.send_on(*s0, 400);
  controller.on_max_stream_data(*s0, 500);
  EXPECT_EQ(controller.sendable_on(*s0), 100u);
  controller.on_max_stream_data(*s0, 300);  // shrink attempt: ignored
  EXPECT_EQ(controller.sendable_on(*s0), 100u);
  controller.on_max_data(2000);
  EXPECT_EQ(controller.connection_available(), 1600u);
}

TEST(FlowControl, UniStreamsUseUniLimits) {
  ConnectionFlowController controller(small_params());
  auto u = controller.open_uni_stream();
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(*u, 2u);
  EXPECT_EQ(controller.send_on(*u, 1000), 100u);
  EXPECT_FALSE(controller.open_uni_stream().has_value());
}

TEST(FlowControl, FirstFlightBudgetMatchesHandComputation) {
  // 2 bidi streams x 400 B capped by 1000 B connection window -> 800.
  EXPECT_EQ(ConnectionFlowController::first_flight_budget(small_params(), 10),
            800u);
  // One stream only: 400.
  EXPECT_EQ(ConnectionFlowController::first_flight_budget(small_params(), 1),
            400u);
}

TEST(FlowControl, CloudflareCatalogBudget) {
  // Catalog config 0: 10 MiB connection window, 1 MiB per stream, 100
  // streams -> the connection window binds at 10 MiB.
  const auto& cf = internet::tp_catalog()[internet::kTpConfigCloudflare];
  EXPECT_EQ(ConnectionFlowController::first_flight_budget(cf.params, 100),
            10485760u);
  // With a single stream, the stream window binds.
  EXPECT_EQ(ConnectionFlowController::first_flight_budget(cf.params, 1),
            1048576u);
}

TEST(FlowControl, WindowViolationDetection) {
  FlowWindow window(100);
  EXPECT_FALSE(window.would_violate(100));
  EXPECT_TRUE(window.would_violate(101));
  window.consume(60);
  EXPECT_TRUE(window.would_violate(41));
  EXPECT_FALSE(window.would_violate(40));
}

}  // namespace
