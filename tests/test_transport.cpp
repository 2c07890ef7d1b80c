// Transport-parameter tests: the first-flight budget (RFC 9000 section
// 4) that the transport-parameter ablation (bench/ablation_tp_flow)
// reports per catalog configuration.
#include <gtest/gtest.h>

#include <array>

#include "internet/tp_catalog.h"
#include "quic/transport_params.h"

namespace {

using namespace quic;

TransportParameters small_params() {
  TransportParameters tp;
  tp.initial_max_data = 1000;
  tp.initial_max_stream_data_bidi_remote = 400;
  tp.initial_max_streams_bidi = 2;
  return tp;
}

TEST(FlowControl, FirstFlightBudgetMatchesHandComputation) {
  // 2 bidi streams x 400 B capped by 1000 B connection window -> 800.
  EXPECT_EQ(first_flight_budget(small_params(), 10), 800u);
  // One stream only: 400.
  EXPECT_EQ(first_flight_budget(small_params(), 1), 400u);
}

TEST(FlowControl, CloudflareCatalogBudget) {
  // Catalog config 0: 10 MiB connection window, 1 MiB per stream, 100
  // streams -> the connection window binds at 10 MiB.
  const auto& cf = internet::tp_catalog()[internet::kTpConfigCloudflare];
  EXPECT_EQ(first_flight_budget(cf.params, 100), 10485760u);
  // With a single stream, the stream window binds.
  EXPECT_EQ(first_flight_budget(cf.params, 1), 1048576u);
}

TEST(FlowControl, CatalogBudgetsMatchStreamByStreamAccounting) {
  // {1-stream, 100-stream} budgets of every catalog configuration, as
  // computed by opening streams one at a time and sending on each the
  // least of its window and the connection credit left.
  constexpr std::array<std::array<uint64_t, 2>, 45> kExpected = {{
      {1048576, 10485760}, {10485760, 16777216}, {10485760, 16777216},
      {67584, 1048576},    {67584, 1048576},     {6291456, 15728640},
      {6291456, 15728640}, {65536, 1572864},     {131072, 3145728},
      {131072, 1048576},   {262144, 2097152},    {524288, 4194304},
      {1048576, 8388608},  {65536, 2097152},     {131072, 524288},
      {262144, 262144},    {524288, 1048576},    {1048576, 2097152},
      {65536, 1048576},    {131072, 4194304},    {262144, 12582912},
      {524288, 524288},    {262144, 262144},     {65536, 1048576},
      {131072, 2097152},   {262144, 4194304},    {524288, 786432},
      {8192, 8192},        {32768, 65536},       {65536, 131072},
      {131072, 262144},    {262144, 524288},     {524288, 1048576},
      {1048576, 2097152},  {2097152, 4194304},   {4194304, 8388608},
      {10485760, 16777216}, {98304, 786432},     {196608, 1572864},
      {393216, 3145728},   {786432, 6291456},    {1572864, 12582912},
      {49152, 245760},     {98304, 491520},      {196608, 983040},
  }};
  const auto& catalog = internet::tp_catalog();
  ASSERT_EQ(catalog.size(), kExpected.size());
  for (size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_EQ(first_flight_budget(catalog[i].params, 1), kExpected[i][0])
        << "config " << catalog[i].id;
    EXPECT_EQ(first_flight_budget(catalog[i].params, 100), kExpected[i][1])
        << "config " << catalog[i].id;
  }
}

TEST(FlowControl, FirstFlightBudgetEdgeCases) {
  EXPECT_EQ(first_flight_budget(small_params(), 0), 0u);
  TransportParameters no_data = small_params();
  no_data.initial_max_data = 0;
  EXPECT_EQ(first_flight_budget(no_data, 10), 0u);
  // The largest varint window on every stream: the stream total
  // saturates instead of wrapping (101 x (2^62 - 1) wraps to
  // 2^62 - 101), so the connection window binds.
  TransportParameters huge;
  huge.initial_max_data = wire::kVarintMax;
  huge.initial_max_stream_data_bidi_remote = wire::kVarintMax;
  huge.initial_max_streams_bidi = 1000;
  EXPECT_EQ(first_flight_budget(huge, 100), wire::kVarintMax);
  EXPECT_EQ(first_flight_budget(huge, 101), wire::kVarintMax);
}

}  // namespace
