#include "testbed/testbed.hpp"

#include <gtest/gtest.h>

namespace iotls::testbed {
namespace {

constexpr common::SimDate kActiveDate{2021, 3, 15};

// The testbed is expensive (root stores for 32+ devices); share it.
Testbed& shared_testbed() {
  static Testbed testbed;
  return testbed;
}

TEST(TestbedTest, InstantiatesActiveDevices) {
  EXPECT_EQ(shared_testbed().device_names().size(), 32u);
  EXPECT_NO_THROW((void)shared_testbed().runtime("Roku TV"));
  EXPECT_THROW((void)shared_testbed().runtime("Ring Doorbell"),
               std::out_of_range);  // passive-only
}

TEST(TestbedTest, BootEstablishesLegitimateConnections) {
  shared_testbed().set_date(kActiveDate);
  auto result = shared_testbed().plug("Nest Thermostat").power_cycle(
      kActiveDate);
  ASSERT_EQ(result.connections.size(), 3u);
  for (const auto& conn : result.connections) {
    EXPECT_TRUE(conn.final_result().success())
        << conn.destination->hostname << ": "
        << tls::outcome_name(conn.final_result().outcome);
  }
}

TEST(TestbedTest, EveryActiveDeviceBootsCleanly) {
  // §4.1: all 32 devices in active experiments generated at least one TLS
  // connection — with no interceptor, every boot connection must succeed.
  shared_testbed().set_date(kActiveDate);
  for (const auto& name : shared_testbed().device_names()) {
    auto result = shared_testbed().plug(name).power_cycle(kActiveDate);
    ASSERT_FALSE(result.connections.empty()) << name;
    EXPECT_EQ(result.successes(), static_cast<int>(result.connections.size()))
        << name;
  }
}

TEST(TestbedTest, CaptureGatewayRecordsBoots) {
  Testbed::Options opts;
  opts.seed = 777;
  Testbed local(opts);
  local.set_date(kActiveDate);
  (void)local.plug("Wemo Plug").power_cycle(kActiveDate);
  const auto& records = local.network().capture().records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].device, "Wemo Plug");
  EXPECT_EQ(records[1].device, "Wemo Plug");
  EXPECT_NE(records[0].destination, records[1].destination);
}

TEST(TestbedTest, WemoNegotiatesTls10) {
  shared_testbed().set_date(kActiveDate);
  auto result = shared_testbed().plug("Wemo Plug").power_cycle(kActiveDate);
  for (const auto& conn : result.connections) {
    ASSERT_TRUE(conn.final_result().success());
    EXPECT_EQ(conn.final_result().negotiated_version,
              tls::ProtocolVersion::Tls1_0);
  }
}

TEST(TestbedTest, SamsungFridgeEstablishesTls11) {
  // Fig 1: advertises 1.2, servers stop at 1.1.
  shared_testbed().set_date(kActiveDate);
  auto result =
      shared_testbed().plug("Samsung Fridge").power_cycle(kActiveDate);
  for (const auto& conn : result.connections) {
    ASSERT_TRUE(conn.final_result().success());
    // The OTA helper instance is capped at 1.1; the main stack advertises
    // 1.2 — but *every* connection lands on 1.1 (server-limited, Fig 1).
    if (conn.destination->instance_id == "samsung-fridge") {
      EXPECT_EQ(conn.final_result().hello.max_advertised_version(),
                tls::ProtocolVersion::Tls1_2);
    }
    EXPECT_EQ(conn.final_result().negotiated_version,
              tls::ProtocolVersion::Tls1_1);
  }
}

TEST(TestbedTest, WinkCloudEstablishes3Des) {
  // Fig 2: one of only two insecure-establishing flows in the study.
  shared_testbed().set_date(kActiveDate);
  auto result = shared_testbed().plug("Wink Hub 2").power_cycle(kActiveDate);
  bool saw_3des = false;
  for (const auto& conn : result.connections) {
    if (conn.destination->hostname == "cloud.wink-sim.com") {
      ASSERT_TRUE(conn.final_result().success());
      EXPECT_EQ(conn.final_result().negotiated_suite,
                tls::TLS_RSA_WITH_3DES_EDE_CBC_SHA);
      saw_3des = true;
    }
  }
  EXPECT_TRUE(saw_3des);
}

TEST(TestbedTest, IntermittentDestinationsOnlyWithFlag) {
  Testbed::Options opts;
  opts.seed = 778;
  Testbed local(opts);
  local.set_date(kActiveDate);
  const auto without =
      local.plug("Amazon Echo Spot").power_cycle(kActiveDate, false);
  const auto with =
      local.plug("Amazon Echo Spot").power_cycle(kActiveDate, true);
  EXPECT_EQ(without.connections.size(), 15u);  // Table 5 total
  EXPECT_EQ(with.connections.size(), 17u);     // Table 7 total
}

TEST(TestbedTest, StaplingDeviceRequestsStapleSomewhere) {
  shared_testbed().set_date(kActiveDate);
  auto result = shared_testbed().plug("LG TV").power_cycle(kActiveDate);
  ASSERT_FALSE(result.connections.empty());
  const bool any_staple = std::any_of(
      result.connections.begin(), result.connections.end(),
      [](const ConnectionOutcome& c) {
        return c.result.hello.requests_ocsp_stapling();
      });
  EXPECT_TRUE(any_staple);  // Table 8: LG TV supports OCSP stapling
}

TEST(TestbedTest, CloudPolicyTable) {
  const auto ring = CloudFarm::domain_policy("svc00.ring-sim.com");
  ASSERT_TRUE(ring.pfs_adoption.has_value());
  EXPECT_EQ(*ring.pfs_adoption, (common::Month{2018, 4}));  // Fig 3

  const auto washer = CloudFarm::domain_policy("svc00.washer.samsung-sim.com");
  EXPECT_EQ(washer.max_version, tls::ProtocolVersion::Tls1_1);

  const auto tv = CloudFarm::domain_policy("svc00.tv.samsung-sim.com");
  EXPECT_EQ(tv.max_version, tls::ProtocolVersion::Tls1_2);

  const auto wink = CloudFarm::domain_policy("cloud.wink-sim.com");
  EXPECT_EQ(wink.preferred_suite, tls::TLS_RSA_WITH_3DES_EDE_CBC_SHA);
}

TEST(TestbedTest, CloudServerConfigEvolvesOverTime) {
  Testbed::Options opts;
  opts.seed = 779;
  Testbed local(opts);

  local.set_date(common::SimDate{2018, 2, 1});
  const auto early = local.cloud().server_config("svc00.ring-sim.com");
  local.set_date(common::SimDate{2019, 2, 1});
  const auto late = local.cloud().server_config("svc00.ring-sim.com");
  // Fig 3: Ring's endpoints move ECDHE to the front in 4/2018.
  EXPECT_FALSE(tls::suite_is_strong(early.cipher_suites.front()));
  EXPECT_TRUE(tls::suite_is_strong(late.cipher_suites.front()));
}

TEST(TestbedTest, PlugCountsCycles) {
  Testbed::Options opts;
  opts.seed = 780;
  Testbed local(opts);
  local.set_date(kActiveDate);
  auto& plug = local.plug("GE Microwave");
  EXPECT_EQ(plug.cycle_count(), 0);
  (void)plug.power_cycle(kActiveDate);
  (void)plug.power_cycle(kActiveDate);
  EXPECT_EQ(plug.cycle_count(), 2);
  EXPECT_TRUE(plug.powered());
}

}  // namespace
}  // namespace iotls::testbed
