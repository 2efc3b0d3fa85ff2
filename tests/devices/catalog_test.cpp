#include "devices/catalog.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "fingerprint/fingerprint.hpp"

namespace iotls::devices {
namespace {

TEST(Catalog, FortyDevicesInSixCategories) {
  const auto& catalog = device_catalog();
  EXPECT_EQ(catalog.size(), 40u);  // Table 1

  std::map<std::string, int> per_category;
  for (const auto& d : catalog) per_category[d.category]++;
  EXPECT_EQ(per_category.size(), 6u);
  EXPECT_EQ(per_category["Cameras"], 7);      // Table 1 column counts
  EXPECT_EQ(per_category["Smart Hubs"], 7);
  EXPECT_EQ(per_category["Home Automation"], 7);
  EXPECT_EQ(per_category["TV"], 5);
  EXPECT_EQ(per_category["Audio"], 7);
  EXPECT_EQ(per_category["Appliances"], 7);
}

TEST(Catalog, ThirtyTwoActiveDevices) {
  EXPECT_EQ(active_devices().size(), 32u);  // §4.1
  EXPECT_EQ(device_catalog().size(), 40u);  // every device is passive
}

TEST(Catalog, UniqueNamesAndSeeds) {
  std::set<std::string> names;
  std::set<std::uint64_t> seeds;
  for (const auto& d : device_catalog()) {
    EXPECT_TRUE(names.insert(d.name).second) << d.name;
    EXPECT_TRUE(seeds.insert(d.seed).second) << d.name;
  }
}

TEST(Catalog, EveryDeviceHasInstancesAndDestinations) {
  for (const auto& d : device_catalog()) {
    EXPECT_FALSE(d.instances.empty()) << d.name;
    EXPECT_FALSE(d.destinations.empty()) << d.name;
    for (const auto& dest : d.destinations) {
      EXPECT_NO_THROW((void)d.instance_for_destination(dest))
          << d.name << " -> " << dest.hostname;
    }
  }
}

TEST(Catalog, PassiveCoverageAtLeastSixMonths) {
  // §4.1: every device generated traffic ≥6 months; 32 devices >12 months.
  int over_12 = 0;
  for (const auto& d : device_catalog()) {
    const int months = d.passive_end_offset - d.passive_start_offset + 1;
    EXPECT_GE(months, 6) << d.name;
    if (months > 12) ++over_12;
  }
  EXPECT_GE(over_12, 32);
}

TEST(Catalog, FindDevice) {
  EXPECT_NE(find_device("Roku TV"), nullptr);
  EXPECT_EQ(find_device("Roku TV")->category, "TV");
  EXPECT_EQ(find_device("Nonexistent"), nullptr);
}

TEST(Catalog, PaperNamedNonValidatingDevices) {
  // Table 7: seven devices perform no validation at all on their
  // vulnerable paths.
  for (const char* name :
       {"Zmodo Doorbell", "Amcrest Camera", "Smarter iKettle"}) {
    const auto* d = find_device(name);
    ASSERT_NE(d, nullptr) << name;
    EXPECT_FALSE(d->any_validation()) << name;
  }
  // Wink Hub 2 / LG TV / Smartthings validate on *some* instances.
  for (const char* name : {"Wink Hub 2", "LG TV", "Smartthings Hub"}) {
    const auto* d = find_device(name);
    ASSERT_NE(d, nullptr) << name;
    EXPECT_TRUE(d->any_validation()) << name;
  }
}

TEST(Catalog, YiCameraDisableThreshold) {
  const auto* yi = find_device("Yi Camera");
  ASSERT_NE(yi, nullptr);
  EXPECT_EQ(yi->disable_validation_after_failures, 3);  // §5.2
  EXPECT_TRUE(yi->any_validation());
}

TEST(Catalog, Table5FallbackDevices) {
  const std::set<std::string> expected = {
      "Amazon Echo Dot", "Amazon Echo Plus", "Amazon Echo Spot",
      "Fire TV",         "Apple HomePod",    "Google Home Mini",
      "Roku TV"};
  std::set<std::string> actual;
  for (const auto& d : device_catalog()) {
    if (d.fallback.has_value()) actual.insert(d.name);
  }
  EXPECT_EQ(actual, expected);
}

TEST(Catalog, OnlyRokuFallsBackOnFailedHandshake) {
  for (const auto& d : device_catalog()) {
    if (!d.fallback) continue;
    EXPECT_EQ(d.fallback->on_failed_handshake, d.name == "Roku TV")
        << d.name;
    EXPECT_TRUE(d.fallback->on_incomplete_handshake) << d.name;
  }
}

TEST(Catalog, RokuOffers73Suites) {
  const auto* roku = find_device("Roku TV");
  ASSERT_NE(roku, nullptr);
  EXPECT_EQ(roku->instance("roku-main").config.cipher_suites.size(), 73u);
  EXPECT_EQ(roku->fallback->fallback_config.cipher_suites,
            std::vector<std::uint16_t>{tls::TLS_RSA_WITH_RC4_128_SHA});
}

TEST(Catalog, Table8RevocationSupport) {
  // Full Table 8 membership.
  const std::set<std::string> crl = {"Samsung TV"};
  const std::set<std::string> ocsp = {"Samsung TV", "Apple TV",
                                      "Apple HomePod"};
  const std::set<std::string> stapling = {
      "Fire TV",        "Samsung TV",      "Amazon Echo Spot",
      "Apple HomePod",  "Apple TV",        "Harman Invoke",
      "Amazon Echo Dot", "Wink Hub 2",     "Google Home Mini",
      "LG TV",          "Samsung Fridge",  "Smartthings Hub"};
  std::set<std::string> got_crl, got_ocsp, got_stapling;
  for (const auto& d : device_catalog()) {
    if (d.revocation.crl) got_crl.insert(d.name);
    if (d.revocation.ocsp) got_ocsp.insert(d.name);
    if (d.revocation.ocsp_stapling) got_stapling.insert(d.name);
  }
  EXPECT_EQ(got_crl, crl);
  EXPECT_EQ(got_ocsp, ocsp);
  EXPECT_EQ(got_stapling, stapling);
  EXPECT_EQ(got_stapling.size(), 12u);
}

TEST(Catalog, WemoAdvertisesOnlyTls10) {
  const auto* wemo = find_device("Wemo Plug");
  ASSERT_NE(wemo, nullptr);
  const auto& versions = wemo->instance("wemo-main").config.versions;
  // Fig 1: insecure maximum version throughout; Table 6: 1.0 yes, 1.1 no.
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0], tls::ProtocolVersion::Tls1_0);
}

TEST(Catalog, SharedInstanceFamiliesCollide) {
  // Fig 5: identical family configs → identical fingerprints.
  const auto fp_main = fingerprint::fingerprint_of_config(
      find_device("Amazon Echo Dot")->instance("amazon-main").config);
  const auto fp_plus = fingerprint::fingerprint_of_config(
      find_device("Amazon Echo Plus")->instance("amazon-main").config);
  EXPECT_EQ(fp_main, fp_plus);

  const auto fp_wink = fingerprint::fingerprint_of_config(
      find_device("Wink Hub 2")->instance("openssl-iot").config);
  const auto fp_lgtv = fingerprint::fingerprint_of_config(
      find_device("LG TV")->instance("openssl-iot").config);
  EXPECT_EQ(fp_wink, fp_lgtv);
}

TEST(Catalog, EchoDot3DiffersFromFamilyMain) {
  const auto fp_dot3 = fingerprint::fingerprint_of_config(
      find_device("Amazon Echo Dot 3")->instance("amazon-dot3").config);
  const auto fp_main = fingerprint::fingerprint_of_config(
      find_device("Amazon Echo Dot")->instance("amazon-main").config);
  EXPECT_NE(fp_dot3, fp_main);  // §5.3: smaller fingerprint overlap
}

TEST(Catalog, ConfigAtAppliesUpdatesInOrder) {
  const auto* apple_tv = find_device("Apple TV");
  ASSERT_NE(apple_tv, nullptr);
  const auto before =
      apple_tv->config_at("apple-main", common::Month{2018, 6});
  const auto after =
      apple_tv->config_at("apple-main", common::Month{2019, 6});
  EXPECT_FALSE(before.supports(tls::ProtocolVersion::Tls1_3));
  EXPECT_TRUE(after.supports(tls::ProtocolVersion::Tls1_3));  // 5/2019 update
}

TEST(Catalog, RebootUnsafeDevicesMatchPaper) {
  // §5.2: washer/dryer/thermostat/fridge excluded from repeated reboots
  // (washer is passive-only anyway).
  std::set<std::string> unsafe;
  for (const auto& d : device_catalog()) {
    if (!d.reboot_safe) unsafe.insert(d.name);
  }
  EXPECT_EQ(unsafe, (std::set<std::string>{"Samsung Dryer", "Samsung Fridge",
                                           "Nest Thermostat"}));
}

TEST(Catalog, RootStoreBuildsDeterministically) {
  const auto& universe = pki::CaUniverse::standard();
  const auto* lg = find_device("LG TV");
  ASSERT_NE(lg, nullptr);
  const auto store1 = lg->build_root_store(universe);
  const auto store2 = lg->build_root_store(universe);
  EXPECT_EQ(store1.size(), store2.size());
  // Forced distrusted CAs present (§5.2: TurkTrust on LG TV).
  EXPECT_TRUE(store1.contains(
      universe.authority("TurkTrust Elektronik Sertifika").root().tbs.subject));
}

TEST(Catalog, FamilyConfigUnknownThrows) {
  EXPECT_THROW(family_config("not-a-family"), std::out_of_range);
  EXPECT_NO_THROW(family_config("amazon-main"));
}

}  // namespace
}  // namespace iotls::devices
