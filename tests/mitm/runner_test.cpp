// Integration tests: the active experiments must reproduce the paper's
// Tables 5, 6 and 7 membership from the device catalogue.
#include "mitm/runner.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

namespace iotls::mitm {
namespace {

/// The default sandbox recipe: seed 42, the standard CA universe.
const testbed::Testbed::Options kRecipe;

// Reports are expensive; compute once per binary.
const InterceptionReport& interception_report() {
  static const InterceptionReport report =
      run_interception_experiments(kRecipe);
  return report;
}

const DowngradeReport& downgrade_report() {
  static const DowngradeReport report = run_downgrade_experiments(kRecipe);
  return report;
}

const OldVersionReport& old_version_report() {
  static const OldVersionReport report =
      run_old_version_experiments(kRecipe);
  return report;
}

// ---------------- Table 7 ----------------

TEST(Interception, ElevenVulnerableDevices) {
  EXPECT_EQ(interception_report().rows.size(), 11u);  // Table 7
  EXPECT_EQ(interception_report().devices_tested, 32);
}

TEST(Interception, SevenDevicesSkipValidationEntirely) {
  EXPECT_EQ(interception_report().devices_without_any_validation, 7);  // §5.2
}

TEST(Interception, Table7RowsMatchPaper) {
  // device → {noval, bc, hostname, vulnerable, total}
  struct Expected {
    bool noval, bc, hostname;
    int vulnerable, total;
  };
  const std::map<std::string, Expected> expected = {
      {"Zmodo Doorbell", {true, true, true, 6, 6}},
      {"Amcrest Camera", {true, true, true, 2, 2}},
      {"Smarter iKettle", {true, true, true, 1, 1}},
      {"Yi Camera", {true, true, true, 1, 1}},
      {"Wink Hub 2", {true, true, true, 1, 2}},
      {"LG TV", {true, true, true, 1, 2}},
      {"Smartthings Hub", {true, true, true, 1, 3}},
      {"Amazon Echo Plus", {false, false, true, 1, 8}},
      {"Amazon Echo Dot", {false, false, true, 1, 9}},
      {"Amazon Echo Spot", {false, false, true, 1, 17}},
      {"Fire TV", {false, false, true, 1, 21}},
  };
  ASSERT_EQ(interception_report().rows.size(), expected.size());
  for (const auto& row : interception_report().rows) {
    ASSERT_TRUE(expected.count(row.device)) << row.device;
    const Expected& e = expected.at(row.device);
    EXPECT_EQ(row.no_validation, e.noval) << row.device;
    EXPECT_EQ(row.invalid_basic_constraints, e.bc) << row.device;
    EXPECT_EQ(row.wrong_hostname, e.hostname) << row.device;
    EXPECT_EQ(row.vulnerable_destinations, e.vulnerable) << row.device;
    EXPECT_EQ(row.total_destinations, e.total) << row.device;
  }
}

TEST(Interception, SevenDevicesLeakSensitiveData) {
  EXPECT_EQ(interception_report().devices_with_sensitive_leaks, 7);  // §5.2
}

TEST(Interception, NamedSecretsRecovered) {
  std::map<std::string, std::string> leaks;
  for (const auto& row : interception_report().rows) {
    for (const auto& sample : row.leaked_samples) {
      leaks[row.device] += sample;
    }
  }
  EXPECT_NE(leaks["Zmodo Doorbell"].find("encrypt_key"), std::string::npos);
  EXPECT_NE(leaks["Amcrest Camera"].find("command-server"),
            std::string::npos);
  EXPECT_NE(leaks["LG TV"].find("deviceSecret"), std::string::npos);
  EXPECT_NE(leaks["Amazon Echo Dot"].find("Bearer"), std::string::npos);
}

TEST(Interception, YiCameraNeedsRepeatedFailures) {
  // With a single boot per attack the Yi Camera never reaches 3
  // consecutive failures, so it is NOT vulnerable.
  const auto quick = run_interception_experiments(kRecipe,
                                                  /*boots_per_attack=*/1);
  const bool yi_vulnerable = std::any_of(
      quick.rows.begin(), quick.rows.end(),
      [](const InterceptionRow& r) { return r.device == "Yi Camera"; });
  EXPECT_FALSE(yi_vulnerable);
  EXPECT_EQ(quick.rows.size(), 10u);
}

// ---------------- Table 5 ----------------

TEST(Downgrade, SevenDevicesDowngrade) {
  EXPECT_EQ(downgrade_report().rows.size(), 7u);  // Table 5
  EXPECT_EQ(downgrade_report().devices_tested, 32);
}

TEST(Downgrade, Table5RowsMatchPaper) {
  struct Expected {
    bool failed, incomplete;
    int downgraded, total;
  };
  const std::map<std::string, Expected> expected = {
      {"Amazon Echo Dot", {false, true, 7, 9}},
      {"Amazon Echo Plus", {false, true, 6, 7}},
      {"Amazon Echo Spot", {false, true, 11, 15}},
      {"Fire TV", {false, true, 13, 21}},
      {"Apple HomePod", {false, true, 7, 9}},
      {"Google Home Mini", {false, true, 5, 5}},
      {"Roku TV", {true, true, 8, 15}},
  };
  ASSERT_EQ(downgrade_report().rows.size(), expected.size());
  for (const auto& row : downgrade_report().rows) {
    ASSERT_TRUE(expected.count(row.device)) << row.device;
    const Expected& e = expected.at(row.device);
    EXPECT_EQ(row.on_failed_handshake, e.failed) << row.device;
    EXPECT_EQ(row.on_incomplete_handshake, e.incomplete) << row.device;
    EXPECT_EQ(row.downgraded_destinations, e.downgraded) << row.device;
    EXPECT_EQ(row.total_destinations, e.total) << row.device;
    EXPECT_FALSE(row.behavior.empty()) << row.device;
  }
}

TEST(Downgrade, HelloComparison) {
  tls::ClientHello modern;
  modern.legacy_version = tls::ProtocolVersion::Tls1_2;
  modern.cipher_suites = {tls::TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
                          tls::TLS_RSA_WITH_AES_128_GCM_SHA256};

  tls::ClientHello ssl3 = modern;
  ssl3.legacy_version = tls::ProtocolVersion::Ssl3_0;
  EXPECT_TRUE(is_downgraded_hello(modern, ssl3));

  tls::ClientHello rc4_only = modern;
  rc4_only.cipher_suites = {tls::TLS_RSA_WITH_RC4_128_SHA};
  EXPECT_TRUE(is_downgraded_hello(modern, rc4_only));

  EXPECT_FALSE(is_downgraded_hello(modern, modern));

  tls::ClientHello sha1 = modern;
  sha1.extensions.push_back(tls::make_signature_algorithms(
      {tls::SignatureScheme::RsaPkcs1Sha1}));
  tls::ClientHello sha256 = modern;
  sha256.extensions.push_back(tls::make_signature_algorithms(
      {tls::SignatureScheme::RsaPkcs1Sha256}));
  EXPECT_TRUE(is_downgraded_hello(sha256, sha1));
}

// ---------------- Table 6 ----------------

TEST(OldVersions, MembershipMatchesPaper) {
  std::map<std::string, std::pair<bool, bool>> got;
  for (const auto& row : old_version_report().rows) {
    got[row.device] = {row.tls10, row.tls11};
  }
  // Table 6 (the paper's "Smarter Brewer" is our "Smarter iKettle").
  const std::map<std::string, std::pair<bool, bool>> expected = {
      {"Zmodo Doorbell", {true, true}},   {"Wink Hub 2", {true, true}},
      {"Yi Camera", {true, true}},        {"Philips Hub", {true, true}},
      {"Smarter iKettle", {true, true}},  {"TP-Link Bulb", {true, true}},
      {"Roku TV", {true, true}},          {"Meross Dooropener", {true, true}},
      {"LG TV", {true, true}},            {"Google Home Mini", {true, true}},
      {"Fire TV", {true, true}},          {"Amazon Echo Spot", {true, true}},
      {"Amazon Echo Plus", {true, true}}, {"Amazon Echo Dot", {true, true}},
      {"Amcrest Camera", {true, true}},   {"Samsung Fridge", {false, true}},
      {"Samsung Dryer", {false, true}},   {"Wemo Plug", {true, false}},
  };
  EXPECT_EQ(got, expected);
}

TEST(OldVersions, ModernDevicesRejectBoth) {
  const std::set<std::string> listed = [] {
    std::set<std::string> out;
    for (const auto& row : old_version_report().rows) out.insert(row.device);
    return out;
  }();
  for (const char* modern :
       {"Nest Thermostat", "D-Link Camera", "Switchbot Hub", "Apple TV",
        "Apple HomePod", "Blink Hub", "TP-Link Plug"}) {
    EXPECT_EQ(listed.count(modern), 0u) << modern;
  }
}

// ---------------- §4.2 TrafficPassthrough ----------------

TEST(Passthrough, ExtraConnectionsNoNewFailures) {
  const auto report = run_passthrough_experiments(kRecipe);
  EXPECT_EQ(report.devices_tested, 32);
  // Paper: ≈20.4% more hostnames, and no new validation failures.
  EXPECT_GT(report.extra_destination_fraction, 0.0);
  EXPECT_LT(report.extra_destination_fraction, 0.5);
  EXPECT_FALSE(report.new_failures_found);
}

// ---------------- Table 2 sanity ----------------

TEST(Attacks, CatalogueAndDescriptions) {
  EXPECT_EQ(all_attacks().size(), 3u);
  for (const auto kind : all_attacks()) {
    EXPECT_FALSE(attack_name(kind).empty());
    EXPECT_FALSE(attack_description(kind).empty());
  }
  EXPECT_EQ(attack_name(AttackKind::WrongHostname), "WrongHostname");
  EXPECT_EQ(failure_name(FailureKind::IncompleteHandshake),
            "IncompleteHandshake");
}

TEST(Attacks, ForgeShapes) {
  const auto& universe = pki::CaUniverse::standard();
  AttackForge forge(universe, 1);

  const auto noval = forge.forge(AttackKind::NoValidation, "victim.example");
  ASSERT_EQ(noval.chain.size(), 1u);
  EXPECT_TRUE(noval.chain[0].is_self_signed());

  const auto hostname = forge.forge(AttackKind::WrongHostname,
                                    "victim.example");
  ASSERT_EQ(hostname.chain.size(), 2u);
  EXPECT_FALSE(hostname.chain[0].matches_hostname("victim.example"));
  EXPECT_TRUE(hostname.chain[0].matches_hostname(forge.attacker_domain()));

  const auto bc = forge.forge(AttackKind::InvalidBasicConstraints,
                              "victim.example");
  ASSERT_EQ(bc.chain.size(), 3u);
  EXPECT_TRUE(bc.chain[0].matches_hostname("victim.example"));
  // The issuing certificate is a leaf (CA=false) — the attack's essence.
  EXPECT_FALSE(bc.chain[1].tbs.extensions.basic_constraints->is_ca);
}

}  // namespace
}  // namespace iotls::mitm
