// Integration tests: the alert side channel must reveal exactly the Table 9
// devices and agree with each device's ground-truth root store.
#include "probe/prober.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace iotls::probe {
namespace {

testbed::Testbed& shared_testbed() {
  static testbed::Testbed testbed;
  return testbed;
}

RootStoreProber& shared_prober() {
  static RootStoreProber prober(shared_testbed());
  return prober;
}

/// The whole three-stage exploration over the default recipe, fanned out
/// over every hardware thread.
const std::map<std::string, RootStoreExploration>& explorations() {
  static const auto results =
      explore_root_stores(testbed::Testbed::Options{}, 0xF00D);
  return results;
}

TEST(Prober, EligibilityExcludesPaperDevices) {
  const auto eligible = eligible_devices();
  const std::set<std::string> set(eligible.begin(), eligible.end());
  // §5.2: appliances unsuitable for reboots and non-validating devices are
  // excluded.
  EXPECT_EQ(set.count("Samsung Fridge"), 0u);
  EXPECT_EQ(set.count("Samsung Dryer"), 0u);
  EXPECT_EQ(set.count("Nest Thermostat"), 0u);
  EXPECT_EQ(set.count("Zmodo Doorbell"), 0u);
  EXPECT_EQ(set.count("Amcrest Camera"), 0u);
  EXPECT_EQ(set.count("Smarter iKettle"), 0u);
  EXPECT_EQ(set.count("Ring Doorbell"), 0u);  // passive-only
  EXPECT_EQ(set.count("Google Home Mini"), 1u);
}

TEST(Prober, ExactlyTheEightTable9DevicesAreAmenable) {
  std::set<std::string> got;
  for (const auto& [device, exploration] : explorations()) {
    got.insert(device);
    // Both sets were probed, through masks that skip some CAs.
    EXPECT_GT(exploration.common.checked, 0) << device;
    EXPECT_GT(exploration.deprecated.checked, 0) << device;
  }
  const std::set<std::string> expected = {
      "Google Home Mini", "Amazon Echo Plus", "Amazon Echo Dot",
      "Amazon Echo Dot 3", "Wink Hub 2",      "Roku TV",
      "LG TV",            "Harman Invoke"};
  EXPECT_EQ(got, expected);  // Table 9 row set
}

TEST(Prober, WolfSslStyleDeviceNotAmenable) {
  // Same alert for both probe cases → indistinguishable.
  EXPECT_FALSE(shared_prober().device_amenable("Yi Camera"));
  EXPECT_FALSE(shared_prober().device_amenable("D-Link Camera"));
}

TEST(Prober, SilentDeviceNotAmenable) {
  // GnuTLS-style: no alerts at all.
  EXPECT_FALSE(shared_prober().device_amenable("Philips Hub"));
  EXPECT_FALSE(shared_prober().device_amenable("Behmor Brewer"));
}

TEST(Prober, ProbeMatchesGroundTruthStore) {
  const auto& universe = shared_testbed().universe();
  auto& runtime = shared_testbed().runtime("LG TV");
  int checked = 0;
  // Sample a slice of each probe set against the device's actual store.
  std::vector<std::string> sample;
  for (std::size_t i = 0; i < universe.common_ca_names().size(); i += 20) {
    sample.push_back(universe.common_ca_names()[i]);
  }
  for (std::size_t i = 0; i < universe.deprecated_ca_names().size(); i += 15) {
    sample.push_back(universe.deprecated_ca_names()[i]);
  }
  for (const auto& ca_name : sample) {
    const auto outcome = shared_prober().probe_certificate("LG TV", ca_name);
    ASSERT_NE(outcome.verdict, Verdict::Inconclusive) << ca_name;
    const bool truth = runtime.root_store().contains(
        universe.authority(ca_name).root().tbs.subject);
    EXPECT_EQ(outcome.verdict == Verdict::Present, truth) << ca_name;
    ++checked;
  }
  EXPECT_GT(checked, 8);
}

TEST(Prober, AlertsMatchOpenSslProfile) {
  // LG TV's probe path is stock OpenSSL: unknown CA → unknown_ca,
  // spoofed CA → decrypt_error (Table 4).
  const auto& universe = shared_testbed().universe();
  // Probe a cert that is certainly present (forced include).
  const auto outcome =
      shared_prober().probe_certificate("LG TV", "WoSign CA Free SSL");
  ASSERT_EQ(outcome.verdict, Verdict::Present);
  ASSERT_TRUE(outcome.alert_unknown.has_value());
  ASSERT_TRUE(outcome.alert_spoofed.has_value());
  EXPECT_EQ(outcome.alert_unknown->description,
            tls::AlertDescription::UnknownCa);
  EXPECT_EQ(outcome.alert_spoofed->description,
            tls::AlertDescription::DecryptError);
  (void)universe;
}

TEST(Prober, DistrustedCAsFoundOnAllAmenableDevices) {
  // §5.2: every probeable device trusts at least one explicitly
  // distrusted CA.
  for (const auto& [device, exploration] : explorations()) {
    bool any_distrusted = false;
    for (const char* ca :
         {"WoSign CA Free SSL", "TurkTrust Elektronik Sertifika",
          "CNNIC Root", "Certinomis - Root CA"}) {
      const auto outcome = shared_prober().probe_certificate(device, ca);
      if (outcome.verdict == Verdict::Present) {
        any_distrusted = true;
        break;
      }
    }
    EXPECT_TRUE(any_distrusted) << device;
  }
}

TEST(Prober, ExploreAggregatesAndInconclusives) {
  const auto& universe = shared_testbed().universe();
  std::vector<std::string> subset(universe.common_ca_names().begin(),
                                  universe.common_ca_names().begin() + 20);
  // An empty mask probes every name.
  const auto result = shared_prober().explore("Google Home Mini", subset, {});
  EXPECT_EQ(result.checked + result.inconclusive, 20);
  EXPECT_EQ(result.inconclusive, 0);
  // GHM includes 100% of common certs (Table 9).
  EXPECT_EQ(result.present, result.checked);
  EXPECT_DOUBLE_EQ(result.fraction(), 1.0);

  // Every masked name is skipped as inconclusive, and only those.
  std::vector<bool> mask(subset.size());
  for (std::size_t i = 0; i < mask.size(); i += 2) mask[i] = true;
  const auto with_failures =
      shared_prober().explore("Google Home Mini", subset, mask);
  EXPECT_EQ(with_failures.inconclusive, 10);
  EXPECT_EQ(with_failures.checked, 10);
  EXPECT_EQ(with_failures.verdicts.at(subset[0]), Verdict::Inconclusive);
  EXPECT_EQ(with_failures.verdicts.at(subset[1]), Verdict::Present);
}

TEST(Prober, TraceAnnotatesAlertsWithClassification) {
  // The probe span's alert events carry the classification axis: the
  // absent-issuer probe is a trust_failure, the forged-signature probe a
  // crypto_failure (the unknown_ca vs decrypt_error side channel, §4.2).
  obs::TraceLog trace(obs::TraceLevel::Full);
  shared_testbed().set_trace(&trace);
  const auto outcome =
      shared_prober().probe_certificate("LG TV", "WoSign CA Free SSL");
  shared_testbed().set_trace(nullptr);
  ASSERT_EQ(outcome.verdict, Verdict::Present);

  const obs::Span* probe_span = nullptr;
  // Spans from inner handshakes also land in the log; find the probe's.
  for (const auto& span : trace.spans()) {
    if (span.name().rfind("probe:", 0) == 0) probe_span = &span;
  }
  ASSERT_NE(probe_span, nullptr);
  const obs::TraceEvent* unknown = probe_span->find("probe_unknown");
  const obs::TraceEvent* spoofed = probe_span->find("probe_spoofed");
  ASSERT_NE(unknown, nullptr);
  ASSERT_NE(spoofed, nullptr);
  ASSERT_NE(unknown->attr("class"), nullptr);
  ASSERT_NE(spoofed->attr("class"), nullptr);
  EXPECT_EQ(*unknown->attr("class"), "trust_failure");
  EXPECT_EQ(*spoofed->attr("class"), "crypto_failure");
}

TEST(Prober, VerdictNames) {
  EXPECT_EQ(verdict_name(Verdict::Present), "present");
  EXPECT_EQ(verdict_name(Verdict::Absent), "absent");
  EXPECT_EQ(verdict_name(Verdict::Inconclusive), "inconclusive");
}

}  // namespace
}  // namespace iotls::probe
