// Longitudinal analyses over a generated passive dataset (Figs 1-3 logic).
#include "analysis/longitudinal.hpp"

#include <gtest/gtest.h>

#include "analysis/revocation.hpp"
#include "analysis/summary.hpp"

namespace iotls::analysis {
namespace {

// One dataset per binary: full window, tiny connection counts.
const testbed::PassiveDataset& dataset() {
  static const testbed::PassiveDataset data = [] {
    testbed::GeneratorOptions gen;
    gen.seed = 99;
    gen.count_scale = 0.01;
    return testbed::generate_passive_dataset(gen);
  }();
  return data;
}

// The dataset folded once over the study window; every analysis reads it.
const DatasetFold& fold() {
  static const DatasetFold folded = fold_dataset(dataset(), study_months());
  return folded;
}

VersionSeries versions_of(const std::string& device) {
  return version_series_from(fold().tallies.at(device), device,
                             fold().months);
}

CipherSeries ciphers_of(const std::string& device) {
  return cipher_series_from(fold().tallies.at(device), device, fold().months);
}

TEST(Longitudinal, StudyWindowHas27Months) {
  EXPECT_EQ(study_months().size(), 27u);
}

TEST(Longitudinal, AllFortyDevicesGenerateTraffic) {
  EXPECT_EQ(dataset().devices().size(), 40u);
  EXPECT_GT(dataset().total_connections(), 0u);
}

TEST(Longitudinal, CoverageWindowsProduceGrayCells) {
  // Sengled Hub stops after month offset 8 → later months have no traffic.
  const auto series =
      versions_of("Sengled Hub");
  const auto& tls12 = series.advertised.at(tls::VersionBucket::Tls12);
  EXPECT_NE(tls12[0], kNoTraffic);
  EXPECT_EQ(tls12[20], kNoTraffic);
}

TEST(Longitudinal, WemoAdvertisesOlderAllMonths) {
  const auto series = versions_of("Wemo Plug");
  const auto& older = series.advertised.at(tls::VersionBucket::Older);
  for (const double f : older) {
    if (f == kNoTraffic) continue;
    EXPECT_DOUBLE_EQ(f, 1.0);  // Fig 1: insecure max version throughout
  }
  EXPECT_FALSE(series.tls12_exclusive());
}

TEST(Longitudinal, NestIsTls12Exclusive) {
  const auto series =
      versions_of("Nest Thermostat");
  EXPECT_TRUE(series.tls12_exclusive());
}

TEST(Longitudinal, BlinkHubTransitionsInJuly2018) {
  const auto months = study_months();
  const auto series = versions_of("Blink Hub");
  const auto& older = series.advertised.at(tls::VersionBucket::Older);
  const auto& tls12 = series.advertised.at(tls::VersionBucket::Tls12);
  const int before = common::Month{2018, 5}.index() - months[0].index();
  const int after = common::Month{2018, 9}.index() - months[0].index();
  EXPECT_DOUBLE_EQ(older[before], 1.0);
  EXPECT_DOUBLE_EQ(tls12[before], 0.0);
  EXPECT_DOUBLE_EQ(older[after], 0.0);   // Fig 1: 7/2018 transition
  EXPECT_DOUBLE_EQ(tls12[after], 1.0);
}

TEST(Longitudinal, AppleTvAdoptsTls13InMay2019) {
  const auto months = study_months();
  const auto series = versions_of("Apple TV");
  const auto& tls13 = series.advertised.at(tls::VersionBucket::Tls13);
  const int before = common::Month{2019, 3}.index() - months[0].index();
  const int after = common::Month{2019, 7}.index() - months[0].index();
  EXPECT_DOUBLE_EQ(tls13[before], 0.0);
  EXPECT_GT(tls13[after], 0.5);  // Fig 1: 5/2019 transition
}

TEST(Longitudinal, SamsungFridgeEstablishesOlderOnly) {
  const auto series =
      versions_of("Samsung Fridge");
  const auto& adv12 = series.advertised.at(tls::VersionBucket::Tls12);
  const auto& est_old = series.established.at(tls::VersionBucket::Older);
  for (std::size_t i = 0; i < adv12.size(); ++i) {
    if (adv12[i] == kNoTraffic) continue;
    EXPECT_GT(adv12[i], 0.5) << i;       // advertises 1.2...
    EXPECT_DOUBLE_EQ(est_old[i], 1.0);   // ...but establishes 1.1 (Fig 1)
  }
  EXPECT_FALSE(series.tls12_exclusive());
}

TEST(Longitudinal, Fig1OmitsAbout28Devices) {
  const auto series = all_version_series(fold());
  int exclusive = 0;
  for (const auto& s : series) {
    if (s.tls12_exclusive()) ++exclusive;
  }
  // Paper: 28/40 TLS1.2-exclusive. Allow the simulation a small band.
  EXPECT_GE(exclusive, 25);
  EXPECT_LE(exclusive, 30);
}

TEST(Ciphers, SmartthingsStopsAdvertisingWeakIn2020) {
  // Fig 2: the 3/2020 firmware update drops the weak suites from both
  // first-party stacks. The stock-OpenSSL updater keeps its 3DES offer
  // (the shared-library fingerprint would change otherwise), so the
  // fraction drops sharply rather than to zero.
  const auto months = study_months();
  const auto series = ciphers_of("Smartthings Hub");
  const int before = common::Month{2020, 1}.index() - months[0].index();
  const int after = common::Month{2020, 3}.index() - months[0].index();
  EXPECT_GT(series.insecure_advertised[before], 0.6);
  EXPECT_LT(series.insecure_advertised[after], 0.45);
  EXPECT_LT(series.insecure_advertised[after],
            series.insecure_advertised[before]);
}

TEST(Ciphers, OnlyWinkAndLgEstablishInsecure) {
  std::set<std::string> establishers;
  for (const auto& s : all_cipher_series(fold())) {
    for (const double f : s.insecure_established) {
      if (f != kNoTraffic && f > 0.0) {
        establishers.insert(s.device);
        break;
      }
    }
  }
  EXPECT_EQ(establishers,
            (std::set<std::string>{"Wink Hub 2", "LG TV"}));  // Fig 2
}

TEST(Ciphers, RingAdoptsPfsInApril2018) {
  const auto months = study_months();
  const auto series = ciphers_of("Ring Doorbell");
  const int before = common::Month{2018, 2}.index() - months[0].index();
  const int after = common::Month{2018, 6}.index() - months[0].index();
  EXPECT_LT(series.strong_established[before], 0.1);
  EXPECT_GT(series.strong_established[after], 0.9);  // Fig 3: 4/2018
}

TEST(Ciphers, MajorityEstablishWithoutPfs) {
  const auto series = all_cipher_series(fold());
  int weak_establishers = 0;
  for (const auto& s : series) {
    if (s.mean_strong_established() < 0.5) ++weak_establishers;
  }
  // Paper: 22 devices establish most connections without PFS.
  EXPECT_GE(weak_establishers, 18);
  EXPECT_LE(weak_establishers, 26);
}

TEST(Revocation, StaplingDerivedFromTraffic) {
  const auto summary = analyze_revocation(fold());
  const std::set<std::string> stapling(summary.stapling_devices.begin(),
                                       summary.stapling_devices.end());
  EXPECT_EQ(stapling.size(), 12u);  // Table 8
  EXPECT_EQ(stapling.count("Samsung TV"), 1u);
  EXPECT_EQ(stapling.count("Wink Hub 2"), 1u);
  EXPECT_EQ(stapling.count("LG TV"), 1u);
  EXPECT_EQ(stapling.count("Amazon Echo Plus"), 0u);
  EXPECT_EQ(summary.crl_devices,
            std::vector<std::string>{"Samsung TV"});
  EXPECT_EQ(summary.ocsp_devices.size(), 3u);
}

TEST(Revocation, MostDevicesNeverCheck) {
  const auto summary = analyze_revocation(fold());
  EXPECT_EQ(summary.non_checking_count(40), 28);  // Table 8: 28 devices
}

TEST(Summary, HeadlineNumbersInPaperBands) {
  const auto s = summarize(fold());
  EXPECT_EQ(s.device_count, 40);
  EXPECT_GE(s.tls12_exclusive_devices, 25);
  EXPECT_LE(s.tls12_exclusive_devices, 30);
  // §5.1: RC4 advertised in far more connections than the ~10% of web
  // clients; TLS 1.3 in far fewer than the web's ~60%.
  EXPECT_GT(s.rc4_advertising_fraction, 0.3);
  EXPECT_LT(s.tls13_advertising_fraction, 0.35);
  EXPECT_EQ(s.null_anon_advertising_devices, 0);  // §5.1: never
  EXPECT_GT(s.devices_advertising_multiple_max_versions, 10);
  EXPECT_FALSE(render_summary(s).empty());
}

TEST(Renderers, ProduceRows) {
  const auto vs = all_version_series(fold());
  EXPECT_NE(render_version_heatmap({vs[0]}, true).find(vs[0].device),
            std::string::npos);
  const auto cs = all_cipher_series(fold());
  EXPECT_FALSE(render_cipher_heatmap({cs[0]}, true, true).empty());
}

}  // namespace
}  // namespace iotls::analysis
