// End-to-end orchestrator tests: every table/figure renders and the
// structured results match the paper's headline counts.
#include "core/study.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <string_view>

#include "crypto/cache.hpp"
#include "obs/profile.hpp"
#include "obs/zone_calls.hpp"
#include "pki/universe.hpp"

namespace iotls::core {
namespace {

IotlsStudy& study() {
  static IotlsStudy instance = [] {
    IotlsStudy::Options options;
    options.passive_scale = 0.01;  // keep tests fast; shapes are identical
    return IotlsStudy(options);
  }();
  return instance;
}

TEST(Study, Table4MatchesPaperMatrix) {
  const auto& rows = study().library_probe_rows();
  ASSERT_EQ(rows.size(), 6u);
  int amenable = 0;
  for (const auto& row : rows) {
    if (row.amenable) ++amenable;
    if (row.library == tls::TlsLibrary::MbedTls) {
      EXPECT_EQ(tls::alert_display(row.alert_known_ca_bad_signature),
                "Bad Certificate");
      EXPECT_EQ(tls::alert_display(row.alert_unknown_ca), "Unknown CA");
    }
    if (row.library == tls::TlsLibrary::OpenSsl) {
      EXPECT_EQ(tls::alert_display(row.alert_known_ca_bad_signature),
                "Decrypt Error");
      EXPECT_EQ(tls::alert_display(row.alert_unknown_ca), "Unknown CA");
    }
    if (row.library == tls::TlsLibrary::GnuTls ||
        row.library == tls::TlsLibrary::SecureTransport) {
      EXPECT_EQ(tls::alert_display(row.alert_known_ca_bad_signature),
                "No Alert");
      EXPECT_EQ(tls::alert_display(row.alert_unknown_ca), "No Alert");
    }
  }
  EXPECT_EQ(amenable, 2);  // Table 4: only MbedTLS and OpenSSL
}

TEST(Study, Table5MatchesPaperCounts) {
  // Per-device downgraded/total destinations (EXPERIMENTS.md, Table 5).
  const std::map<std::string, std::pair<int, int>> paper = {
      {"Amazon Echo Dot", {7, 9}},   {"Amazon Echo Plus", {6, 7}},
      {"Amazon Echo Spot", {11, 15}}, {"Apple HomePod", {7, 9}},
      {"Fire TV", {13, 21}},          {"Google Home Mini", {5, 5}},
      {"Roku TV", {8, 15}},
  };
  const auto& rows = study().downgrade_report().rows;
  ASSERT_EQ(rows.size(), paper.size());
  for (const auto& row : rows) {
    ASSERT_TRUE(paper.count(row.device)) << row.device;
    EXPECT_EQ(row.downgraded_destinations, paper.at(row.device).first)
        << row.device;
    EXPECT_EQ(row.total_destinations, paper.at(row.device).second)
        << row.device;
  }
}

TEST(Study, Table6HasEighteenRows) {
  const auto& rows = study().old_version_report().rows;
  ASSERT_EQ(rows.size(), 18u);
  for (const auto& row : rows) {
    if (row.device == "Samsung Fridge" || row.device == "Samsung Dryer") {
      EXPECT_FALSE(row.tls10) << row.device;  // TLS 1.1 only
      EXPECT_TRUE(row.tls11) << row.device;
    }
    if (row.device == "Wemo Plug") {
      EXPECT_TRUE(row.tls10);  // TLS 1.0 only
      EXPECT_FALSE(row.tls11);
    }
  }
}

TEST(Study, Table7MatchesPaperCounts) {
  const auto& report = study().interception_report();
  ASSERT_EQ(report.rows.size(), 11u);
  EXPECT_EQ(report.devices_without_any_validation, 7);
  EXPECT_EQ(report.devices_with_sensitive_leaks, 7);  // 7/11 leak
  // The Amazon devices fail only hostname validation, on one destination.
  const std::map<std::string, int> hostname_only = {
      {"Amazon Echo Plus", 8},
      {"Amazon Echo Dot", 9},
      {"Amazon Echo Spot", 17},
      {"Fire TV", 21},
  };
  int found = 0;
  for (const auto& row : report.rows) {
    if (!hostname_only.count(row.device)) continue;
    ++found;
    EXPECT_FALSE(row.no_validation) << row.device;
    EXPECT_FALSE(row.invalid_basic_constraints) << row.device;
    EXPECT_TRUE(row.wrong_hostname) << row.device;
    EXPECT_EQ(row.vulnerable_destinations, 1) << row.device;
    EXPECT_EQ(row.total_destinations, hostname_only.at(row.device))
        << row.device;
  }
  EXPECT_EQ(found, 4);
}

TEST(Study, Table9HasEightDevicesWithPaperBands) {
  const auto& results = study().root_store_results();
  ASSERT_EQ(results.size(), 8u);  // Table 9 rows

  // Paper cells, as (common%, deprecated%) with generous tolerances —
  // inclusion is sampled per device seed.
  struct Band {
    double common, deprecated;
  };
  const std::map<std::string, Band> paper = {
      {"Google Home Mini", {1.00, 0.06}},
      {"Amazon Echo Plus", {0.98, 0.18}},
      {"Amazon Echo Dot", {0.98, 0.19}},
      {"Amazon Echo Dot 3", {0.90, 0.27}},
      {"Wink Hub 2", {0.92, 0.38}},
      {"Roku TV", {0.91, 0.41}},
      {"LG TV", {0.93, 0.59}},
      {"Harman Invoke", {0.82, 0.59}},
  };
  for (const auto& [device, exploration] : results) {
    ASSERT_TRUE(paper.count(device)) << device;
    EXPECT_NEAR(exploration.common.fraction(), paper.at(device).common, 0.08)
        << device;
    EXPECT_NEAR(exploration.deprecated.fraction(),
                paper.at(device).deprecated, 0.10)
        << device;
    // Denominators shrink through inconclusive probes.
    EXPECT_GT(exploration.common.inconclusive +
                  exploration.deprecated.inconclusive,
              0)
        << device;
  }
}

TEST(Study, EveryProbedDeviceTrustsADistrustedCa) {
  const auto& universe = study().universe();
  for (const auto& [device, exploration] : study().root_store_results()) {
    bool any = false;
    for (const auto& [ca, verdict] : exploration.deprecated.verdicts) {
      if (verdict == probe::Verdict::Present && universe.is_distrusted(ca)) {
        any = true;
        break;
      }
    }
    EXPECT_TRUE(any) << device;  // §5.2 finding
  }
}

TEST(Study, StalenessShowsLgTvBackTo2013) {
  const auto& staleness = study().staleness();
  EXPECT_EQ(staleness.earliest_year("LG TV"), 2013);  // §5.2 / Fig 4
  // Echo-family and GHM stores skew recent.
  EXPECT_GE(staleness.earliest_year("Google Home Mini"), 2015);
  EXPECT_GT(staleness.total_found("LG TV"),
            staleness.total_found("Google Home Mini"));
}

TEST(Study, FingerprintCountsMatchPaper) {
  const auto& fp = study().fingerprint_study();
  EXPECT_EQ(fp.single_instance_devices(), 18);  // §5.3
  EXPECT_EQ(fp.multi_instance_devices(), 14);   // §5.3
  EXPECT_EQ(fp.sharing_devices(), 19);          // §5.3
}

TEST(Study, FireTvSharesWithAndroidSdk) {
  const auto& fp = study().fingerprint_study();
  const auto partners = fp.graph.sharing_partners("Fire TV");
  EXPECT_TRUE(partners.count("android-sdk")) << "§5.3 Fire OS finding";
  EXPECT_TRUE(partners.count("Amazon Echo Dot"));
}

TEST(Study, OpenSslClusterHasSixDevices) {
  const auto& fp = study().fingerprint_study();
  const auto partners = fp.graph.sharing_partners("openssl");
  // §5.3: six devices exhibit the stock OpenSSL fingerprint.
  int devices = 0;
  for (const auto& p : partners) {
    if (fp.graph.kind_of(p) == fingerprint::NodeKind::Device) ++devices;
  }
  EXPECT_EQ(devices, 6);
  EXPECT_TRUE(partners.count("Harman Invoke"));
  EXPECT_TRUE(partners.count("LG TV"));
  EXPECT_TRUE(partners.count("Wink Hub 2"));
}

TEST(Study, EchoDot3HasSmallerOverlap) {
  const auto& fp = study().fingerprint_study();
  const auto dot3 = fp.graph.sharing_partners("Amazon Echo Dot 3");
  const auto dot = fp.graph.sharing_partners("Amazon Echo Dot");
  EXPECT_LT(dot3.size(), dot.size());  // §5.3
  EXPECT_FALSE(dot3.empty());
}

TEST(Study, AllRenderingsNonEmpty) {
  EXPECT_NE(study().render_table1().find("Zmodo Doorbell"),
            std::string::npos);
  EXPECT_NE(study().render_table2().find("WrongHostname"),
            std::string::npos);
  EXPECT_NE(study().render_table3().find("Mozilla"), std::string::npos);
  EXPECT_NE(study().render_table4().find("Decrypt Error"),
            std::string::npos);
  EXPECT_NE(study().render_table5().find("SSL 3.0"), std::string::npos);
  EXPECT_NE(study().render_table6().find("Wemo Plug"), std::string::npos);
  EXPECT_NE(study().render_table7().find("Zmodo Doorbell"),
            std::string::npos);
  EXPECT_NE(study().render_table8().find("OCSP Stapling"),
            std::string::npos);
  EXPECT_NE(study().render_table9().find("LG TV"), std::string::npos);
  EXPECT_NE(study().render_fig1().find("advertised"), std::string::npos);
  EXPECT_NE(study().render_fig2().find("insecure"), std::string::npos);
  EXPECT_NE(study().render_fig3().find("PFS"), std::string::npos);
  EXPECT_NE(study().render_fig4().find("2013"), std::string::npos);
  EXPECT_NE(study().render_fig5().find("cluster"), std::string::npos);
  EXPECT_FALSE(study().render_summary().empty());
}

TEST(Study, Table8MatchesPaperMembership) {
  const auto& summary = study().revocation_summary();
  EXPECT_EQ(summary.crl_devices, std::vector<std::string>{"Samsung TV"});
  const std::set<std::string> ocsp(summary.ocsp_devices.begin(),
                                   summary.ocsp_devices.end());
  EXPECT_EQ(ocsp.size(), 3u);
  EXPECT_EQ(ocsp.count("Apple TV"), 1u);
  EXPECT_EQ(ocsp.count("Apple HomePod"), 1u);
  EXPECT_EQ(summary.stapling_devices.size(), 12u);  // from traffic
  EXPECT_EQ(summary.non_checking_count(40), 28);
}

TEST(Study, PassiveRenderingsShareOneFold) {
  obs::profile_reset();
  obs::set_profile_enabled(true);
  {
    IotlsStudy::Options options;
    options.passive_scale = 0.01;
    IotlsStudy fresh(options);
    (void)fresh.render_fig1();
    (void)fresh.render_fig2();
    (void)fresh.render_fig3();
    (void)fresh.render_table8();
    (void)fresh.render_summary();
  }
  const auto snapshot = obs::profile_snapshot();
  obs::set_profile_enabled(false);
  obs::profile_reset();
  EXPECT_EQ(obs::zone_calls(snapshot.root, "analysis/fold_dataset"), 1u);
}

/// A cold-cache, profiled, reduced-scale study over the tables and figures
/// that run handshakes, at the given fan-out width.
obs::ProfileSnapshot profiled_study(std::size_t threads) {
  crypto::crypto_caches_clear();
  obs::profile_reset();
  obs::set_profile_enabled(true);
  {
    IotlsStudy::Options options;
    options.passive_scale = 0.01;
    options.threads = threads;
    IotlsStudy fresh(options);
    (void)fresh.render_table2();
    (void)fresh.render_table3();
    (void)fresh.render_table4();
    (void)fresh.render_table5();
    (void)fresh.render_table6();
    (void)fresh.render_table7();
    (void)fresh.render_table9();
    (void)fresh.render_fig5();
    (void)fresh.render_summary();
  }
  auto snapshot = obs::profile_snapshot();
  obs::set_profile_enabled(false);
  obs::profile_reset();
  return snapshot;
}

/// The zones whose calls the work budget pins.
const std::vector<std::string> kBudgetedZones = {
    "crypto/modexp", "crypto/rsa_private_op", "tls/client_connect",
    "pki/issue", "mitm/forge"};

/// Calls of each budgeted zone in `node`'s subtree.
std::vector<std::uint64_t> budgeted_calls(const obs::ProfileNode& node) {
  std::vector<std::uint64_t> calls;
  for (const std::string& zone : kBudgetedZones) {
    calls.push_back(obs::zone_calls(node, zone));
  }
  return calls;
}

/// The work budget: exact call counts of the budgeted zones, per experiment
/// and over the whole profile. They are the same at every thread count,
/// because pool workers' zones merge under the experiment that issued the
/// fan-out. A change that lowers a count updates these numbers and says so
/// in CHANGES.md; a change that raises one must justify the increase there.
const std::map<std::string, std::vector<std::uint64_t>> kWorkBudget = {
    {"<total>", {25946, 5843, 4679, 1114, 4113}},
    {"study/downgrade", {7222, 396, 361, 185, 393}},
    {"study/fingerprint", {719, 153, 153, 153, 0}},
    {"study/interception", {5774, 1905, 1932, 185, 1964}},
    {"study/library-probe-matrix", {242, 17, 12, 0, 1}},
    {"study/old-version", {958, 252, 296, 185, 32}},
    {"study/passive-dataset", {2614, 265, 236, 185, 0}},
    {"study/passive-fold", {0, 0, 0, 0, 0}},
    {"study/root-store-exploration", {8417, 2855, 1689, 221, 1723}},
};

/// Every budgeted call sits inside an experiment's study/* subtree: the
/// study builds nothing outside its experiments' sandboxes.
void expect_no_work_outside_experiments(const obs::ProfileSnapshot& snapshot) {
  std::vector<std::uint64_t> in_experiments(kBudgetedZones.size(), 0);
  for (const auto& [name, child] : snapshot.root.children) {
    if (!name.starts_with("study/")) continue;
    const auto calls = budgeted_calls(child);
    for (std::size_t i = 0; i < calls.size(); ++i) {
      in_experiments[i] += calls[i];
    }
  }
  const auto total = budgeted_calls(snapshot.root);
  for (std::size_t i = 0; i < kBudgetedZones.size(); ++i) {
    EXPECT_EQ(total[i] - in_experiments[i], 0u)
        << kBudgetedZones[i] << " outside every study/* zone";
  }
}

TEST(Study, EveryExponentiationIsCreditedToALayer) {
  // Key generation, issuance and forgery each run under their layer's zone
  // (pki/*, testbed/*, mitm/forge, tls/*): no modexp or RSA private op
  // sits directly under the root or an experiment's study/* zone.
  // The CA universe is built before profiling, as for the budget.
  (void)pki::CaUniverse::standard();
  const auto snapshot = profiled_study(0);

  std::uint64_t experiments = 0;
  const std::function<void(const obs::ProfileNode&)> walk =
      [&](const obs::ProfileNode& node) {
        const std::string_view name = node.name;
        if (name.starts_with("study/")) ++experiments;
        if (name == "<root>" || name.starts_with("study/")) {
          for (const char* op : {"crypto/modexp", "crypto/rsa_private_op"}) {
            EXPECT_EQ(node.children.count(op), 0u) << op << " under " << name;
          }
        }
        for (const auto& [child_name, child] : node.children) walk(child);
      };
  walk(snapshot.root);
  EXPECT_GE(experiments, 8u);
}

TEST(Study, WorkBudgetAtOneThread) {
  // The CA universe is built before profiling starts: an earlier test in
  // this binary may already have built it, so its keygen is not budgeted.
  (void)pki::CaUniverse::standard();
  // The one-thread budget holds per experiment at the default width too.
  // Every memo is single-flight, so workers that miss one key at once
  // compute it once; and no memo shard fills up within one study, so no
  // generational clear (whose timing would depend on the interleaving)
  // drops an entry a later call needs.
  for (const std::size_t threads : {1u, 0u}) {
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    const auto snapshot = profiled_study(threads);
    expect_no_work_outside_experiments(snapshot);

    std::map<std::string, std::vector<std::uint64_t>> actual;
    actual["<total>"] = budgeted_calls(snapshot.root);
    for (const auto& [name, child] : snapshot.root.children) {
      if (name.starts_with("study/")) actual[name] = budgeted_calls(child);
    }
    for (const auto& [name, calls] : actual) {
      for (std::size_t i = 0; i < kBudgetedZones.size(); ++i) {
        EXPECT_EQ(kWorkBudget.count(name) ? kWorkBudget.at(name)[i] : 0,
                  calls[i])
            << kBudgetedZones[i] << " in " << name;
      }
    }
    EXPECT_EQ(actual.size(), kWorkBudget.size());
  }
}

TEST(Study, RepeatRunOnOneUniverseAddsNoVerifyEntries) {
  // Issuance is a pure function of its request, so a second study of the
  // same seed on the same universe re-issues every cloud endpoint's
  // certificate byte for byte: each re-issue hits the cert_sign memo and
  // each chain the devices verify is one the verify memos already hold.
  // The memos stay flat however many runs a process makes.
  const bool cache_was_enabled = crypto::crypto_cache_enabled();
  crypto::set_crypto_cache_enabled(true);
  const auto render_all = [] {
    IotlsStudy::Options options;
    options.passive_scale = 0.01;
    IotlsStudy fresh(options);
    (void)fresh.render_table1();
    (void)fresh.render_table2();
    (void)fresh.render_table3();
    (void)fresh.render_table4();
    (void)fresh.render_table5();
    (void)fresh.render_table6();
    (void)fresh.render_table7();
    (void)fresh.render_table8();
    (void)fresh.render_table9();
    (void)fresh.render_fig1();
    (void)fresh.render_fig2();
    (void)fresh.render_fig3();
    (void)fresh.render_fig4();
    (void)fresh.render_fig5();
    (void)fresh.render_summary();
  };
  (void)pki::CaUniverse::standard();
  crypto::crypto_caches_clear();
  render_all();
  const std::size_t sig_verify = crypto::sig_verify_cache().size();
  const std::size_t chain_verify = crypto::chain_verify_cache().size();

  obs::profile_reset();
  obs::set_profile_enabled(true);
  render_all();
  const auto snapshot = obs::profile_snapshot();
  obs::set_profile_enabled(false);
  obs::profile_reset();
  crypto::set_crypto_cache_enabled(cache_was_enabled);

  EXPECT_EQ(crypto::sig_verify_cache().size(), sig_verify);
  EXPECT_EQ(crypto::chain_verify_cache().size(), chain_verify);
  EXPECT_GT(obs::zone_calls(snapshot.root, "testbed/cloud_endpoint"), 0u);
  EXPECT_EQ(obs::calls_within(snapshot.root, "testbed/cloud_endpoint",
                              "crypto/rsa_private_op"),
            0u);
}

TEST(Study, Table1CountsCategories) {
  const auto table1 = study().render_table1();
  EXPECT_NE(table1.find("passive only"), std::string::npos);
  EXPECT_NE(table1.find("active + passive"), std::string::npos);
}

}  // namespace
}  // namespace iotls::core
