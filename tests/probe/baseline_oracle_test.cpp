// Reference oracle for the root-store prober: every candidate root probed
// with both the unknown-CA baseline and the spoofed-CA probe, run by a
// test-local loop, must give exactly what the prober reports. The loop and
// the prober run on twin sandboxes, so the two devices' runtimes must also
// end in the same state: the next connection's ClientHello must match.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/pool.hpp"
#include "obs/trace.hpp"
#include "probe/prober.hpp"
#include "tls/alert.hpp"

namespace iotls::probe {
namespace {

constexpr common::SimDate kProbeDate{2021, 3, 20};  // the prober's date

/// The Table 9 row set (`Prober.ExactlyTheEightTable9DevicesAreAmenable`
/// pins it). Roku TV retries with its fallback configuration after a
/// failed handshake, so its probes make two connections each.
const std::vector<std::string> kAmenable = {
    "Google Home Mini", "Amazon Echo Plus", "Amazon Echo Dot",
    "Amazon Echo Dot 3", "Wink Hub 2",      "Roku TV",
    "LG TV",            "Harman Invoke"};

const devices::DestinationSpec& first_destination(
    const devices::DeviceProfile& profile) {
  for (const auto& dest : profile.destinations) {
    if (!dest.intermittent) return dest;
  }
  throw common::ProtocolError(profile.name + " has no probe destination");
}

testbed::Testbed::Options single_device(const std::string& device) {
  testbed::Testbed::Options options;
  options.devices = {device};
  return options;
}

/// The ClientHello of the device's next connection: equal on two twin
/// runtimes iff their per-connection random streams are at the same point.
tls::ClientHello next_client_hello(testbed::Testbed& testbed,
                                   const std::string& device) {
  mitm::Interceptor interceptor(testbed.universe(), testbed.cloud());
  interceptor.set_mode(mitm::InterceptMode::unknown_ca());
  interceptor.install(testbed.network());
  auto& runtime = testbed.runtime(device);
  (void)runtime.connect_to(first_destination(runtime.profile()), kProbeDate);
  const auto interceptions = interceptor.drain();
  interceptor.uninstall(testbed.network());
  if (interceptions.empty() || !interceptions.front().client_hello) return {};
  return *interceptions.front().client_hello;
}

/// Per candidate root: the verdict and both alerts (display form).
struct PairRecord {
  std::string verdict;
  std::string alert_unknown;
  std::string alert_spoofed;

  bool operator==(const PairRecord&) const = default;
};

struct DeviceRecord {
  std::map<std::string, PairRecord> pairs;
  tls::ClientHello next_hello;
};

std::vector<std::string> all_candidates(const pki::CaUniverse& universe) {
  std::vector<std::string> names = universe.common_ca_names();
  const auto& deprecated = universe.deprecated_ca_names();
  names.insert(names.end(), deprecated.begin(), deprecated.end());
  return names;
}

/// What the prober reports: explore's verdicts over both sets (empty
/// masks), and the alerts its probe spans record.
DeviceRecord prober_record(const std::string& device) {
  obs::TraceLog trace(obs::TraceLevel::Handshake);
  testbed::Testbed::Options options = single_device(device);
  options.trace = &trace;
  testbed::Testbed testbed(options);
  const auto& universe = testbed.universe();
  RootStoreProber prober(testbed);
  const auto common = prober.explore(device, universe.common_ca_names(), {});
  const auto deprecated =
      prober.explore(device, universe.deprecated_ca_names(), {});

  DeviceRecord record;
  for (const auto* result : {&common, &deprecated}) {
    for (const auto& [ca, verdict] : result->verdicts) {
      record.pairs[ca].verdict = verdict_name(verdict);
    }
  }
  const std::string prefix = "probe:" + device + ":";
  for (const auto& span : trace.spans()) {
    if (!span.name().starts_with(prefix)) continue;
    PairRecord& pair = record.pairs[span.name().substr(prefix.size())];
    pair.alert_unknown = *span.find("probe_unknown")->attr("alert");
    pair.alert_spoofed = *span.find("probe_spoofed")->attr("alert");
  }
  record.next_hello = next_client_hello(testbed, device);
  return record;
}

/// The oracle: both probes for every root, in the prober's order, with
/// the prober's verdict rule.
DeviceRecord reference_record(const std::string& device) {
  testbed::Testbed testbed(single_device(device));
  testbed.set_date(kProbeDate);
  mitm::Interceptor interceptor(testbed.universe(), testbed.cloud(),
                                0xB0BE ^ 0x9999);
  auto& runtime = testbed.runtime(device);
  const auto& dest = first_destination(runtime.profile());
  DeviceRecord record;
  for (const auto& ca : all_candidates(testbed.universe())) {
    const auto unknown =
        run_alert_probe(testbed.network(), runtime, interceptor, dest,
                        kProbeDate, mitm::InterceptMode::unknown_ca())
            .alert;
    const auto spoofed =
        run_alert_probe(testbed.network(), runtime, interceptor, dest,
                        kProbeDate,
                        mitm::InterceptMode::spoofed_ca(
                            testbed.universe().authority(ca).root()))
            .alert;
    Verdict verdict = Verdict::Inconclusive;
    if (unknown.has_value() && spoofed.has_value()) {
      verdict = *unknown != *spoofed ? Verdict::Present : Verdict::Absent;
    }
    record.pairs[ca] = {verdict_name(verdict), tls::alert_display(unknown),
                        tls::alert_display(spoofed)};
  }
  record.next_hello = next_client_hello(testbed, device);
  return record;
}

TEST(ProberOracle, EveryPairMatchesAReferenceLoop) {
  // Both sides of every device fan out together; each builds its own
  // sandboxes, so they share nothing but the CA universe and the memos.
  std::vector<std::pair<std::string, bool>> jobs;
  for (const auto& device : kAmenable) {
    jobs.emplace_back(device, true);
    jobs.emplace_back(device, false);
  }
  (void)pki::CaUniverse::standard();
  const auto records = common::parallel_map(
      0, jobs, [](const std::pair<std::string, bool>& job) {
        return job.second ? prober_record(job.first)
                          : reference_record(job.first);
      });

  const auto candidates = all_candidates(pki::CaUniverse::standard());
  for (std::size_t i = 0; i < kAmenable.size(); ++i) {
    const std::string& device = kAmenable[i];
    const DeviceRecord& got = records[2 * i];
    const DeviceRecord& want = records[2 * i + 1];
    ASSERT_EQ(got.pairs.size(), candidates.size()) << device;
    ASSERT_EQ(want.pairs.size(), candidates.size()) << device;
    int present = 0;
    for (const auto& ca : candidates) {
      const PairRecord& pair = got.pairs.at(ca);
      EXPECT_EQ(pair, want.pairs.at(ca)) << device << " / " << ca;
      if (pair.verdict == "present") ++present;
    }
    EXPECT_GT(present, 0) << device;
    // The runtimes' per-connection random streams ended at the same point.
    EXPECT_EQ(got.next_hello, want.next_hello) << device;
  }
}

std::size_t connection_spans(const obs::TraceLog& trace) {
  std::size_t count = 0;
  for (const auto& span : trace.spans()) {
    if (span.name().starts_with("conn:")) ++count;
  }
  return count;
}

TEST(ProberOracle, OutsideFailureStateIsProbedForReal) {
  // One testbed shared by the prober and an outside caller: a connection
  // the prober did not make can leave a failure streak, or (Yi Camera,
  // after three failures) disabled validation, and a probe starting from
  // such a state must run its baseline for real.
  obs::TraceLog trace(obs::TraceLevel::Handshake);
  testbed::Testbed::Options options;
  options.devices = {"LG TV", "Yi Camera"};
  options.trace = &trace;
  testbed::Testbed testbed(options);
  RootStoreProber prober(testbed);
  const std::string ca = "WoSign CA Free SSL";
  // One probe pair, and the connections it put on the wire.
  const auto probe = [&](const std::string& device) {
    const std::size_t before = connection_spans(trace);
    const ProbeOutcome outcome = prober.probe_certificate(device, ca);
    return std::make_pair(outcome, connection_spans(trace) - before);
  };
  mitm::Interceptor outside(testbed.universe(), testbed.cloud());
  const auto fail_outside = [&](const std::string& device) {
    auto& runtime = testbed.runtime(device);
    outside.set_mode(mitm::InterceptMode::unknown_ca());
    outside.install(testbed.network());
    const auto outcome = runtime.connect_to(
        first_destination(runtime.profile()), kProbeDate);
    (void)outside.drain();
    outside.uninstall(testbed.network());
    EXPECT_FALSE(outcome.final_result().success()) << device;
  };

  // LG TV: the first pair runs both probes, the second reuses the
  // baseline, and after a failure streak of one the baseline runs again.
  const auto [first, first_connections] = probe("LG TV");
  ASSERT_EQ(first.verdict, Verdict::Present);
  EXPECT_EQ(first_connections, 2u);
  const auto [served, served_connections] = probe("LG TV");
  EXPECT_EQ(served_connections, 1u);
  EXPECT_EQ(served.alert_unknown, first.alert_unknown);
  fail_outside("LG TV");
  ASSERT_EQ(testbed.runtime("LG TV").failure_streak(), 1);
  const auto [streak, streak_connections] = probe("LG TV");
  EXPECT_EQ(streak_connections, 2u);
  EXPECT_EQ(streak.alert_unknown, first.alert_unknown);
  EXPECT_EQ(streak.verdict, Verdict::Present);

  // Yi Camera: with validation disabled the baseline handshake completes
  // and the device sends no alert at all. The probe resets that state, so
  // the next pair is served the stored baseline again.
  const auto [baseline, baseline_connections] = probe("Yi Camera");
  ASSERT_TRUE(baseline.alert_unknown.has_value());
  EXPECT_EQ(baseline_connections, 2u);
  for (int i = 0; i < 3; ++i) fail_outside("Yi Camera");
  ASSERT_TRUE(testbed.runtime("Yi Camera").validation_disabled());
  const auto [disabled, disabled_connections] = probe("Yi Camera");
  EXPECT_EQ(disabled_connections, 2u);
  EXPECT_FALSE(disabled.alert_unknown.has_value());
  EXPECT_EQ(disabled.verdict, Verdict::Inconclusive);
  EXPECT_FALSE(testbed.runtime("Yi Camera").validation_disabled());
  const auto [again, again_connections] = probe("Yi Camera");
  EXPECT_EQ(again_connections, 1u);
  EXPECT_EQ(again.alert_unknown, baseline.alert_unknown);
}

}  // namespace
}  // namespace iotls::probe
