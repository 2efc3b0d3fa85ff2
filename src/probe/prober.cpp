#include "probe/prober.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "devices/catalog.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "tls/alert.hpp"

namespace iotls::probe {

namespace {

constexpr common::SimDate kProbeDate{2021, 3, 20};  // §4.1 snapshot

struct ProbeMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();

  obs::Counter& pairs = reg.counter(
      "iotls_probe_pairs_total",
      "Spoofed/unknown probe pairs run against devices");

  obs::Counter& verdicts(const std::string& verdict) {
    return reg.counter("iotls_probe_verdicts_total",
                       "Root-store probe verdicts", "verdict", verdict);
  }

  static ProbeMetrics& get() {
    static ProbeMetrics metrics;
    return metrics;
  }
};

/// Trace annotation for a probe's alert observation: the Table-4 display
/// form plus the classification axis the verdict logic keys on.
std::string alert_class_attr(const std::optional<tls::Alert>& alert) {
  if (!alert.has_value()) return "none";
  return tls::alert_class_name(tls::alert_classify(alert->description));
}

/// The probe targets the device's boot-time first connection — the same
/// TLS instance every reboot (§4.2's determinism requirement).
const devices::DestinationSpec& probe_destination(
    const devices::DeviceProfile& profile) {
  for (const auto& dest : profile.destinations) {
    if (!dest.intermittent) return dest;
  }
  throw common::ProtocolError(profile.name + " has no probe destination");
}

}  // namespace

std::string verdict_name(Verdict verdict) {
  switch (verdict) {
    case Verdict::Present: return "present";
    case Verdict::Absent: return "absent";
    case Verdict::Inconclusive: return "inconclusive";
  }
  return "unknown";
}

AlertProbe run_alert_probe(net::Network& network,
                           testbed::DeviceRuntime& runtime,
                           mitm::Interceptor& interceptor,
                           const devices::DestinationSpec& dest,
                           common::SimDate date, mitm::InterceptMode mode) {
  const obs::ProfileZone zone("probe/alert_probe");
  interceptor.set_mode(std::move(mode));
  interceptor.install(network);
  const testbed::ConnectionOutcome outcome = runtime.connect_to(dest, date);
  const auto interceptions = interceptor.drain();
  interceptor.uninstall(network);
  runtime.reset_failure_state();

  AlertProbe probe;
  probe.connections = outcome.used_fallback ? 2 : 1;
  if (!interceptions.empty()) {
    probe.alert = interceptions.front().alert_received;
  }
  return probe;
}

std::vector<std::string> eligible_devices() {
  std::vector<std::string> out;
  for (const auto* profile : devices::active_devices()) {
    if (!profile->reboot_safe) continue;  // §5.2: no repeated reboots
    const auto& dest = probe_destination(*profile);
    const auto& instance = profile->instance_for_destination(dest);
    if (!instance.config.verify_policy.validate) continue;  // §5.2
    out.push_back(profile->name);
  }
  return out;
}

std::map<std::string, RootStoreExploration> explore_root_stores(
    const testbed::Testbed::Options& recipe, std::uint64_t seed,
    std::size_t threads) {
  const pki::CaUniverse& universe = recipe.universe != nullptr
                                        ? *recipe.universe
                                        : pki::CaUniverse::standard();
  const auto common_names = universe.common_ca_names();
  const auto deprecated_names = universe.deprecated_ca_names();

  const auto eligible = eligible_devices();
  const auto amenable_flags = testbed::sandbox_map(
      recipe, eligible, threads,
      [&](testbed::Testbed& sandbox, const std::string& device) {
        return RootStoreProber(sandbox, seed).device_amenable(device);
      });
  std::vector<std::string> amenable;
  for (std::size_t i = 0; i < eligible.size(); ++i) {
    if (amenable_flags[i]) amenable.push_back(eligible[i]);
  }

  common::Rng rng = common::Rng::derive(seed, "root-store-prober");
  const auto draw_mask = [&](std::size_t count, double rate) {
    std::vector<bool> mask(count);
    for (std::size_t i = 0; i < count; ++i) mask[i] = rng.chance(rate);
    return mask;
  };
  std::map<std::string, std::vector<bool>> common_masks;
  std::map<std::string, std::vector<bool>> deprecated_masks;
  for (const auto& device : amenable) {
    const auto& store = devices::find_device(device)->root_store;
    common_masks[device] =
        draw_mask(common_names.size(), store.inconclusive_common);
    deprecated_masks[device] =
        draw_mask(deprecated_names.size(), store.inconclusive_deprecated);
  }

  auto explorations = testbed::sandbox_map(
      recipe, amenable, threads,
      [&](testbed::Testbed& sandbox, const std::string& device) {
        RootStoreProber prober(sandbox, seed);
        RootStoreExploration exploration;
        exploration.common =
            prober.explore(device, common_names, common_masks.at(device));
        exploration.deprecated = prober.explore(
            device, deprecated_names, deprecated_masks.at(device));
        return exploration;
      });
  std::map<std::string, RootStoreExploration> results;
  for (std::size_t i = 0; i < amenable.size(); ++i) {
    results.emplace(amenable[i], std::move(explorations[i]));
  }
  return results;
}

RootStoreProber::RootStoreProber(testbed::Testbed& testbed,
                                 std::uint64_t seed)
    : testbed_(&testbed),
      interceptor_(testbed.universe(), testbed.cloud(), seed ^ 0x9999) {
  testbed_->set_date(kProbeDate);
}

AlertProbe RootStoreProber::run_probe(const std::string& device_name,
                                      mitm::InterceptMode mode) {
  auto& runtime = testbed_->runtime(device_name);
  return run_alert_probe(testbed_->network(), runtime, interceptor_,
                         probe_destination(runtime.profile()), kProbeDate,
                         std::move(mode));
}

std::optional<tls::Alert> RootStoreProber::baseline(
    const std::string& device_name) {
  auto& runtime = testbed_->runtime(device_name);
  const bool reset_state =
      runtime.failure_streak() == 0 && !runtime.validation_disabled();
  const auto stored = baselines_.find(device_name);
  if (reset_state && stored != baselines_.end()) {
    // A real run from the reset state leaves that state as it found it,
    // with the connection counter moved on by its connections.
    runtime.skip_connections(stored->second.connections);
    return stored->second.alert;
  }
  const AlertProbe probe =
      run_probe(device_name, mitm::InterceptMode::unknown_ca());
  if (reset_state) baselines_.emplace(device_name, probe);
  return probe.alert;
}

bool RootStoreProber::device_amenable(const std::string& device_name) {
  auto& runtime = testbed_->runtime(device_name);
  if (runtime.root_store().empty()) return false;
  // Calibrate with a certificate we know the device trusts.
  const x509::Certificate known_root = runtime.root_store().roots().front();

  const auto alert_unknown = baseline(device_name);
  const auto alert_spoofed =
      run_probe(device_name, mitm::InterceptMode::spoofed_ca(known_root))
          .alert;
  const bool amenable = alert_unknown.has_value() &&
                        alert_spoofed.has_value() &&
                        *alert_unknown != *alert_spoofed;
  obs::TraceLog* trace = testbed_->trace();
  if (trace != nullptr && trace->enabled()) {
    obs::Span span = trace->start_span("amenability:" + device_name);
    span.set_attr("device", device_name);
    span.event("probe_unknown", {{"alert", tls::alert_display(alert_unknown)},
                                 {"class", alert_class_attr(alert_unknown)}});
    span.event("probe_spoofed", {{"alert", tls::alert_display(alert_spoofed)},
                                 {"class", alert_class_attr(alert_spoofed)}});
    span.event("verdict", {{"amenable", amenable ? "true" : "false"}});
    trace->add(std::move(span));
  }
  return amenable;
}

ProbeOutcome RootStoreProber::probe_certificate(
    const std::string& device_name, const std::string& ca_name) {
  const auto& universe = testbed_->universe();
  const x509::Certificate& candidate = universe.authority(ca_name).root();

  ProbeOutcome outcome;
  outcome.alert_unknown = baseline(device_name);
  outcome.alert_spoofed =
      run_probe(device_name, mitm::InterceptMode::spoofed_ca(candidate))
          .alert;

  if (!outcome.alert_unknown.has_value() ||
      !outcome.alert_spoofed.has_value()) {
    outcome.verdict = Verdict::Inconclusive;
  } else {
    outcome.verdict = (*outcome.alert_spoofed != *outcome.alert_unknown)
                          ? Verdict::Present
                          : Verdict::Absent;
  }

  if (obs::metrics_enabled()) {
    auto& metrics = ProbeMetrics::get();
    metrics.pairs.inc();
    metrics.verdicts(verdict_name(outcome.verdict)).inc();
  }
  obs::TraceLog* trace = testbed_->trace();
  if (trace != nullptr && trace->enabled()) {
    // One span per probe pair: both alerts, and which signal decided it.
    obs::Span span = trace->start_span("probe:" + device_name + ":" + ca_name);
    span.set_attr("device", device_name);
    span.set_attr("ca", ca_name);
    span.event("probe_unknown",
               {{"alert", tls::alert_display(outcome.alert_unknown)},
                {"class", alert_class_attr(outcome.alert_unknown)}});
    span.event("probe_spoofed",
               {{"alert", tls::alert_display(outcome.alert_spoofed)},
                {"class", alert_class_attr(outcome.alert_spoofed)}});
    std::string signal;
    if (outcome.verdict == Verdict::Inconclusive) {
      signal = "missing_alert";
    } else if (outcome.verdict == Verdict::Present) {
      signal = "alerts_differ";
    } else {
      signal = "alerts_match";
    }
    span.event("verdict", {{"verdict", verdict_name(outcome.verdict)},
                           {"signal", signal}});
    trace->add(std::move(span));
  }
  return outcome;
}

ExplorationResult RootStoreProber::explore(
    const std::string& device_name, const std::vector<std::string>& ca_names,
    const std::vector<bool>& inconclusive_mask) {
  ExplorationResult result;
  for (std::size_t i = 0; i < ca_names.size(); ++i) {
    const auto& ca_name = ca_names[i];
    // Some probe attempts yield no traffic at all (the reboot produced no
    // connection to the targeted instance) — Table 9's denominators.
    if (i < inconclusive_mask.size() && inconclusive_mask[i]) {
      ++result.inconclusive;
      result.verdicts[ca_name] = Verdict::Inconclusive;
      continue;
    }
    const ProbeOutcome outcome = probe_certificate(device_name, ca_name);
    result.verdicts[ca_name] = outcome.verdict;
    if (outcome.verdict == Verdict::Inconclusive) {
      ++result.inconclusive;
      continue;
    }
    ++result.checked;
    if (outcome.verdict == Verdict::Present) ++result.present;
  }
  return result;
}

}  // namespace iotls::probe
