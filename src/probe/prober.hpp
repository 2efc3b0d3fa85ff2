// Root-store exploration via the TLS-alert side channel — the paper's
// novel technique (§4.2).
//
// For each candidate root certificate:
//   1. intercept a boot-time connection with a chain anchored at an
//      *unknown* CA → the device's alert (or silence) is the baseline;
//   2. intercept the same connection with a chain anchored at a *spoofed*
//      copy of the candidate (same subject/issuer/serial, our key);
//   3. if the alerts differ, the candidate is in the device's root store
//      (signature error ⇒ present; unknown-CA alert again ⇒ absent).
//
// A device is amenable iff step 2 on a known-included certificate yields a
// different alert than step 1 (Table 4 behaviour of its TLS library).
//
// Each step is one run_alert_probe, the side channel's one primitive; the
// fleet scan campaign's deprecated-CA probe uses it too. Step 1 does not
// depend on the candidate: its inputs are the device, the interceptor's
// identity, the §4.1 date and the runtime's failure state, and every probe
// resets that state. So step 1 runs once per device state: a prober runs
// it for real the first time a device is probed from the reset failure
// state (no failure streak, validation enabled) and keeps the alert and
// the connection count. Later probes from that state reuse them and
// advance the runtime's connection counter as the real run would have; a
// probe from any other state (an outside connection left a failure
// streak, or disabled validation) runs step 1 for real.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "mitm/interceptor.hpp"
#include "testbed/testbed.hpp"

namespace iotls::probe {

enum class Verdict {
  Present,
  Absent,
  /// The probe produced no usable signal (device generated no traffic this
  /// boot, or sent no alert).
  Inconclusive,
};

std::string verdict_name(Verdict verdict);

/// What one alert probe observed.
struct AlertProbe {
  /// The alert the device sent the interceptor on its first attempt
  /// (nullopt = silent failure or no traffic).
  std::optional<tls::Alert> alert;
  /// Connections the device made: two when it retried with its fallback
  /// configuration (Table 5 behaviour), else one.
  std::uint64_t connections = 0;
};

/// One interceptor-mediated connection: install `interceptor` in `mode` on
/// `network`, let `runtime` connect to `dest` at `date`, drain and
/// uninstall the interceptor, and reset the runtime's failure state. Runs
/// under the `probe/alert_probe` profile zone.
AlertProbe run_alert_probe(net::Network& network,
                           testbed::DeviceRuntime& runtime,
                           mitm::Interceptor& interceptor,
                           const devices::DestinationSpec& dest,
                           common::SimDate date, mitm::InterceptMode mode);

struct ProbeOutcome {
  Verdict verdict = Verdict::Inconclusive;
  std::optional<tls::Alert> alert_unknown;  // baseline alert
  std::optional<tls::Alert> alert_spoofed;  // spoofed-CA alert
};

/// Aggregate over one certificate set (a Table 9 cell).
struct ExplorationResult {
  int present = 0;
  int checked = 0;        // conclusive probes
  int inconclusive = 0;
  std::map<std::string, Verdict> verdicts;  // per CA name

  [[nodiscard]] double fraction() const {
    return checked > 0 ? static_cast<double>(present) / checked : 0.0;
  }
};

/// One Table 9 row: a device's common-set and deprecated-set results.
struct RootStoreExploration {
  ExplorationResult common;
  ExplorationResult deprecated;
};

/// Devices eligible for probing: active, reboot-safe, and validating on
/// the probe path (§5.2 exclusions), in catalog order.
std::vector<std::string> eligible_devices();

/// The one root-store exploration (Table 9, Fig 4), in three stages:
///   1. amenability: each eligible device is tested in its own sandbox;
///   2. masks: the inconclusive draws, made serially on the coordinating
///      thread from `Rng::derive(seed, "root-store-prober")` in
///      amenable-device order, common set then deprecated set, each CA
///      skipped with the device's inconclusive rate for that set;
///   3. exploration: each amenable device probes both sets, with its
///      masks, in its own sandbox.
/// Both fan-outs go through testbed::sandbox_map over `recipe` (spans go
/// to `recipe.trace`), so the result and the trace are identical at any
/// `threads` (0 = hardware concurrency, 1 = serial). Keyed by device.
std::map<std::string, RootStoreExploration> explore_root_stores(
    const testbed::Testbed::Options& recipe, std::uint64_t seed,
    std::size_t threads = 0);

/// The probe primitives over one testbed (usually a sandbox). The prober
/// sets the testbed's date to the §4.1 snapshot.
class RootStoreProber {
 public:
  explicit RootStoreProber(testbed::Testbed& testbed,
                           std::uint64_t seed = 0xB0BE);

  /// §4.2 amenability test: does this device emit *different* alerts for
  /// spoofed-known vs unknown CA?
  [[nodiscard]] bool device_amenable(const std::string& device_name);

  /// Probe one candidate root certificate on one device. The probe span
  /// records both alerts, also when step 1 was served from the memo.
  ProbeOutcome probe_certificate(const std::string& device_name,
                                 const std::string& ca_name);

  /// Probe a whole certificate set. `inconclusive_mask[i]` skips
  /// ca_names[i] as a probe run that produced no traffic (Table 9's
  /// varying denominators); out-of-range indices count as conclusive, so
  /// an empty mask probes every name.
  ExplorationResult explore(const std::string& device_name,
                            const std::vector<std::string>& ca_names,
                            const std::vector<bool>& inconclusive_mask);

 private:
  /// Run one intercepted boot-time connection.
  AlertProbe run_probe(const std::string& device_name,
                       mitm::InterceptMode mode);

  /// Step 1, the unknown-CA baseline: served from `baselines_` when the
  /// device starts from the reset failure state and has a stored entry,
  /// else run (and stored, from the reset state). A served baseline opens
  /// no interceptor session and emits no connection span.
  std::optional<tls::Alert> baseline(const std::string& device_name);

  testbed::Testbed* testbed_;
  mitm::Interceptor interceptor_;
  /// Per device: the baseline run from the reset failure state.
  std::map<std::string, AlertProbe> baselines_;
};

}  // namespace iotls::probe
