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
#pragma once

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

  /// Probe one candidate root certificate on one device.
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
  /// Run one intercepted boot-time connection; returns the alert the
  /// device sent (nullopt = silent failure or no traffic).
  std::optional<tls::Alert> run_probe(const std::string& device_name,
                                      mitm::InterceptMode mode);

  testbed::Testbed* testbed_;
  mitm::Interceptor interceptor_;
};

}  // namespace iotls::probe
