#include "mitm/runner.hpp"

#include <algorithm>
#include <set>

namespace iotls::mitm {

namespace {

constexpr common::SimDate kExperimentDate{2021, 3, 15};  // §4.1

/// Max versions / weaker-set comparison used by is_downgraded_hello.
bool suite_set_weaker(const std::vector<std::uint16_t>& original,
                      const std::vector<std::uint16_t>& retry) {
  // Strictly fewer suites offered, or newly-insecure-only selection.
  if (retry.size() < original.size()) return true;
  const bool orig_strong = std::any_of(original.begin(), original.end(),
                                       tls::suite_is_strong);
  const bool retry_strong = std::any_of(retry.begin(), retry.end(),
                                        tls::suite_is_strong);
  return orig_strong && !retry_strong;
}

bool sigalgs_weaker(const tls::ClientHello& original,
                    const tls::ClientHello& retry) {
  auto schemes = [](const tls::ClientHello& hello) {
    std::vector<tls::SignatureScheme> out;
    const auto* ext = tls::find_extension(
        hello.extensions, tls::ExtensionType::SignatureAlgorithms);
    if (ext != nullptr) out = tls::parse_signature_algorithms(ext->payload);
    return out;
  };
  const auto orig = schemes(original);
  const auto now = schemes(retry);
  const auto has_sha1_only = [](const std::vector<tls::SignatureScheme>& v) {
    return !v.empty() &&
           std::all_of(v.begin(), v.end(), [](tls::SignatureScheme s) {
             return s == tls::SignatureScheme::RsaPkcs1Sha1;
           });
  };
  return !has_sha1_only(orig) && has_sha1_only(now);
}

}  // namespace

bool is_downgraded_hello(const tls::ClientHello& original,
                         const tls::ClientHello& retry) {
  if (retry.max_advertised_version() < original.max_advertised_version()) {
    return true;
  }
  if (suite_set_weaker(original.cipher_suites, retry.cipher_suites)) {
    return true;
  }
  return sigalgs_weaker(original, retry);
}

InterceptionReport run_interception_experiments(
    const testbed::Testbed::Options& recipe, int boots_per_attack,
    std::size_t threads) {
  const auto rows = testbed::sandbox_map(
      recipe, devices::active_device_names(), threads,
      [&](testbed::Testbed& bed, const std::string& device) {
        bed.set_date(kExperimentDate);
        Interceptor interceptor(bed.universe(), bed.cloud());
        auto& runtime = bed.runtime(device);
        InterceptionRow row;
        row.device = device;
        row.total_destinations =
            static_cast<int>(runtime.profile().destinations.size());
        std::set<std::string> vulnerable_hosts;

        for (const AttackKind attack : all_attacks()) {
          runtime.reset_failure_state();
          interceptor.set_mode(InterceptMode::make_attack(attack));
          interceptor.install(bed.network());

          for (int boot = 0; boot < boots_per_attack; ++boot) {
            (void)runtime.boot(kExperimentDate,
                               /*include_intermittent=*/true);
          }
          const auto interceptions = interceptor.drain();
          interceptor.uninstall(bed.network());

          bool attack_succeeded = false;
          for (const auto& inter : interceptions) {
            if (!inter.compromised()) continue;
            attack_succeeded = true;
            vulnerable_hosts.insert(inter.hostname);
            const std::string plaintext =
                common::to_string(inter.recovered_plaintext);
            // Record recovered payloads that carry secrets (not mere
            // telemetry GETs).
            if (plaintext.find("GET /telemetry") == std::string::npos &&
                std::find(row.leaked_samples.begin(),
                          row.leaked_samples.end(),
                          plaintext) == row.leaked_samples.end()) {
              row.leaked_samples.push_back(plaintext);
            }
          }
          switch (attack) {
            case AttackKind::NoValidation:
              row.no_validation = attack_succeeded;
              break;
            case AttackKind::WrongHostname:
              row.wrong_hostname = attack_succeeded;
              break;
            case AttackKind::InvalidBasicConstraints:
              row.invalid_basic_constraints = attack_succeeded;
              break;
          }
          runtime.reset_failure_state();
        }

        row.vulnerable_destinations =
            static_cast<int>(vulnerable_hosts.size());
        return row;
      });

  InterceptionReport report;
  for (const auto& row : rows) {
    ++report.devices_tested;
    // §5.2: "seven devices do not perform any certificate validation" —
    // i.e. the self-signed attack succeeded against them.
    if (row.no_validation) ++report.devices_without_any_validation;
    if (row.vulnerable()) {
      if (!row.leaked_samples.empty()) ++report.devices_with_sensitive_leaks;
      report.rows.push_back(row);
    }
  }
  // Paper order: fully-vulnerable devices first, by vulnerable count desc.
  std::sort(report.rows.begin(), report.rows.end(),
            [](const InterceptionRow& a, const InterceptionRow& b) {
              if (a.no_validation != b.no_validation) return a.no_validation;
              if (a.vulnerable_destinations != b.vulnerable_destinations) {
                return a.vulnerable_destinations > b.vulnerable_destinations;
              }
              return a.device < b.device;
            });
  return report;
}

DowngradeReport run_downgrade_experiments(
    const testbed::Testbed::Options& recipe, std::size_t threads) {
  const auto rows = testbed::sandbox_map(
      recipe, devices::active_device_names(), threads,
      [&](testbed::Testbed& bed, const std::string& device) {
        bed.set_date(kExperimentDate);
        Interceptor interceptor(bed.universe(), bed.cloud());
        auto& runtime = bed.runtime(device);
        DowngradeRow row;
        row.device = device;
        if (runtime.profile().fallback) {
          row.behavior = runtime.profile().fallback->behavior;
        }
        std::set<std::string> downgraded_hosts;
        std::set<std::string> contacted_hosts;

        for (const FailureKind failure :
             {FailureKind::FailedHandshake,
              FailureKind::IncompleteHandshake}) {
          runtime.reset_failure_state();
          interceptor.set_mode(InterceptMode::make_failure(failure));
          interceptor.install(bed.network());
          const auto boot = runtime.boot(kExperimentDate);
          interceptor.uninstall(bed.network());
          runtime.reset_failure_state();

          bool downgrade_seen = false;
          for (const auto& conn : boot.connections) {
            contacted_hosts.insert(conn.destination->hostname);
            if (!conn.used_fallback) continue;
            if (is_downgraded_hello(conn.result.hello,
                                    conn.fallback_result->hello)) {
              downgrade_seen = true;
              downgraded_hosts.insert(conn.destination->hostname);
            }
          }
          if (failure == FailureKind::FailedHandshake) {
            row.on_failed_handshake = downgrade_seen;
          } else {
            row.on_incomplete_handshake = downgrade_seen;
          }
        }

        row.downgraded_destinations =
            static_cast<int>(downgraded_hosts.size());
        row.total_destinations = static_cast<int>(contacted_hosts.size());
        return row;
      });

  DowngradeReport report;
  for (const auto& row : rows) {
    ++report.devices_tested;
    if (row.on_failed_handshake || row.on_incomplete_handshake) {
      report.rows.push_back(row);
    }
  }
  std::sort(report.rows.begin(), report.rows.end(),
            [](const DowngradeRow& a, const DowngradeRow& b) {
              return a.device < b.device;
            });
  return report;
}

OldVersionReport run_old_version_experiments(
    const testbed::Testbed::Options& recipe, std::size_t threads) {
  const auto rows = testbed::sandbox_map(
      recipe, devices::active_device_names(), threads,
      [&](testbed::Testbed& bed, const std::string& device) {
        bed.set_date(kExperimentDate);
        Interceptor interceptor(bed.universe(), bed.cloud());
        auto& runtime = bed.runtime(device);
        OldVersionRow row;
        row.device = device;

        for (const auto version :
             {tls::ProtocolVersion::Tls1_0, tls::ProtocolVersion::Tls1_1}) {
          interceptor.set_mode(InterceptMode::make_old_version(version));
          interceptor.install(bed.network());
          runtime.reset_failure_state();
          const auto boot = runtime.boot(kExperimentDate);
          interceptor.uninstall(bed.network());
          runtime.reset_failure_state();

          // The device "supports" the version if any connection
          // *established* it (completed the handshake at that version).
          const bool accepted = std::any_of(
              boot.connections.begin(), boot.connections.end(),
              [&](const testbed::ConnectionOutcome& conn) {
                return conn.result.success() &&
                       conn.result.negotiated_version == version;
              });
          if (version == tls::ProtocolVersion::Tls1_0) {
            row.tls10 = accepted;
          } else {
            row.tls11 = accepted;
          }
        }
        return row;
      });

  OldVersionReport report;
  for (const auto& row : rows) {
    ++report.devices_tested;
    if (row.tls10 || row.tls11) report.rows.push_back(row);
  }
  std::sort(report.rows.begin(), report.rows.end(),
            [](const OldVersionRow& a, const OldVersionRow& b) {
              if (a.tls10 != b.tls10) return a.tls10;
              return a.device < b.device;
            });
  return report;
}

PassthroughReport run_passthrough_experiments(
    const testbed::Testbed::Options& recipe, std::size_t threads) {
  struct DeviceTally {
    int baseline_hosts = 0;
    int extra_hosts = 0;
    bool new_failures = false;
  };

  const auto tallies = testbed::sandbox_map(
      recipe, devices::active_device_names(), threads,
      [&](testbed::Testbed& bed, const std::string& device) {
        bed.set_date(kExperimentDate);
        Interceptor interceptor(bed.universe(), bed.cloud());
        auto& runtime = bed.runtime(device);
        interceptor.set_mode(
            InterceptMode::make_attack(AttackKind::NoValidation));
        DeviceTally tally;

        // Pass 1: intercept everything; note which hostnames failed and
        // which were compromised.
        runtime.reset_failure_state();
        interceptor.install(bed.network());
        const auto attacked = runtime.boot(kExperimentDate);
        const auto pass1 = interceptor.drain();
        interceptor.uninstall(bed.network());
        runtime.reset_failure_state();

        std::set<std::string> failed_hosts;
        std::set<std::string> seen_hosts;
        for (const auto& conn : attacked.connections) {
          seen_hosts.insert(conn.destination->hostname);
          if (!conn.final_result().success()) {
            failed_hosts.insert(conn.destination->hostname);
          }
        }
        std::set<std::string> compromised_hosts;
        for (const auto& inter : pass1) {
          if (inter.compromised()) compromised_hosts.insert(inter.hostname);
        }

        // Pass 2: same attack, but pass through previously-failed
        // connections; successful earlier flows unlock the intermittent
        // destinations.
        interceptor.set_passthrough(failed_hosts);
        interceptor.install(bed.network());
        const auto repeated = runtime.boot(
            kExperimentDate, /*include_intermittent=*/true);
        const auto interceptions = interceptor.drain();
        interceptor.uninstall(bed.network());
        interceptor.clear_passthrough();
        runtime.reset_failure_state();

        std::set<std::string> pass2_hosts;
        for (const auto& conn : repeated.connections) {
          pass2_hosts.insert(conn.destination->hostname);
        }
        // A "new certificate validation failure" (§4.2) would be a
        // successful interception of a connection the first pass did not
        // compromise.
        for (const auto& inter : interceptions) {
          if (inter.compromised() &&
              !compromised_hosts.count(inter.hostname)) {
            tally.new_failures = true;
          }
        }
        tally.baseline_hosts = static_cast<int>(seen_hosts.size());
        for (const auto& host : pass2_hosts) {
          if (!seen_hosts.count(host)) ++tally.extra_hosts;
        }
        return tally;
      });

  PassthroughReport report;
  int baseline_hosts = 0;
  int extra_hosts = 0;
  for (const auto& tally : tallies) {
    baseline_hosts += tally.baseline_hosts;
    extra_hosts += tally.extra_hosts;
    report.new_failures_found |= tally.new_failures;
    ++report.devices_tested;
  }
  if (baseline_hosts > 0) {
    report.extra_destination_fraction =
        static_cast<double>(extra_hosts) / baseline_hosts;
  }
  return report;
}

}  // namespace iotls::mitm
