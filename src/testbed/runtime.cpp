#include "testbed/runtime.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "testbed/cloud.hpp"

namespace iotls::testbed {

namespace {

struct RuntimeMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();

  obs::Counter& connections = reg.counter(
      "iotls_testbed_connections_total",
      "Device connection attempts through the testbed network");

  obs::Counter& fallback_retries(const std::string& trigger) {
    return reg.counter("iotls_testbed_fallback_retries_total",
                       "Table 5 downgrade retries, by what triggered them",
                       "trigger", trigger);
  }

  static RuntimeMetrics& get() {
    static RuntimeMetrics metrics;
    return metrics;
  }
};

}  // namespace

int BootResult::successes() const {
  return static_cast<int>(std::count_if(
      connections.begin(), connections.end(),
      [](const ConnectionOutcome& c) { return c.final_result().success(); }));
}

DeviceRuntime::DeviceRuntime(const devices::DeviceProfile& profile,
                             const pki::CaUniverse& universe,
                             net::Network& network,
                             const pki::RevocationList* revocations)
    : profile_(profile),
      network_(network),
      roots_(profile.build_root_store(universe)),
      revocations_(revocations) {
  // Every device must be able to verify the legitimate cloud: its store
  // always contains the farm's issuing CA (DESIGN.md: the paper's devices
  // all completed legitimate connections before any attack was mounted).
  roots_.add(universe.authority(CloudFarm::kDefaultCaName).root());
}

tls::ClientConfig DeviceRuntime::effective_config(
    const devices::DestinationSpec& dest, common::SimDate now) const {
  tls::ClientConfig config =
      profile_.config_at(dest.instance_id, now.to_month());
  if (validation_disabled_) {
    config.verify_policy = x509::VerifyPolicy::none();
  }
  // Table 8: only the CRL/OCSP devices consult the revocation list.
  if (revocations_ != nullptr &&
      (profile_.revocation.crl || profile_.revocation.ocsp)) {
    config.revocation_list = revocations_;
  }
  return config;
}

tls::ClientResult DeviceRuntime::run_connection(
    const devices::DestinationSpec& dest, const tls::ClientConfig& config,
    common::SimDate now) {
  auto connection =
      network_.connect(dest.hostname, profile_.name, now.to_month());
  if (obs::metrics_enabled()) RuntimeMetrics::get().connections.inc();
  // Per-connection stream: split on the counter first (so every attempt —
  // including fallback retries — gets an unrelated stream), then on the
  // hostname. Pure function of (seed, counter, hostname): replaying a
  // device reproduces every connection's randomness regardless of what
  // other devices or workers are doing.
  common::Rng rng(common::split_seed(
      common::split_seed(profile_.seed, connection_counter_++),
      "conn:" + dest.hostname));
  tls::ClientConfig traced_config = config;
  if (connection.span != nullptr) traced_config.span = connection.span.get();
  tls::TlsClient client(std::move(traced_config), &roots_, rng, now);

  const common::Bytes payload =
      dest.sensitive_payload.empty()
          ? common::to_bytes("GET /telemetry?device=" + profile_.name)
          : common::to_bytes(dest.sensitive_payload);
  tls::ClientResult result =
      client.connect(*connection.transport, dest.hostname, payload);
  network_.finish(connection);
  return result;
}

void DeviceRuntime::note_outcome(const tls::ClientResult& result) {
  if (result.success()) {
    consecutive_failures_ = 0;
    return;
  }
  ++consecutive_failures_;
  if (profile_.disable_validation_after_failures > 0 &&
      consecutive_failures_ >= profile_.disable_validation_after_failures) {
    validation_disabled_ = true;  // the Yi Camera quirk (§5.2)
  }
}

ConnectionOutcome DeviceRuntime::connect_to(
    const devices::DestinationSpec& dest, common::SimDate now) {
  ConnectionOutcome outcome;
  outcome.destination = &dest;
  outcome.result = run_connection(dest, effective_config(dest, now), now);
  note_outcome(outcome.result);

  // Table 5: retry with the downgraded configuration on failure.
  if (!outcome.result.success() && profile_.fallback.has_value() &&
      dest.downgrade_susceptible) {
    const auto& fb = *profile_.fallback;
    const bool incomplete =
        outcome.result.outcome == tls::HandshakeOutcome::NoServerResponse;
    const bool failed =
        outcome.result.outcome == tls::HandshakeOutcome::ValidationFailed ||
        outcome.result.outcome == tls::HandshakeOutcome::ServerAlert;
    if ((incomplete && fb.on_incomplete_handshake) ||
        (failed && fb.on_failed_handshake)) {
      tls::ClientConfig fallback_config = fb.fallback_config;
      if (validation_disabled_) {
        fallback_config.verify_policy = x509::VerifyPolicy::none();
      }
      if (obs::metrics_enabled()) {
        RuntimeMetrics::get()
            .fallback_retries(incomplete ? "incomplete_handshake"
                                         : "failed_handshake")
            .inc();
      }
      outcome.used_fallback = true;
      outcome.fallback_result = run_connection(dest, fallback_config, now);
      note_outcome(*outcome.fallback_result);
    }
  }
  return outcome;
}

void DeviceRuntime::note_repeated_success() {
  skip_connections(1);
  consecutive_failures_ = 0;
}

void DeviceRuntime::skip_connections(std::uint64_t count) {
  connection_counter_ += count;
}

BootResult DeviceRuntime::boot(common::SimDate now,
                               bool include_intermittent) {
  ++boot_counter_;
  BootResult result;
  for (const auto& dest : profile_.destinations) {
    if (dest.intermittent && !include_intermittent) continue;
    result.connections.push_back(connect_to(dest, now));
  }
  return result;
}

void DeviceRuntime::reset_failure_state() {
  consecutive_failures_ = 0;
  validation_disabled_ = false;
}

}  // namespace iotls::testbed
