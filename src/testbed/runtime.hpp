// Device runtime: turns a DeviceProfile into live TLS behaviour.
//
// A boot replays the device's destination schedule in order (the
// determinism §4.2's probing relies on), applies firmware updates by date,
// runs the downgrade-on-failure retry logic (Table 5), and implements the
// Yi Camera's disable-validation-after-3-failures quirk (§5.2).
#pragma once

#include <optional>
#include <vector>

#include "devices/catalog.hpp"
#include "net/network.hpp"
#include "pki/universe.hpp"
#include "tls/client.hpp"

namespace iotls::testbed {

struct ConnectionOutcome {
  const devices::DestinationSpec* destination = nullptr;
  tls::ClientResult result;
  /// Set when the first attempt failed and the device retried with its
  /// fallback configuration (Table 5 behaviour).
  bool used_fallback = false;
  std::optional<tls::ClientResult> fallback_result;

  /// The result that "counts" (fallback result if a retry happened).
  [[nodiscard]] const tls::ClientResult& final_result() const {
    return used_fallback ? *fallback_result : result;
  }
};

struct BootResult {
  std::vector<ConnectionOutcome> connections;

  [[nodiscard]] int successes() const;
};

class DeviceRuntime {
 public:
  /// `revocations` (optional, non-owning) backs the CRL/OCSP checks of the
  /// Table 8 devices: a runtime whose profile declares crl/ocsp support
  /// consults it on every connection.
  DeviceRuntime(const devices::DeviceProfile& profile,
                const pki::CaUniverse& universe, net::Network& network,
                const pki::RevocationList* revocations = nullptr);

  /// Power-cycle: reconnect to every destination in schedule order.
  /// `include_intermittent` adds the destinations that only appear after
  /// earlier successes (§4.2 TrafficPassthrough behaviour).
  BootResult boot(common::SimDate now, bool include_intermittent = false);

  /// Connect to a single destination (used by the prober, which needs one
  /// targeted connection per reboot).
  ConnectionOutcome connect_to(const devices::DestinationSpec& dest,
                               common::SimDate now);

  /// The runtime state change of a connect_to whose first attempt
  /// succeeds, without running it: the connection counter advances by one
  /// and the failure streak resets. replay_months applies it when it
  /// re-stamps a destination's memoised records.
  void note_repeated_success();

  /// Advance the connection counter past `count` connections that are not
  /// run, so later connections keep the per-connection random streams
  /// they would have had. The prober applies it when it serves a memoised
  /// baseline probe.
  void skip_connections(std::uint64_t count);

  [[nodiscard]] const devices::DeviceProfile& profile() const {
    return profile_;
  }
  [[nodiscard]] const pki::RootStore& root_store() const { return roots_; }
  [[nodiscard]] int failure_streak() const { return consecutive_failures_; }
  [[nodiscard]] bool validation_disabled() const {
    return validation_disabled_;
  }
  void reset_failure_state();

 private:
  tls::ClientConfig effective_config(const devices::DestinationSpec& dest,
                                     common::SimDate now) const;
  tls::ClientResult run_connection(const devices::DestinationSpec& dest,
                                   const tls::ClientConfig& config,
                                   common::SimDate now);
  void note_outcome(const tls::ClientResult& result);

  const devices::DeviceProfile& profile_;
  net::Network& network_;
  pki::RootStore roots_;
  const pki::RevocationList* revocations_;
  std::uint64_t boot_counter_ = 0;
  std::uint64_t connection_counter_ = 0;
  int consecutive_failures_ = 0;
  bool validation_disabled_ = false;
};

}  // namespace iotls::testbed
