// Testbed assembly: the simulated smart home of §4.1 — all 40 devices, a
// smart plug per active device, the cloud farm, and the capture gateway.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/pool.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "pki/universe.hpp"
#include "testbed/cloud.hpp"
#include "testbed/plug.hpp"
#include "testbed/runtime.hpp"

namespace iotls::testbed {

class Testbed {
 public:
  struct Options {
    std::uint64_t seed = 42;
    /// Defaults to CaUniverse::standard().
    const pki::CaUniverse* universe = nullptr;
    /// Restrict the testbed to these devices (empty = whole catalog).
    /// Only their cloud destinations and, for the active ones, their
    /// runtimes are built — this is what makes per-device experiment
    /// sandboxes cheap.
    std::vector<std::string> devices;
    /// Trace log per-connection spans are committed to (non-owning, may be
    /// null). sandbox_map never hands it to a sandbox: each sandbox traces
    /// into its own local log, merged in input order by the coordinator,
    /// so traces stay byte-identical across thread counts.
    obs::TraceLog* trace = nullptr;
  };

  Testbed() : Testbed(Options{}) {}
  explicit Testbed(Options options);

  [[nodiscard]] const Options& options() const { return options_; }

  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] CloudFarm& cloud() { return *cloud_; }
  [[nodiscard]] const pki::CaUniverse& universe() const { return *universe_; }

  [[nodiscard]] DeviceRuntime& runtime(const std::string& device_name);
  [[nodiscard]] SmartPlug& plug(const std::string& device_name);
  [[nodiscard]] std::vector<std::string> device_names() const;

  /// Set the wall-clock for the whole testbed (cloud evolution +
  /// certificate validity).
  void set_date(common::SimDate date) { cloud_->set_current_date(date); }
  [[nodiscard]] common::SimDate date() const {
    return cloud_->current_date();
  }

  /// The ecosystem CRL consulted by this testbed's Table 8 CRL/OCSP
  /// devices. Every testbed, and so every sandbox, owns its own list.
  [[nodiscard]] pki::RevocationList& revocations() { return revocations_; }

  /// Re-point connection tracing (forwards to the network).
  void set_trace(obs::TraceLog* trace) { network_.set_trace(trace); }
  [[nodiscard]] obs::TraceLog* trace() const { return network_.trace(); }

 private:
  Options options_;
  const pki::CaUniverse* universe_;
  net::Network network_;
  pki::RevocationList revocations_;
  std::unique_ptr<CloudFarm> cloud_;
  std::map<std::string, std::unique_ptr<DeviceRuntime>> runtimes_;
  std::map<std::string, std::unique_ptr<SmartPlug>> plugs_;
};

/// The one per-device experiment fan-out. For each name in `devices`, on
/// a pool of `threads` workers (0 = hardware concurrency, 1 = serial), it
/// builds a single-device sandbox from `recipe` — the recipe's seed, CA
/// universe and revocation list; its own network, cloud endpoints and
/// runtime — and calls `fn(sandbox, device)`. Each sandbox traces into a
/// local log at the level of `recipe.trace` (none when that is null); the
/// coordinator merges the logs into `recipe.trace` in `devices` order.
/// Returns fn's results in `devices` order, so results and traces are
/// byte-identical at any thread count.
template <typename Fn>
auto sandbox_map(const Testbed::Options& recipe,
                 const std::vector<std::string>& devices, std::size_t threads,
                 Fn&& fn) {
  Testbed::Options base = recipe;
  // Resolved on the coordinating thread: a CaUniverse::standard() first
  // built inside a pool worker takes the pool's serial path.
  if (base.universe == nullptr) base.universe = &pki::CaUniverse::standard();
  base.trace = nullptr;
  const obs::TraceLevel level =
      recipe.trace != nullptr ? recipe.trace->level() : obs::TraceLevel::Off;
  auto outputs = common::parallel_map(
      threads, devices, [&](const std::string& device) {
        Testbed::Options options = base;
        options.devices = {device};
        obs::TraceLog local(level);
        if (local.enabled()) options.trace = &local;
        Testbed sandbox = [&] {
          const obs::ProfileZone zone("testbed/sandbox");
          return Testbed(std::move(options));
        }();
        auto result = fn(sandbox, device);
        return std::make_pair(std::move(result), std::move(local));
      });
  std::vector<typename decltype(outputs)::value_type::first_type> results;
  results.reserve(outputs.size());
  for (auto& [result, local] : outputs) {
    if (recipe.trace != nullptr) recipe.trace->merge(std::move(local));
    results.push_back(std::move(result));
  }
  return results;
}

/// One destination's connection in a replayed month: the records it left
/// in the sandbox capture (two when a fallback retry fired), stamped with
/// the month.
using ReplayVisitor =
    std::function<void(std::size_t month_index, std::size_t destination,
                       std::vector<net::HandshakeRecord> records)>;

/// The one sandbox replay behind every passive capture: the §4.1 generator
/// (live catalog profile, no clock skew) and the fleet's template sets (a
/// frozen epoch profile, a drifted clock). Builds a single-device sandbox
/// — its own network, a cloud farm serving `profile`'s destinations and
/// one runtime over `profile` — then, for each month, moves the farm to
/// the 15th and visits each destination, in order, validating
/// certificates against the farm date plus `clock_skew_days`. The runtime
/// reads the sandbox's revocation list, which is empty: nothing in a
/// sandbox revokes.
///
/// Each distinct state is replayed once. A destination connects only when
/// one of its inputs differs from the last month it connected: the client
/// config, the runtime's validation_disabled(), the server's versions and
/// suites, or where the device clock falls in the leaf's and the farm
/// root's validity. Otherwise, if that connection's first attempt
/// succeeded, the month re-stamps its records and the runtime takes the
/// state change of a success (note_repeated_success). Failed connections
/// always run.
/// Returns the number of connections actually run.
std::size_t replay_months(const devices::DeviceProfile& profile,
                          const pki::CaUniverse& universe, std::uint64_t seed,
                          const std::vector<common::Month>& months,
                          int clock_skew_days, const ReplayVisitor& visit);

}  // namespace iotls::testbed
