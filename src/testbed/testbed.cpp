#include "testbed/testbed.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "obs/profile.hpp"

namespace iotls::testbed {

Testbed::Testbed(Options options)
    : options_(std::move(options)),
      universe_(options_.universe != nullptr ? options_.universe
                                             : &pki::CaUniverse::standard()) {
  network_.set_trace(options_.trace);
  cloud_ = std::make_unique<CloudFarm>(*universe_, options_.seed);

  const auto wanted = [&](const devices::DeviceProfile& profile) {
    return options_.devices.empty() ||
           std::find(options_.devices.begin(), options_.devices.end(),
                     profile.name) != options_.devices.end();
  };
  for (const auto& profile : devices::device_catalog()) {
    if (!wanted(profile)) continue;
    for (const auto& dest : profile.destinations) {
      cloud_->add_destination(dest.hostname);
    }
    if (!profile.active) continue;
    auto runtime = std::make_unique<DeviceRuntime>(profile, *universe_,
                                                   network_, &revocations_);
    plugs_.emplace(profile.name, std::make_unique<SmartPlug>(*runtime));
    runtimes_.emplace(profile.name, std::move(runtime));
  }
  cloud_->install(network_);
}

DeviceRuntime& Testbed::runtime(const std::string& device_name) {
  const auto it = runtimes_.find(device_name);
  if (it == runtimes_.end()) {
    throw std::out_of_range("no runtime for device " + device_name);
  }
  return *it->second;
}

SmartPlug& Testbed::plug(const std::string& device_name) {
  const auto it = plugs_.find(device_name);
  if (it == plugs_.end()) {
    throw std::out_of_range("no plug for device " + device_name);
  }
  return *it->second;
}

std::vector<std::string> Testbed::device_names() const {
  std::vector<std::string> out;
  out.reserve(runtimes_.size());
  for (const auto& [name, runtime] : runtimes_) out.push_back(name);
  return out;
}

namespace {

/// What one destination's connection in a replayed month depends on,
/// besides what is fixed for the sandbox's lifetime. Fixed: the served
/// chain, the server keys, the server seed and staple support (CloudFarm
/// derives them from the hostname alone when the destination is added),
/// the device's root store, the empty revocation list and the payload. The
/// per-connection randomness never reaches a capture record.
struct ReplayInputs {
  tls::ClientConfig config;
  bool validation_disabled = false;
  /// The date-derived part of the farm's server_config.
  std::vector<tls::ProtocolVersion> server_versions;
  std::vector<std::uint16_t> server_suites;
  /// The device clock against the served leaf and the farm CA root.
  x509::Validity::Position leaf = x509::Validity::Position::Inside;
  x509::Validity::Position root = x509::Validity::Position::Inside;

  bool operator==(const ReplayInputs&) const = default;
};

/// A destination's last connection that actually ran, kept only when its
/// first attempt succeeded.
struct ReplayMemo {
  ReplayInputs inputs;
  std::vector<net::HandshakeRecord> records;
};

}  // namespace

std::size_t replay_months(const devices::DeviceProfile& profile,
                          const pki::CaUniverse& universe, std::uint64_t seed,
                          const std::vector<common::Month>& months,
                          int clock_skew_days, const ReplayVisitor& visit) {
  const obs::ProfileZone zone("testbed/replay");
  net::Network network;
  CloudFarm cloud(universe, seed);
  for (const auto& dest : profile.destinations) {
    cloud.add_destination(dest.hostname);
  }
  cloud.install(network);
  const pki::RevocationList revocations;  // nothing in a sandbox revokes
  DeviceRuntime runtime(profile, universe, network, &revocations);
  const x509::Validity& root_validity =
      universe.authority(cloud.ca_name()).root().tbs.validity;
  const auto& records = network.capture().records();
  std::vector<std::optional<ReplayMemo>> memo(profile.destinations.size());
  std::size_t connections = 0;
  for (std::size_t m = 0; m < months.size(); ++m) {
    // Mid-month sampling date. The farm keeps true time; the device
    // validates against what it believes the date is.
    cloud.set_current_date(
        common::SimDate::start_of(months[m]).plus_days(14));
    const common::SimDate device_clock =
        cloud.current_date().plus_days(clock_skew_days);
    for (std::size_t d = 0; d < profile.destinations.size(); ++d) {
      const devices::DestinationSpec& dest = profile.destinations[d];
      tls::ServerConfig server = cloud.server_config(dest.hostname);
      ReplayInputs inputs{
          profile.config_at(dest.instance_id, device_clock.to_month()),
          runtime.validation_disabled(),
          std::move(server.versions),
          std::move(server.cipher_suites),
          server.chain.front().tbs.validity.position(device_clock),
          root_validity.position(device_clock)};
      std::vector<net::HandshakeRecord> captured;
      if (memo[d].has_value() && memo[d]->inputs == inputs) {
        runtime.note_repeated_success();
        captured = memo[d]->records;
      } else {
        const std::size_t before = records.size();
        const ConnectionOutcome outcome =
            runtime.connect_to(dest, device_clock);
        ++connections;
        captured.assign(records.begin() + static_cast<std::ptrdiff_t>(before),
                        records.end());
        // A failed first attempt moves the failure streak (and may retry),
        // so it is never memoised: the next month connects again.
        if (outcome.result.success()) {
          memo[d] = ReplayMemo{std::move(inputs), captured};
        } else {
          memo[d].reset();
        }
      }
      for (auto& record : captured) record.month = months[m];
      visit(m, d, std::move(captured));
    }
  }
  return connections;
}

}  // namespace iotls::testbed
