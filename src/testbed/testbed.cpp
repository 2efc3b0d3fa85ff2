#include "testbed/testbed.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/profile.hpp"

namespace iotls::testbed {

Testbed::Testbed(Options options)
    : options_(std::move(options)),
      universe_(options_.universe != nullptr ? options_.universe
                                             : &pki::CaUniverse::standard()) {
  network_.set_trace(options_.trace);
  cloud_ = std::make_unique<CloudFarm>(*universe_, options_.seed);
  const pki::RevocationList* revocations =
      options_.revocations != nullptr ? options_.revocations : &revocations_;

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
                                                   network_, revocations);
    plugs_.emplace(profile.name, std::make_unique<SmartPlug>(*runtime));
    runtimes_.emplace(profile.name, std::move(runtime));
  }
  cloud_->install(network_);
}

Testbed::Options Testbed::sandbox_options(
    const std::string& device_name) const {
  Options sandbox = options_;
  sandbox.universe = universe_;
  sandbox.devices = {device_name};
  sandbox.revocations =
      options_.revocations != nullptr ? options_.revocations : &revocations_;
  // Sandboxes trace into their own local log (see Options::trace).
  sandbox.trace = nullptr;
  return sandbox;
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

void replay_months(const devices::DeviceProfile& profile,
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
  const auto& records = network.capture().records();
  for (std::size_t m = 0; m < months.size(); ++m) {
    // Mid-month sampling date. The farm keeps true time; the device
    // validates against what it believes the date is.
    cloud.set_current_date(
        common::SimDate::start_of(months[m]).plus_days(14));
    const common::SimDate device_clock =
        cloud.current_date().plus_days(clock_skew_days);
    for (std::size_t d = 0; d < profile.destinations.size(); ++d) {
      const std::size_t before = records.size();
      (void)runtime.connect_to(profile.destinations[d], device_clock);
      std::vector<net::HandshakeRecord> captured(
          records.begin() + static_cast<std::ptrdiff_t>(before),
          records.end());
      for (auto& record : captured) record.month = months[m];
      visit(m, d, std::move(captured));
    }
  }
}

}  // namespace iotls::testbed
