#include "analysis/summary.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "analysis/longitudinal.hpp"

namespace iotls::analysis {

StudySummary summarize(const DatasetFold& fold) {
  StudySummary summary;
  summary.total_connections = fold.total_connections;

  const auto devices = fold.devices();
  summary.device_count = static_cast<int>(devices.size());

  std::vector<std::uint64_t> per_device;
  for (const auto& [device, n] : fold.connections_per_device) {
    per_device.push_back(n);
  }
  if (!per_device.empty()) {
    summary.mean_per_device = summary.total_connections / per_device.size();
    std::sort(per_device.begin(), per_device.end());
    summary.median_per_device = per_device[per_device.size() / 2];
  }

  if (summary.total_connections > 0) {
    summary.tls13_advertising_fraction =
        static_cast<double>(fold.tls13_advertising) /
        summary.total_connections;
    summary.rc4_advertising_fraction =
        static_cast<double>(fold.rc4_advertising) /
        summary.total_connections;
  }
  for (const auto& [device, versions] : fold.max_versions) {
    if (versions.size() > 1) {
      ++summary.devices_advertising_multiple_max_versions;
    }
  }
  summary.null_anon_advertising_devices =
      static_cast<int>(fold.null_anon_devices.size());

  for (const auto& device : devices) {
    if (version_series_from(fold.tallies.at(device), device, fold.months)
            .tls12_exclusive()) {
      ++summary.tls12_exclusive_devices;
    }
  }
  return summary;
}

std::string render_summary(const StudySummary& summary) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "devices: %d\n"
      "total TLS connections: %llu (paper: ~17M)\n"
      "per-device mean: %llu (paper: ~422K), median: %llu (paper: ~138K)\n"
      "TLS1.2-exclusive devices: %d (paper: 28/40)\n"
      "devices advertising multiple maximum versions: %d (paper: 20)\n"
      "connections advertising TLS 1.3: %.0f%% (paper: ~17%%; web ~60%%)\n"
      "connections advertising RC4: %.0f%% (paper: ~60%%; web ~10%%)\n"
      "devices ever advertising NULL/ANON suites: %d (paper: 0)\n",
      summary.device_count,
      static_cast<unsigned long long>(summary.total_connections),
      static_cast<unsigned long long>(summary.mean_per_device),
      static_cast<unsigned long long>(summary.median_per_device),
      summary.tls12_exclusive_devices,
      summary.devices_advertising_multiple_max_versions,
      summary.tls13_advertising_fraction * 100.0,
      summary.rc4_advertising_fraction * 100.0,
      summary.null_anon_advertising_devices);
  return buf;
}

}  // namespace iotls::analysis
