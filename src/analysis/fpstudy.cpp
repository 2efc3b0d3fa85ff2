#include "analysis/fpstudy.hpp"

#include <algorithm>

#include "devices/catalog.hpp"

namespace iotls::analysis {

int FingerprintStudy::single_instance_devices() const {
  return static_cast<int>(std::count_if(
      fingerprints_per_device.begin(), fingerprints_per_device.end(),
      [](const auto& kv) { return kv.second == 1; }));
}

int FingerprintStudy::multi_instance_devices() const {
  return static_cast<int>(std::count_if(
      fingerprints_per_device.begin(), fingerprints_per_device.end(),
      [](const auto& kv) { return kv.second > 1; }));
}

int FingerprintStudy::sharing_devices() const {
  int count = 0;
  for (const auto& [device, n] : fingerprints_per_device) {
    if (!graph.sharing_partners(device).empty()) ++count;
  }
  return count;
}

FingerprintStudy run_fingerprint_study(
    const testbed::Testbed::Options& recipe, std::size_t threads) {
  FingerprintStudy study;
  const common::SimDate snapshot{2021, 3, 25};

  // One clean sandboxed boot per device; the per-device fingerprint tallies
  // are independent, so they fan out and merge in sorted device order.
  struct DeviceFingerprints {
    std::string device;
    std::map<std::string, std::pair<fingerprint::Fingerprint, int>> uses;
    std::string dominant_hash;
  };

  auto names = devices::active_device_names();
  std::sort(names.begin(), names.end());
  const auto per_device = testbed::sandbox_map(
      recipe, names, threads,
      [&](testbed::Testbed& sandbox, const std::string& name) {
        sandbox.set_date(snapshot);
        auto& runtime = sandbox.runtime(name);
        runtime.reset_failure_state();
        const auto boot =
            runtime.boot(snapshot, /*include_intermittent=*/true);

        DeviceFingerprints result;
        result.device = name;
        // Count uses per fingerprint to find the dominant one (thick
        // edges).
        for (const auto& conn : boot.connections) {
          const auto fp = fingerprint::fingerprint_of(conn.result.hello);
          auto& entry = result.uses[fp.hash];
          entry.first = fp;
          ++entry.second;
        }
        int best = 0;
        for (const auto& [hash, entry] : result.uses) {
          if (entry.second > best) {
            best = entry.second;
            result.dominant_hash = hash;
          }
        }
        return result;
      });

  for (const auto& result : per_device) {
    for (const auto& [hash, entry] : result.uses) {
      study.graph.add_use(result.device, fingerprint::NodeKind::Device,
                          entry.first, hash == result.dominant_hash);
    }
    study.fingerprints_per_device[result.device] =
        static_cast<int>(result.uses.size());
  }

  // Merge the reference application database (Kotzias et al. stand-in).
  const auto db = fingerprint::build_reference_db();
  for (const auto& app : db.applications()) {
    for (const auto& fp : db.fingerprints_of(app)) {
      study.graph.add_use(app, fingerprint::NodeKind::Application, fp, true);
    }
  }
  return study;
}

std::string render_sharing_graph(const FingerprintStudy& study) {
  std::string out;
  const auto clusters = study.graph.clusters();
  int index = 1;
  for (const auto& cluster : clusters) {
    out += "cluster " + std::to_string(index++) + ":";
    for (const auto& member : cluster) {
      const bool is_app =
          study.graph.kind_of(member) == fingerprint::NodeKind::Application;
      out += " " + member + (is_app ? "*" : "");
    }
    out += "\n";
  }
  out += "(* = application from the reference fingerprint database)\n";

  out += "\nshared fingerprints:\n";
  for (const auto& fp : study.graph.shared_fingerprints()) {
    out += "  " + fp.hash.substr(0, 12) + " used by";
    for (const auto& client : study.graph.clients_of(fp)) {
      out += " [" + client +
             (study.graph.is_dominant(client, fp) ? "**" : "") + "]";
    }
    out += "\n";
  }
  out += "(** = that client's dominant fingerprint)\n";
  return out;
}

}  // namespace iotls::analysis
