// Fig 5 / §5.3: the fingerprint diversity study.
//
// Fingerprints come from the *active snapshot* (one clean boot per device,
// §5.3: "we only study TLS traffic from active experiments"), are matched
// against the reference application database, and assembled into the
// device/application sharing graph.
#pragma once

#include <map>
#include <string>

#include "fingerprint/database.hpp"
#include "fingerprint/graph.hpp"
#include "testbed/testbed.hpp"

namespace iotls::analysis {

struct FingerprintStudy {
  fingerprint::SharingGraph graph;
  /// device → number of distinct fingerprints seen at boot.
  std::map<std::string, int> fingerprints_per_device;

  [[nodiscard]] int single_instance_devices() const;  // paper: 18/32
  [[nodiscard]] int multi_instance_devices() const;   // paper: 14/32
  /// Devices sharing ≥1 fingerprint with another device or application.
  [[nodiscard]] int sharing_devices() const;          // paper: 19
};

/// One boot per active device, each in its own sandbox built from
/// `recipe` (testbed::sandbox_map; the boots' spans go to `recipe.trace`).
/// `threads` fans the boots out over a worker pool (0 = hardware
/// concurrency, 1 = serial); the study is identical either way.
FingerprintStudy run_fingerprint_study(
    const testbed::Testbed::Options& recipe, std::size_t threads = 0);

/// Text rendering of the sharing graph (cluster list + edges).
std::string render_sharing_graph(const FingerprintStudy& study);

}  // namespace iotls::analysis
