// Fig 5 / §5.3: the fingerprint diversity study.
//
// Fingerprints come from the *active snapshot* (one clean boot per device,
// §5.3: "we only study TLS traffic from active experiments"), are matched
// against the reference application database, and assembled into the
// device/application sharing graph.
#pragma once

#include <map>
#include <string>

#include "analysis/fold.hpp"
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

/// `threads` fans the per-device boots out over a worker pool (0 =
/// hardware concurrency, 1 = serial); the study is identical either way.
FingerprintStudy run_fingerprint_study(testbed::Testbed& testbed,
                                       std::size_t threads = 0);

/// Passive variant of §5.3: fingerprints extracted from the captured
/// ClientHellos of the longitudinal dataset, weighted by connection
/// counts. Needs a fold built with FoldOptions::fingerprints.
FingerprintStudy passive_fingerprint_study(const DatasetFold& fold);

/// Text rendering of the sharing graph (cluster list + edges).
std::string render_sharing_graph(const FingerprintStudy& study);

}  // namespace iotls::analysis
