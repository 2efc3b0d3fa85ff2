// §5.1 headline numbers and the prior-work comparison.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/fold.hpp"

namespace iotls::analysis {

struct StudySummary {
  std::uint64_t total_connections = 0;      // paper: ≈17M
  std::uint64_t mean_per_device = 0;        // paper: ≈422K
  std::uint64_t median_per_device = 0;      // paper: ≈138K
  int device_count = 0;
  int tls12_exclusive_devices = 0;          // paper: 28/40
  int devices_advertising_multiple_max_versions = 0;  // paper: 20
  /// Fraction of connections advertising TLS 1.3 (prior-work comparison:
  /// ≈17% here vs ≈60% of web clients in Holz et al.).
  double tls13_advertising_fraction = 0.0;
  /// Fraction of connections advertising RC4 (≈60% here vs ≈10% in
  /// Kotzias et al.).
  double rc4_advertising_fraction = 0.0;
  /// Devices advertising NULL/ANON suites (paper: none, ever).
  int null_anon_advertising_devices = 0;
};

/// The §5.1 reduction; the TLS1.2-exclusive count reads the fold's month
/// window, everything else the whole dataset.
StudySummary summarize(const DatasetFold& fold);

std::string render_summary(const StudySummary& summary);

}  // namespace iotls::analysis
