// Longitudinal analyses over a folded passive dataset — the computations
// behind Figs 1, 2 and 3.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "analysis/fold.hpp"
#include "tls/version.hpp"

namespace iotls::analysis {

/// Sentinel fraction for "no traffic this month" (rendered gray/x).
inline constexpr double kNoTraffic = -1.0;

/// Fig 1: per-device monthly fractions of connections per version bucket,
/// for both the advertised (ClientHello) and established (ServerHello)
/// sides.
struct VersionSeries {
  std::string device;
  std::vector<common::Month> months;
  /// bucket → per-month fraction (kNoTraffic where the device was silent).
  std::map<tls::VersionBucket, std::vector<double>> advertised;
  std::map<tls::VersionBucket, std::vector<double>> established;

  /// A device is "TLS 1.2 exclusive" if ≥95% of its connections advertise
  /// and establish TLS 1.2 in every month with traffic (the 28 devices
  /// Fig 1 omits).
  [[nodiscard]] bool tls12_exclusive(double threshold = 0.95) const;
};

/// Build a device's series from its folded tallies — the single code path
/// both the in-memory and the streamed analyses go through (this is what
/// makes streamed results byte-identical).
VersionSeries version_series_from(const MonthTallies& tallies,
                                  const std::string& device,
                                  const std::vector<common::Month>& months);

/// All devices over the fold's months, Fig 1 ordering (non-exclusive
/// devices first).
std::vector<VersionSeries> all_version_series(const DatasetFold& fold);

/// Fig 2 / Fig 3: per-device monthly ciphersuite-quality fractions.
struct CipherSeries {
  std::string device;
  std::vector<common::Month> months;
  std::vector<double> insecure_advertised;   // Fig 2 (lower is better)
  std::vector<double> insecure_established;
  std::vector<double> strong_advertised;
  std::vector<double> strong_established;    // Fig 3 (higher is better)

  [[nodiscard]] double max_insecure_advertised() const;
  [[nodiscard]] double mean_strong_established() const;
};

CipherSeries cipher_series_from(const MonthTallies& tallies,
                                const std::string& device,
                                const std::vector<common::Month>& months);

/// All devices over the fold's months, in device order.
std::vector<CipherSeries> all_cipher_series(const DatasetFold& fold);

/// Render helpers (text heatmaps in the paper's row layout).
std::string render_version_heatmap(const std::vector<VersionSeries>& series,
                                   bool advertised);
std::string render_cipher_heatmap(const std::vector<CipherSeries>& series,
                                  bool insecure, bool advertised);

/// Full-figure renderings (headers + device filters + heatmaps) — the
/// exact text IotlsStudy emits, whichever way the fold was built.
std::string render_fig1(const std::vector<VersionSeries>& series,
                        const std::vector<common::Month>& months);
std::string render_fig2(const std::vector<CipherSeries>& series);
std::string render_fig3(const std::vector<CipherSeries>& series);

/// The study window.
std::vector<common::Month> study_months();

}  // namespace iotls::analysis
