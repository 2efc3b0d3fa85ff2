// Table 8: certificate-revocation support per device.
//
// OCSP-stapling support is detected from *traffic* (status_request in
// captured ClientHellos), exactly as the paper does. CRL / OCSP-responder
// usage in the paper comes from observing fetches to revocation endpoints;
// our generator does not synthesize that side-traffic, so those two columns
// are read from the device specifications (DESIGN.md substitution note).
#pragma once

#include <string>
#include <vector>

#include "analysis/fold.hpp"

namespace iotls::analysis {

struct RevocationSummary {
  std::vector<std::string> crl_devices;
  std::vector<std::string> ocsp_devices;
  std::vector<std::string> stapling_devices;

  /// Devices performing no revocation checking at all.
  [[nodiscard]] int non_checking_count(int total_devices) const;
};

/// Stapling from the folded traffic (a device staples iff some captured
/// ClientHello carries status_request) combined with the catalogue
/// (CRL/OCSP).
RevocationSummary analyze_revocation(const DatasetFold& fold);

/// Specification-only variant (no dataset needed).
RevocationSummary revocation_from_catalog();

/// Table 8 text (the exact rendering IotlsStudy emits).
std::string render_table8(const RevocationSummary& summary,
                          int total_devices);

}  // namespace iotls::analysis
