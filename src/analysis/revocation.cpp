#include "analysis/revocation.hpp"

#include <algorithm>
#include <set>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "devices/catalog.hpp"

namespace iotls::analysis {

int RevocationSummary::non_checking_count(int total_devices) const {
  std::set<std::string> checking;
  checking.insert(crl_devices.begin(), crl_devices.end());
  checking.insert(ocsp_devices.begin(), ocsp_devices.end());
  checking.insert(stapling_devices.begin(), stapling_devices.end());
  return total_devices - static_cast<int>(checking.size());
}

RevocationSummary analyze_revocation(const DatasetFold& fold) {
  RevocationSummary summary = revocation_from_catalog();
  summary.stapling_devices.assign(fold.stapling_devices.begin(),
                                  fold.stapling_devices.end());
  return summary;
}

std::string render_table8(const RevocationSummary& summary,
                          int total_devices) {
  auto join = [](const std::vector<std::string>& names) {
    return common::join(names, ", ") + " (" + std::to_string(names.size()) +
           ")";
  };
  common::TextTable table({"Method", "Devices (Count)"});
  table.add_row({"Certificate Revocation Lists (CRLs)",
                 join(summary.crl_devices)});
  table.add_row({"Online Certificate Status Protocol (OCSP)",
                 join(summary.ocsp_devices)});
  table.add_row({"OCSP Stapling", join(summary.stapling_devices)});
  auto out = "Table 8: certificate-revocation support\n" + table.render();
  out += "devices never checking revocation: " +
         std::to_string(summary.non_checking_count(total_devices)) + "/" +
         std::to_string(total_devices) + "\n";
  return out;
}

RevocationSummary revocation_from_catalog() {
  RevocationSummary summary;
  for (const auto& device : devices::device_catalog()) {
    if (device.revocation.crl) summary.crl_devices.push_back(device.name);
    if (device.revocation.ocsp) summary.ocsp_devices.push_back(device.name);
    if (device.revocation.ocsp_stapling) {
      summary.stapling_devices.push_back(device.name);
    }
  }
  return summary;
}

}  // namespace iotls::analysis
