#include "testbed/longitudinal.hpp"

#include <algorithm>

#include "common/pool.hpp"
#include "testbed/testbed.hpp"

namespace iotls::testbed {

void PassiveDataset::add(PassiveConnectionGroup group) {
  by_device_[group.record.device].push_back(groups_.size());
  total_ += group.count;
  groups_.push_back(std::move(group));
}

std::vector<std::string> PassiveDataset::devices() const {
  std::vector<std::string> names;
  names.reserve(by_device_.size());
  for (const auto& [name, indices] : by_device_) names.push_back(name);
  return names;
}

std::vector<const PassiveConnectionGroup*> PassiveDataset::for_device(
    const std::string& device) const {
  std::vector<const PassiveConnectionGroup*> out;
  const auto it = by_device_.find(device);
  if (it == by_device_.end()) return out;
  out.reserve(it->second.size());
  for (const std::size_t i : it->second) {
    out.push_back(&groups_[i]);
  }
  return out;
}

namespace {

std::string join_u16(const std::vector<std::uint16_t>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(values[i]);
  }
  return out;
}

std::string join_versions(const std::vector<tls::ProtocolVersion>& versions) {
  std::vector<std::uint16_t> raw;
  for (const auto v : versions) raw.push_back(static_cast<std::uint16_t>(v));
  return join_u16(raw);
}

std::string alert_field(const std::optional<tls::Alert>& alert) {
  if (!alert) return "-";
  return std::to_string(static_cast<int>(alert->level)) + ":" +
         std::to_string(static_cast<int>(alert->description));
}

}  // namespace

const std::string& dataset_tsv_header() {
  static const std::string header =
      "device\tdestination\tmonth\tcount\tadvertised_versions\t"
      "advertised_suites\textension_types\tgroups\tsigalgs\tocsp_staple\t"
      "sni\testablished_version\testablished_suite\tcomplete\tapp_data\t"
      "client_alert\tserver_alert";
  return header;
}

std::string group_to_tsv_row(const PassiveConnectionGroup& g) {
  const auto& r = g.record;
  return r.device + '\t' + r.destination + '\t' + r.month.str() + '\t' +
         std::to_string(g.count) + '\t' +
         join_versions(r.advertised_versions) + '\t' +
         join_u16(r.advertised_suites) + '\t' +
         join_u16(r.extension_types) + '\t' +
         join_u16(r.advertised_groups) + '\t' +
         join_u16(r.advertised_sigalgs) + '\t' +
         (r.requested_ocsp_staple ? "1" : "0") + '\t' +
         (r.sent_sni ? "1" : "0") + '\t' +
         (r.established_version
              ? std::to_string(
                    static_cast<std::uint16_t>(*r.established_version))
              : "-") +
         '\t' +
         (r.established_suite ? std::to_string(*r.established_suite) : "-") +
         '\t' + (r.handshake_complete ? "1" : "0") + '\t' +
         (r.application_data_seen ? "1" : "0") + '\t' +
         alert_field(r.client_alert) + '\t' + alert_field(r.server_alert) +
         '\n';
}

std::string dataset_to_tsv(const PassiveDataset& dataset) {
  std::string out = dataset_tsv_header() + "\n";
  for (const auto& g : dataset.groups()) out += group_to_tsv_row(g);
  return out;
}

PassiveDataset generate_passive_dataset(const GeneratorOptions& options) {
  const auto wanted = [&](const devices::DeviceProfile& profile) {
    return options.devices.empty() ||
           std::find(options.devices.begin(), options.devices.end(),
                     profile.name) != options.devices.end();
  };
  std::vector<const devices::DeviceProfile*> profiles;
  for (const auto& profile : devices::device_catalog()) {
    if (wanted(profile)) profiles.push_back(&profile);
  }
  const pki::CaUniverse& universe = options.universe != nullptr
                                        ? *options.universe
                                        : pki::CaUniverse::standard();
  const auto months = common::month_range(options.first, options.last);

  // Connection counts are drawn serially, up front, in the exact
  // device→month→destination order the serial generator consumed its
  // stream — the fan-out below must not touch the shared RNG.
  common::Rng count_rng = common::Rng::derive(options.seed, "passive-counts");
  std::vector<std::vector<common::Month>> traffic_months(profiles.size());
  std::vector<std::vector<std::uint64_t>> counts(profiles.size());
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    const auto& profile = *profiles[p];
    for (const auto& month : months) {
      if (!profile.generates_traffic_in(month)) continue;
      traffic_months[p].push_back(month);
      for (const auto& dest : profile.destinations) {
        // Month-to-month activity jitter: destinations are contacted more
        // or less often (this is what drives the Insteon Hub's varying
        // old-version fraction in Fig 1).
        const double jitter = 0.35 + 1.3 * count_rng.uniform01();
        counts[p].push_back(static_cast<std::uint64_t>(std::max(
            1.0, profile.monthly_connections_per_destination * jitter *
                     options.count_scale * dest.traffic_weight *
                     (dest.first_party ? 1.0 : 0.4))));
      }
    }
  }

  // Each device replays its two-year capture inside its own sandbox; the
  // per-device group lists concatenate in catalog order, so the dataset
  // (and its TSV) is byte-identical to the serial one.
  std::vector<std::size_t> indices(profiles.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  auto per_device = common::parallel_map(
      options.threads, indices, [&](std::size_t p) {
        const auto& profile = *profiles[p];
        std::vector<PassiveConnectionGroup> groups;
        replay_months(
            profile, universe, options.seed, traffic_months[p], 0,
            [&](std::size_t m, std::size_t d,
                std::vector<net::HandshakeRecord> records) {
              const std::uint64_t count =
                  counts[p][m * profile.destinations.size() + d];
              for (auto& record : records) {
                groups.push_back({std::move(record), count});
              }
            });
        return groups;
      });

  PassiveDataset dataset;
  for (auto& groups : per_device) {
    for (auto& group : groups) dataset.add(std::move(group));
  }
  return dataset;
}

}  // namespace iotls::testbed
