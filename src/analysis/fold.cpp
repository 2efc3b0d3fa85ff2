#include "analysis/fold.hpp"

#include <algorithm>

#include "common/pool.hpp"
#include "obs/profile.hpp"
#include "tls/ciphersuite.hpp"

namespace iotls::analysis {

MonthTallies::MonthTallies(std::size_t months) {
  total.assign(months, 0);
  insecure_adv.assign(months, 0);
  insecure_est.assign(months, 0);
  strong_adv.assign(months, 0);
  strong_est.assign(months, 0);
  established_total.assign(months, 0);
  for (const auto bucket :
       {tls::VersionBucket::Tls13, tls::VersionBucket::Tls12,
        tls::VersionBucket::Older}) {
    adv_bucket[bucket].assign(months, 0);
    est_bucket[bucket].assign(months, 0);
  }
}

void MonthTallies::add(const net::HandshakeRecord& rec, std::uint64_t count,
                       int base) {
  const int idx = rec.month.index() - base;
  if (idx < 0 || idx >= static_cast<int>(total.size())) return;

  total[idx] += count;
  if (!rec.advertised_versions.empty()) {
    adv_bucket[tls::bucket_of(rec.max_advertised_version())][idx] += count;
  }
  if (rec.advertises_insecure_suite()) insecure_adv[idx] += count;
  if (rec.advertises_strong_suite()) strong_adv[idx] += count;

  if (rec.established_version.has_value()) {
    established_total[idx] += count;
    est_bucket[tls::bucket_of(*rec.established_version)][idx] += count;
    if (rec.established_insecure_suite()) insecure_est[idx] += count;
    if (rec.established_strong_suite()) strong_est[idx] += count;
  }
}

namespace {

void merge_counts(std::vector<std::uint64_t>* into,
                  const std::vector<std::uint64_t>& from) {
  for (std::size_t i = 0; i < into->size(); ++i) (*into)[i] += from[i];
}

}  // namespace

void MonthTallies::merge(const MonthTallies& other) {
  merge_counts(&total, other.total);
  merge_counts(&insecure_adv, other.insecure_adv);
  merge_counts(&insecure_est, other.insecure_est);
  merge_counts(&strong_adv, other.strong_adv);
  merge_counts(&strong_est, other.strong_est);
  merge_counts(&established_total, other.established_total);
  for (auto& [bucket, counts] : adv_bucket) {
    merge_counts(&counts, other.adv_bucket.at(bucket));
  }
  for (auto& [bucket, counts] : est_bucket) {
    merge_counts(&counts, other.est_bucket.at(bucket));
  }
}

void DatasetFold::add(const testbed::PassiveConnectionGroup& group,
                      bool fingerprints) {
  const auto& rec = group.record;
  const std::uint64_t n = group.count;
  const int base = months.empty() ? 0 : months.front().index();

  tallies.try_emplace(rec.device, months.size());
  tallies.at(rec.device).add(rec, n, base);

  total_connections += n;
  connections_per_device[rec.device] += n;
  if (!rec.advertised_versions.empty()) {
    const auto max = rec.max_advertised_version();
    max_versions[rec.device].insert(max);
    if (max == tls::ProtocolVersion::Tls1_3) tls13_advertising += n;
    const Party party = classify_party(rec.device, rec.destination);
    party_buckets[party][tls::bucket_of(max)] += n;
  }
  const bool has_rc4 = std::any_of(
      rec.advertised_suites.begin(), rec.advertised_suites.end(),
      [](std::uint16_t id) {
        const auto* info = tls::suite_info(id);
        return info != nullptr && info->cipher == tls::BulkCipher::Rc4;
      });
  if (has_rc4) rc4_advertising += n;
  if (std::any_of(rec.advertised_suites.begin(), rec.advertised_suites.end(),
                  tls::suite_is_null_or_anon)) {
    null_anon_devices.insert(rec.device);
  }
  if (rec.requested_ocsp_staple) stapling_devices.insert(rec.device);

  if (fingerprints) {
    const auto fp = fingerprint::fingerprint_of(rec);
    auto& entry = fingerprint_uses[rec.device][fp.hash];
    entry.first = fp;
    entry.second += n;
  }
}

void DatasetFold::merge(const DatasetFold& other) {
  for (const auto& [device, other_tallies] : other.tallies) {
    const auto [it, inserted] = tallies.try_emplace(device, months.size());
    if (inserted) {
      it->second = other_tallies;
    } else {
      it->second.merge(other_tallies);
    }
  }
  total_connections += other.total_connections;
  for (const auto& [device, n] : other.connections_per_device) {
    connections_per_device[device] += n;
  }
  tls13_advertising += other.tls13_advertising;
  rc4_advertising += other.rc4_advertising;
  for (const auto& [device, versions] : other.max_versions) {
    max_versions[device].insert(versions.begin(), versions.end());
  }
  null_anon_devices.insert(other.null_anon_devices.begin(),
                           other.null_anon_devices.end());
  for (const auto& [party, buckets] : other.party_buckets) {
    auto& mine = party_buckets[party];
    for (const auto& [bucket, n] : buckets) mine[bucket] += n;
  }
  stapling_devices.insert(other.stapling_devices.begin(),
                          other.stapling_devices.end());
  for (const auto& [device, uses] : other.fingerprint_uses) {
    auto& mine = fingerprint_uses[device];
    for (const auto& [hash, entry] : uses) {
      auto& slot = mine[hash];
      slot.first = entry.first;
      slot.second += entry.second;
    }
  }
}

std::vector<std::string> DatasetFold::devices() const {
  std::vector<std::string> out;
  out.reserve(connections_per_device.size());
  for (const auto& [device, n] : connections_per_device) {
    out.push_back(device);
  }
  return out;
}

DatasetFold fold_dataset(const testbed::PassiveDataset& dataset,
                         const std::vector<common::Month>& months,
                         const FoldOptions& options) {
  const obs::ProfileZone zone("analysis/fold_dataset");
  DatasetFold fold;
  fold.months = months;
  for (const auto& group : dataset.groups()) {
    fold.add(group, options.fingerprints);
  }
  return fold;
}

DatasetFold fold_store(const store::DatasetCursor& cursor,
                       const std::vector<common::Month>& months,
                       const FoldOptions& options) {
  const obs::ProfileZone zone("analysis/fold_store");
  // DatasetFold::add reads advertised versions + suites; fingerprinting
  // additionally hashes extensions/groups/sigalgs.
  const std::uint32_t fields =
      options.fingerprints
          ? store::kFieldAllLists
          : (store::kFieldAdvVersions | store::kFieldAdvSuites);
  const auto partials = common::parallel_map(
      options.threads, cursor.shard_paths(), [&](const std::string& path) {
        DatasetFold partial;
        partial.months = months;
        testbed::PassiveConnectionGroup group;
        store::scan_shard_rows(
            path, fields, nullptr,
            [&](const store::ProjectedRow& row,
                const store::StringDictionary& dict) {
              net::HandshakeRecord& rec = group.record;
              rec.device = dict.at(row.device_id);
              rec.destination = dict.at(row.dest_id);
              rec.month = row.month;
              rec.advertised_versions = row.advertised_versions;
              rec.advertised_suites = row.advertised_suites;
              rec.extension_types = row.extension_types;
              rec.advertised_groups = row.advertised_groups;
              rec.advertised_sigalgs = row.advertised_sigalgs;
              rec.requested_ocsp_staple = row.requested_ocsp_staple;
              rec.established_version = row.established_version;
              rec.established_suite = row.established_suite;
              group.count = row.count;
              partial.add(group, options.fingerprints);
            });
        return partial;
      });
  DatasetFold fold;
  fold.months = months;
  for (const auto& partial : partials) fold.merge(partial);
  return fold;
}

}  // namespace iotls::analysis
