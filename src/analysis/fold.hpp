// Dataset folding: the one input of every passive analysis.
//
// Figs 1-3, Table 8's stapling column, the §5.1 summary and party
// breakdown, and the passive fingerprint study are all *commutative
// integer accumulations* keyed by (device, month, bucket). A DatasetFold
// holds those integers; the analyses in longitudinal/summary/revocation/
// party/fpstudy take nothing else. Two functions build one: fold_dataset
// (an in-memory PassiveDataset) and fold_store (a capture store, shard by
// shard). Per-shard partial folds merge to exactly the integers a single
// in-memory pass produces, so the derived doubles — and the rendered
// figures — are byte-identical either way, across any number of threads
// (DESIGN.md §11's parity invariant).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/party.hpp"
#include "common/simtime.hpp"
#include "fingerprint/fingerprint.hpp"
#include "store/reader.hpp"
#include "testbed/longitudinal.hpp"
#include "tls/version.hpp"

namespace iotls::analysis {

/// Weighted per-month counts for one device over a month window — the
/// integer substrate of Figs 1-3 (fractions are derived at render time).
struct MonthTallies {
  std::vector<std::uint64_t> total;
  std::map<tls::VersionBucket, std::vector<std::uint64_t>> adv_bucket;
  std::map<tls::VersionBucket, std::vector<std::uint64_t>> est_bucket;
  std::vector<std::uint64_t> insecure_adv, insecure_est;
  std::vector<std::uint64_t> strong_adv, strong_est;
  std::vector<std::uint64_t> established_total;

  explicit MonthTallies(std::size_t months);

  /// Accumulate `count` connections of `rec`; `base` is the window's first
  /// month index. Out-of-window records are ignored.
  void add(const net::HandshakeRecord& rec, std::uint64_t count, int base);

  /// Pointwise sum (commutative, associative).
  void merge(const MonthTallies& other);
};

struct DatasetFold {
  std::vector<common::Month> months;

  /// Per-device month tallies (window-filtered, like the figures).
  std::map<std::string, MonthTallies> tallies;

  // §5.1 summary inputs (whole dataset, not window-filtered).
  std::uint64_t total_connections = 0;
  std::map<std::string, std::uint64_t> connections_per_device;
  std::uint64_t tls13_advertising = 0;
  std::uint64_t rc4_advertising = 0;
  std::map<std::string, std::set<tls::ProtocolVersion>> max_versions;
  std::set<std::string> null_anon_devices;
  /// §5.1 hypothesis check: destination party → advertised-max-version
  /// bucket → weighted connections.
  std::map<Party, std::map<tls::VersionBucket, std::uint64_t>> party_buckets;

  // Table 8 input: devices whose traffic requests OCSP stapling.
  std::set<std::string> stapling_devices;

  /// §5.3 passive variant: per-device fingerprint → weighted use count.
  /// Only populated when FoldOptions::fingerprints is set (hashing every
  /// group is the one non-trivial fold cost).
  std::map<std::string,
           std::map<std::string,
                    std::pair<fingerprint::Fingerprint, std::uint64_t>>>
      fingerprint_uses;

  void add(const testbed::PassiveConnectionGroup& group, bool fingerprints);
  void merge(const DatasetFold& other);

  /// Devices seen, sorted (identical to PassiveDataset::devices()).
  [[nodiscard]] std::vector<std::string> devices() const;
};

struct FoldOptions {
  /// Worker threads for the per-shard fan-out (0 = hardware concurrency,
  /// 1 = serial). The fold is identical for every value.
  std::size_t threads = 0;
  /// Also tally fingerprints (needed only by the fingerprint study).
  bool fingerprints = false;
};

/// Single in-memory pass.
DatasetFold fold_dataset(const testbed::PassiveDataset& dataset,
                         const std::vector<common::Month>& months,
                         const FoldOptions& options = FoldOptions{});

/// Out-of-core: fold each shard independently (parallel over shards, one
/// block resident per worker), then merge the partials in shard order.
/// Shards are read on the columnar scan path (store::scan_shard_rows,
/// DESIGN.md §12), which materializes only the list columns the fold
/// reads — advertised versions and suites; the fingerprint lists stay
/// undecoded unless FoldOptions::fingerprints asks for them.
DatasetFold fold_store(const store::DatasetCursor& cursor,
                       const std::vector<common::Month>& months,
                       const FoldOptions& options = FoldOptions{});

}  // namespace iotls::analysis
