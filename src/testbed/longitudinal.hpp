// Passive longitudinal dataset generator (§4.1's ≈2-year capture).
//
// For every (device, destination, month) in the study window the generator
// runs one *real* handshake against the month's evolving server config and
// assigns it a sampled connection count — month-granular aggregation is
// exactly what Figs 1-3 consume, and it keeps ≈17M connections tractable
// (the ablations quantify the cost of finer granularity).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "net/capture.hpp"
#include "pki/universe.hpp"

namespace iotls::testbed {

/// A group of identical connections in one month.
struct PassiveConnectionGroup {
  net::HandshakeRecord record;
  std::uint64_t count = 1;
};

class PassiveDataset {
 public:
  void add(PassiveConnectionGroup group);

  [[nodiscard]] const std::vector<PassiveConnectionGroup>& groups() const {
    return groups_;
  }
  [[nodiscard]] std::uint64_t total_connections() const { return total_; }
  [[nodiscard]] std::vector<std::string> devices() const;
  [[nodiscard]] std::vector<const PassiveConnectionGroup*> for_device(
      const std::string& device) const;

 private:
  std::vector<PassiveConnectionGroup> groups_;
  // Maintained by add(): device → the indices of its groups in dataset
  // order, so the per-device accessors are index lookups, not scans.
  std::map<std::string, std::vector<std::size_t>> by_device_;
  std::uint64_t total_ = 0;
};

struct GeneratorOptions {
  std::uint64_t seed = 7;
  const pki::CaUniverse* universe = nullptr;  // default: standard()
  common::Month first = common::kStudyStart;
  common::Month last = common::kStudyEnd;
  /// Scales the sampled per-month connection counts (1.0 ≈ the paper's
  /// ≈17M total across the study).
  double count_scale = 1.0;
  /// Restrict to these devices (empty = all 40).
  std::vector<std::string> devices;
  /// Worker threads for the per-device fan-out (0 = hardware concurrency,
  /// 1 = serial). The dataset — including its TSV rendering — is
  /// byte-identical for every value: connection counts are drawn serially
  /// up front and each device replays its handshakes in a sandbox.
  std::size_t threads = 0;
};

PassiveDataset generate_passive_dataset(
    const GeneratorOptions& options = GeneratorOptions{});

/// The dataset as tab-separated text — the equivalent of the paper's
/// public release of its longitudinal handshake data (`iotls-store
/// export-tsv` streams the same rows from a capture store). The format is
/// stable, diffable, and loadable by external tooling.
std::string dataset_to_tsv(const PassiveDataset& dataset);

/// Streaming TSV building blocks (used by dataset_to_tsv and by tooling
/// that renders rows without materializing a dataset). The header has no
/// trailing newline; a row includes its own.
const std::string& dataset_tsv_header();
std::string group_to_tsv_row(const PassiveConnectionGroup& group);

}  // namespace iotls::testbed
