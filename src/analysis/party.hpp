// First- vs third-party destination labelling (§5.1, after Ren et al.):
// used to test the hypothesis that devices advertising multiple maximum
// versions do so because different *parties* get different TLS
// configurations — the paper found no such pattern.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "tls/version.hpp"

namespace iotls::analysis {

struct DatasetFold;

enum class Party { First, Third, Unknown };

std::string party_name(Party party);

/// Catalogue-driven labelling: a destination is first-party iff the
/// device's profile marks it so; hostnames not in the profile are Unknown.
Party classify_party(const std::string& device, const std::string& hostname);

struct PartyVersionBreakdown {
  /// party → version bucket → weighted connection count.
  std::map<Party, std::map<tls::VersionBucket, std::uint64_t>> counts;

  [[nodiscard]] std::uint64_t total(Party party) const;
  /// Fraction of a party's connections in a bucket (0 if no traffic).
  [[nodiscard]] double fraction(Party party, tls::VersionBucket bucket) const;
  /// L1 distance between the first- and third-party bucket distributions
  /// (0 = identical, 2 = disjoint). The paper's "no pattern" finding
  /// corresponds to a small value.
  [[nodiscard]] double divergence() const;
};

/// Breakdown over advertised maximum versions (the whole dataset, not
/// window-filtered).
PartyVersionBreakdown party_version_breakdown(const DatasetFold& fold);

std::string render_party_breakdown(const PartyVersionBreakdown& breakdown);

}  // namespace iotls::analysis
