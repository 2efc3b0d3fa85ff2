#include "analysis/party.hpp"

#include <cmath>
#include <cstdio>

#include "analysis/fold.hpp"
#include "devices/catalog.hpp"

namespace iotls::analysis {

std::string party_name(Party party) {
  switch (party) {
    case Party::First: return "first-party";
    case Party::Third: return "third-party";
    case Party::Unknown: return "unknown";
  }
  return "?";
}

Party classify_party(const std::string& device, const std::string& hostname) {
  const auto* profile = devices::find_device(device);
  if (profile == nullptr) return Party::Unknown;
  for (const auto& dest : profile->destinations) {
    if (dest.hostname == hostname) {
      return dest.first_party ? Party::First : Party::Third;
    }
  }
  return Party::Unknown;
}

std::uint64_t PartyVersionBreakdown::total(Party party) const {
  const auto it = counts.find(party);
  if (it == counts.end()) return 0;
  std::uint64_t sum = 0;
  for (const auto& [bucket, count] : it->second) sum += count;
  return sum;
}

double PartyVersionBreakdown::fraction(Party party,
                                       tls::VersionBucket bucket) const {
  const auto party_total = total(party);
  if (party_total == 0) return 0.0;
  const auto it = counts.find(party);
  const auto bucket_it = it->second.find(bucket);
  if (bucket_it == it->second.end()) return 0.0;
  return static_cast<double>(bucket_it->second) /
         static_cast<double>(party_total);
}

double PartyVersionBreakdown::divergence() const {
  double sum = 0.0;
  for (const auto bucket :
       {tls::VersionBucket::Tls13, tls::VersionBucket::Tls12,
        tls::VersionBucket::Older}) {
    sum += std::abs(fraction(Party::First, bucket) -
                    fraction(Party::Third, bucket));
  }
  return sum;
}

PartyVersionBreakdown party_version_breakdown(const DatasetFold& fold) {
  return PartyVersionBreakdown{fold.party_buckets};
}

std::string render_party_breakdown(const PartyVersionBreakdown& breakdown) {
  std::string out =
      "advertised max version by destination party (§5.1 hypothesis "
      "check)\n";
  for (const auto party : {Party::First, Party::Third}) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  %-12s  1.3: %5.1f%%  1.2: %5.1f%%  older: %5.1f%%  "
                  "(n=%llu)\n",
                  party_name(party).c_str(),
                  breakdown.fraction(party, tls::VersionBucket::Tls13) * 100,
                  breakdown.fraction(party, tls::VersionBucket::Tls12) * 100,
                  breakdown.fraction(party, tls::VersionBucket::Older) * 100,
                  static_cast<unsigned long long>(breakdown.total(party)));
    out += line;
  }
  char tail[80];
  std::snprintf(tail, sizeof(tail), "  L1 divergence: %.3f\n",
                breakdown.divergence());
  out += tail;
  return out;
}

}  // namespace iotls::analysis
