#include "analysis/longitudinal.hpp"

#include <algorithm>
#include <numeric>

#include "common/table.hpp"

namespace iotls::analysis {

std::vector<common::Month> study_months() {
  return common::month_range(common::kStudyStart, common::kStudyEnd);
}

namespace {

std::vector<double> to_fractions(const std::vector<std::uint64_t>& counts,
                                 const std::vector<std::uint64_t>& totals) {
  std::vector<double> out(counts.size(), kNoTraffic);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (totals[i] > 0) {
      out[i] = static_cast<double>(counts[i]) /
               static_cast<double>(totals[i]);
    }
  }
  return out;
}

}  // namespace

bool VersionSeries::tls12_exclusive(double threshold) const {
  const auto check = [&](const std::map<tls::VersionBucket,
                                        std::vector<double>>& side) {
    const auto& tls12 = side.at(tls::VersionBucket::Tls12);
    for (const double f : tls12) {
      if (f == kNoTraffic) continue;
      if (f < threshold) return false;
    }
    return true;
  };
  return check(advertised) && check(established);
}

VersionSeries version_series_from(const MonthTallies& tallies,
                                  const std::string& device,
                                  const std::vector<common::Month>& months) {
  VersionSeries series;
  series.device = device;
  series.months = months;
  for (const auto& [bucket, counts] : tallies.adv_bucket) {
    series.advertised[bucket] = to_fractions(counts, tallies.total);
  }
  for (const auto& [bucket, counts] : tallies.est_bucket) {
    series.established[bucket] =
        to_fractions(counts, tallies.established_total);
  }
  return series;
}

std::vector<VersionSeries> all_version_series(const DatasetFold& fold) {
  std::vector<VersionSeries> out;
  out.reserve(fold.tallies.size());
  for (const auto& [device, tallies] : fold.tallies) {
    out.push_back(version_series_from(tallies, device, fold.months));
  }
  // Fig 1 ordering: mixed-version devices first.
  std::stable_sort(out.begin(), out.end(),
                   [](const VersionSeries& a, const VersionSeries& b) {
                     return !a.tls12_exclusive() && b.tls12_exclusive();
                   });
  return out;
}

double CipherSeries::max_insecure_advertised() const {
  double best = 0.0;
  for (const double f : insecure_advertised) {
    if (f != kNoTraffic) best = std::max(best, f);
  }
  return best;
}

double CipherSeries::mean_strong_established() const {
  double sum = 0.0;
  int n = 0;
  for (const double f : strong_established) {
    if (f == kNoTraffic) continue;
    sum += f;
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

CipherSeries cipher_series_from(const MonthTallies& tallies,
                                const std::string& device,
                                const std::vector<common::Month>& months) {
  CipherSeries series;
  series.device = device;
  series.months = months;
  series.insecure_advertised =
      to_fractions(tallies.insecure_adv, tallies.total);
  series.insecure_established =
      to_fractions(tallies.insecure_est, tallies.established_total);
  series.strong_advertised = to_fractions(tallies.strong_adv, tallies.total);
  series.strong_established =
      to_fractions(tallies.strong_est, tallies.established_total);
  return series;
}

std::vector<CipherSeries> all_cipher_series(const DatasetFold& fold) {
  std::vector<CipherSeries> out;
  out.reserve(fold.tallies.size());
  for (const auto& [device, tallies] : fold.tallies) {
    out.push_back(cipher_series_from(tallies, device, fold.months));
  }
  return out;
}

std::string render_version_heatmap(const std::vector<VersionSeries>& series,
                                   bool advertised) {
  std::string out;
  for (const auto& s : series) {
    const auto& side = advertised ? s.advertised : s.established;
    out += s.device + "\n";
    for (const auto bucket :
         {tls::VersionBucket::Tls13, tls::VersionBucket::Tls12,
          tls::VersionBucket::Older}) {
      out += "  " + tls::bucket_name(bucket);
      out.append(6 - tls::bucket_name(bucket).size(), ' ');
      // Appended piecewise: `"|" + heat_strip(...) + "|\n"` trips gcc 12's
      // -Wrestrict false positive (PR 105651) under -Werror.
      out += '|';
      out += common::heat_strip(side.at(bucket));
      out += "|\n";
    }
  }
  return out;
}

std::string render_fig1(const std::vector<VersionSeries>& series,
                        const std::vector<common::Month>& months) {
  // The figure omits TLS1.2-exclusive devices.
  std::vector<VersionSeries> shown;
  for (const auto& s : series) {
    if (!s.tls12_exclusive()) shown.push_back(s);
  }
  std::string out = "Fig 1: TLS version support over time (" +
                    std::to_string(shown.size()) + " devices shown; " +
                    std::to_string(series.size() - shown.size()) +
                    " TLS1.2-exclusive devices omitted)\n";
  out += "months: " + months.front().str() + " .. " + months.back().str() +
         "  (shade = fraction of connections; x = no traffic)\n\n";
  out += "== advertised ==\n" +
         render_version_heatmap(shown, /*advertised=*/true);
  out += "\n== established ==\n" +
         render_version_heatmap(shown, /*advertised=*/false);
  return out;
}

std::string render_fig2(const std::vector<CipherSeries>& series) {
  std::vector<CipherSeries> shown;
  for (const auto& s : series) {
    if (s.max_insecure_advertised() > 0.05) shown.push_back(s);
  }
  std::string out = "Fig 2: insecure ciphersuites advertised (" +
                    std::to_string(shown.size()) + " devices shown; " +
                    std::to_string(series.size() - shown.size()) +
                    " rarely-advertising devices omitted; lower is "
                    "better)\n\n";
  out += render_cipher_heatmap(shown, /*insecure=*/true,
                               /*advertised=*/true);
  return out;
}

std::string render_fig3(const std::vector<CipherSeries>& series) {
  std::vector<CipherSeries> shown;
  for (const auto& s : series) {
    if (s.mean_strong_established() < 0.9) shown.push_back(s);
  }
  std::string out = "Fig 3: strong (PFS) ciphersuites established (" +
                    std::to_string(shown.size()) + " devices shown; " +
                    std::to_string(series.size() - shown.size()) +
                    " mostly-strong devices omitted; higher is better)\n\n";
  out += render_cipher_heatmap(shown, /*insecure=*/false,
                               /*advertised=*/false);
  return out;
}

std::string render_cipher_heatmap(const std::vector<CipherSeries>& series,
                                  bool insecure, bool advertised) {
  std::string out;
  for (const auto& s : series) {
    const std::vector<double>* row = nullptr;
    if (insecure) {
      row = advertised ? &s.insecure_advertised : &s.insecure_established;
    } else {
      row = advertised ? &s.strong_advertised : &s.strong_established;
    }
    std::string name = s.device;
    name.resize(20, ' ');
    out += name + " |" + common::heat_strip(*row) + "|\n";
  }
  return out;
}

}  // namespace iotls::analysis
