// The synthetic CA ecosystem.
//
// The paper derives two probe sets from historical platform root stores
// (Table 3): 122 *common* certificates (in the latest version of every
// platform store) and 87 *deprecated-yet-unexpired* certificates (removed
// from some store before expiry). We cannot ship the real Mozilla/Android/
// Ubuntu/Microsoft data, so this module constructs an equivalent universe:
// the same set sizes, the same four platform histories (version counts and
// earliest years per Table 3), and the real-world distrust events the paper
// names (TurkTrust 2013, CNNIC 2015, WoSign/StartCom 2016, Certinomis 2019).
//
// Every CA has a real RSA keypair, so spoofed-certificate probes trigger
// genuine signature failures. Each CA's keypair and serial prefix come from
// its own stream, Rng::derive(seed, "ca/<name>"), so the keys depend only on
// (seed, name) and the universe keys its CAs in parallel.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pki/ca.hpp"
#include "pki/history.hpp"
#include "pki/root_store.hpp"

namespace iotls::pki {

class CaUniverse {
 public:
  struct Options {
    std::uint64_t seed = 20210301;
    std::size_t key_bits = crypto::kDefaultRsaBits;
    /// Paper set sizes (Table 9 header).
    std::size_t common_count = 122;
    std::size_t deprecated_count = 87;
    /// Removed-but-already-expired CAs, exercised by the expiry filter.
    std::size_t expired_removed_count = 6;
    /// Extra per-platform CAs in the latest stores (not common to all).
    std::size_t platform_exclusive_count = 4;
  };

  CaUniverse() : CaUniverse(Options{}) {}
  explicit CaUniverse(Options opts);

  /// Process-wide shared universe with default options (built once; CA key
  /// generation is the expensive part).
  static const CaUniverse& standard();

  [[nodiscard]] const Options& options() const { return opts_; }

  [[nodiscard]] const std::vector<PlatformStoreHistory>& histories() const {
    return histories_;
  }
  [[nodiscard]] const std::vector<DistrustRecord>& distrust_records() const {
    return distrust_;
  }

  /// All CA names in creation order.
  [[nodiscard]] std::vector<std::string> all_ca_names() const;

  /// §4.2 "Common CA certificates" (unexpired ∩ all latest stores).
  [[nodiscard]] const std::vector<std::string>& common_ca_names() const {
    return common_;
  }
  /// §4.2 "Deprecated CA certificates" (removed before expiry, unexpired).
  [[nodiscard]] const std::vector<std::string>& deprecated_ca_names() const {
    return deprecated_;
  }

  [[nodiscard]] const CertificateAuthority& authority(
      const std::string& ca_name) const;
  [[nodiscard]] const CertificateAuthority* find(
      const std::string& ca_name) const;

  [[nodiscard]] bool is_distrusted(const std::string& ca_name) const;
  [[nodiscard]] std::optional<int> removal_year(
      const std::string& ca_name) const;

  /// Reference "now" for expiry decisions (the paper's active experiments
  /// ran in March 2021).
  [[nodiscard]] common::SimDate reference_date() const {
    return common::SimDate{2021, 3, 1};
  }

 private:
  Options opts_;
  std::map<std::string, std::unique_ptr<CertificateAuthority>> authorities_;
  std::vector<std::string> creation_order_;
  std::vector<PlatformStoreHistory> histories_;
  std::vector<DistrustRecord> distrust_;
  std::vector<std::string> common_;
  std::vector<std::string> deprecated_;
  std::map<std::string, int> removal_years_;
};

}  // namespace iotls::pki
