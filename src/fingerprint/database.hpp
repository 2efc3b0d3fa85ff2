// Labelled fingerprint database, standing in for the 1,684-fingerprint
// Kotzias et al. database the paper matches against (§5.3).
//
// Each entry maps a fingerprint to the *application* that produced it
// (OpenSSL, android-sdk, curl, ...). The reference database is synthesized
// from canonical client configurations of those applications, so device
// instances that reuse the same configuration genuinely collide with it.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "fingerprint/fingerprint.hpp"

namespace iotls::fingerprint {

class FingerprintDb {
 public:
  void add(const std::string& application, const Fingerprint& fp);

  [[nodiscard]] std::vector<std::string> applications() const;

  /// All fingerprints of an application.
  [[nodiscard]] std::vector<Fingerprint> fingerprints_of(
      const std::string& application) const;

 private:
  std::map<std::string, std::vector<Fingerprint>> by_app_;
};

/// Canonical client configurations for well-known applications. These are
/// the configurations device instances share when they embed the same
/// library (see devices/catalog).
tls::ClientConfig reference_config(const std::string& application);

/// The synthesized reference database (OpenSSL, android-sdk, curl,
/// Microsoft SDK, Apple clients, golang, ...).
FingerprintDb build_reference_db();

}  // namespace iotls::fingerprint
