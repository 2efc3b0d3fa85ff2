// TLS client fingerprinting (JA3-style).
//
// A fingerprint is a permutation of the ClientHello's static features —
// version, ciphersuites, extension types, groups, signature algorithms
// (§2). Two connections share a fingerprint iff they come from the same
// *TLS instance* (implementation + configuration), which is how §5.3 maps
// connections to shared libraries across devices.
#pragma once

#include <string>
#include <vector>

#include "tls/client.hpp"
#include "tls/messages.hpp"

namespace iotls::fingerprint {

struct Fingerprint {
  /// Human-readable canonical form:
  /// "771,4865-49195,0-10-11-13,29-23,1027" (JA3 field order).
  std::string text;
  /// Truncated SHA-256 of the text (32 hex chars, like JA3's MD5 width).
  std::string hash;

  bool operator==(const Fingerprint&) const = default;
  auto operator<=>(const Fingerprint&) const = default;
};

/// Build from raw ClientHello features.
Fingerprint fingerprint_from_parts(
    std::uint16_t legacy_version,
    const std::vector<std::uint16_t>& cipher_suites,
    const std::vector<std::uint16_t>& extension_types,
    const std::vector<std::uint16_t>& groups,
    const std::vector<std::uint16_t>& signature_algorithms);

/// Fingerprint a parsed ClientHello.
Fingerprint fingerprint_of(const tls::ClientHello& hello);

/// Fingerprint the ClientHello a given client configuration would emit —
/// fingerprints are independent of the per-connection randomness.
Fingerprint fingerprint_of_config(const tls::ClientConfig& config);

}  // namespace iotls::fingerprint
