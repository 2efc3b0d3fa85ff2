// Structural X.509 certificates with real RSA signatures.
//
// Certificates are modelled as plain structs with a deterministic TBS
// ("to-be-signed") serialization; the signature is RSA over SHA-256 of those
// bytes. No ASN.1/DER — the study never parses DER, it only needs identity,
// validity, extensions, and a signature that genuinely verifies or fails
// (DESIGN.md §6).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/bytes.hpp"
#include "common/simtime.hpp"
#include "crypto/rsa.hpp"
#include "x509/extensions.hpp"
#include "x509/name.hpp"

namespace iotls::x509 {

struct Validity {
  common::SimDate not_before{2015, 1, 1};
  common::SimDate not_after{2035, 1, 1};

  bool operator==(const Validity&) const = default;

  /// Where a date falls relative to the window. Validity checks depend on
  /// this tristate alone, so anything memoised on a validity outcome keys
  /// on it instead of the date.
  enum class Position : std::uint8_t { Before, Inside, After };
  [[nodiscard]] Position position(common::SimDate when) const {
    if (when < not_before) return Position::Before;
    if (when > not_after) return Position::After;
    return Position::Inside;
  }

  [[nodiscard]] bool contains(common::SimDate when) const {
    return position(when) == Position::Inside;
  }
};

/// The signed portion of a certificate.
struct TbsCertificate {
  common::Bytes serial;  // opaque, issuer-assigned
  DistinguishedName issuer;
  DistinguishedName subject;
  Validity validity;
  crypto::RsaPublicKey subject_public_key;
  CertExtensions extensions;

  bool operator==(const TbsCertificate&) const = default;

  [[nodiscard]] common::Bytes serialize() const;
  static TbsCertificate parse(common::ByteReader& r);
};

struct Certificate {
  TbsCertificate tbs;
  common::Bytes signature;

  bool operator==(const Certificate&) const = default;

  [[nodiscard]] bool is_self_signed() const {
    return tbs.issuer == tbs.subject;
  }

  /// SHA-256 over TBS||signature — stable identity for stores/logs.
  [[nodiscard]] std::string fingerprint() const;

  [[nodiscard]] common::Bytes serialize() const;
  static Certificate parse(common::ByteReader& r);
  static Certificate parse(common::BytesView data);

  /// True if `hostname` matches any SAN, or (when no SANs are present)
  /// the subject CN — the RFC 2818 fallback most IoT clients implement.
  [[nodiscard]] bool matches_hostname(std::string_view hostname) const;
};

/// Sign `tbs` with the issuer's private key. Memoised through the
/// certificate-signing cache (crypto/cache.hpp) on (issuer key, TBS
/// digest): the forgeries of the active experiments re-issue the same
/// certificates per connection, and signing is deterministic, so a hit
/// returns the bytes a fresh signature would.
Certificate issue_certificate(const TbsCertificate& tbs,
                              const crypto::RsaPrivateKey& issuer_key);

/// Convenience builder for a self-signed CA root.
Certificate make_self_signed_root(const DistinguishedName& subject,
                                  common::Bytes serial,
                                  const crypto::RsaKeyPair& keypair,
                                  Validity validity = Validity{});

}  // namespace iotls::x509
