// A certificate authority: a root keypair, its self-signed root
// certificate, and issuance of server/intermediate certificates.
//
// Issuance is a pure function of the request: an issued certificate's
// serial is the CA's 8-byte prefix followed by the first 8 bytes of a
// SHA-256 over the rest of its TBS. A CA holds no mutable state, so the
// per-device sandboxes that rebuild the same cloud endpoints reuse one
// certificate per endpoint, as they reuse its keypair: the re-issue hits
// the cert_sign memo and the client's chain_verify memo
// (crypto/cache.hpp).
#pragma once

#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "crypto/rsa.hpp"
#include "x509/certificate.hpp"

namespace iotls::pki {

class CertificateAuthority {
 public:
  /// Create a CA with a fresh keypair; `seed_rng` (the CA's own stream)
  /// draws the keypair, then the serial prefix.
  CertificateAuthority(x509::DistinguishedName subject, common::Rng& seed_rng,
                       x509::Validity validity = x509::Validity{},
                       std::size_t key_bits = crypto::kDefaultRsaBits);

  [[nodiscard]] const x509::Certificate& root() const { return root_; }
  [[nodiscard]] const crypto::RsaKeyPair& keypair() const { return keypair_; }
  [[nodiscard]] const x509::DistinguishedName& subject() const {
    return root_.tbs.subject;
  }

  /// Issue a server (leaf) certificate for `hostname`.
  /// The SAN list is {hostname}; CN is also set to hostname. The same
  /// arguments always give the same certificate bytes.
  [[nodiscard]] x509::Certificate issue_server_cert(
      const std::string& hostname, const crypto::RsaPublicKey& server_key,
      x509::Validity validity = x509::Validity{},
      const x509::CertExtensions* extra = nullptr) const;

  /// Issue an intermediate CA certificate (content-derived serial, as for
  /// issue_server_cert).
  [[nodiscard]] x509::Certificate issue_intermediate(
      const x509::DistinguishedName& subject,
      const crypto::RsaPublicKey& intermediate_key,
      x509::Validity validity = x509::Validity{}) const;

 private:
  /// Stamp `tbs` (serial empty) with its content-derived serial and sign it.
  [[nodiscard]] x509::Certificate sign(x509::TbsCertificate tbs) const;

  crypto::RsaKeyPair keypair_;
  x509::Certificate root_;
  std::uint64_t serial_prefix_ = 0;
};

}  // namespace iotls::pki
