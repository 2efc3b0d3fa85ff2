// A certificate authority: a root keypair, its self-signed root
// certificate, and issuance of server/intermediate certificates.
#pragma once

#include <atomic>
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
  /// The SAN list is {hostname}; CN is also set to hostname.
  [[nodiscard]] x509::Certificate issue_server_cert(
      const std::string& hostname, const crypto::RsaPublicKey& server_key,
      x509::Validity validity = x509::Validity{},
      const x509::CertExtensions* extra = nullptr) const;

  /// Issue an intermediate CA certificate.
  [[nodiscard]] x509::Certificate issue_intermediate(
      const x509::DistinguishedName& subject,
      const crypto::RsaPublicKey& intermediate_key,
      x509::Validity validity = x509::Validity{}) const;

 private:
  common::Bytes next_serial() const;

  crypto::RsaKeyPair keypair_;
  x509::Certificate root_;
  // Atomic: shared CAs issue leaf certificates concurrently when the
  // experiment engine fans out per-device sandboxes.
  mutable std::atomic<std::uint64_t> serial_counter_{1};
  std::uint64_t serial_prefix_ = 0;
};

}  // namespace iotls::pki
