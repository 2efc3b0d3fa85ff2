// Certificate revocation list — backs the §6 extension that lets clients
// (the Table 8 CRL/OCSP devices) actually reject revoked server
// certificates instead of merely fetching endpoints.
#pragma once

#include <set>
#include <string>

#include "x509/certificate.hpp"

namespace iotls::pki {

/// A CRL-style set of revoked certificates, keyed by (issuer, serial) —
/// exactly what RFC 5280 CRL entries identify.
class RevocationList {
 public:
  void revoke(const x509::Certificate& cert);

  [[nodiscard]] bool is_revoked(const x509::Certificate& cert) const;
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

 private:
  static std::string key(const x509::DistinguishedName& issuer,
                         const common::Bytes& serial);
  std::set<std::string> entries_;
};

}  // namespace iotls::pki
