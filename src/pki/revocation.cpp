#include "pki/revocation.hpp"

#include "common/hex.hpp"

namespace iotls::pki {

std::string RevocationList::key(const x509::DistinguishedName& issuer,
                                const common::Bytes& serial) {
  return issuer.str() + "#" + common::hex_encode(serial);
}

void RevocationList::revoke(const x509::Certificate& cert) {
  entries_.insert(key(cert.tbs.issuer, cert.tbs.serial));
}

bool RevocationList::is_revoked(const x509::Certificate& cert) const {
  return entries_.count(key(cert.tbs.issuer, cert.tbs.serial)) > 0;
}

}  // namespace iotls::pki
