#include "pki/ca.hpp"

#include "crypto/sha256.hpp"
#include "obs/profile.hpp"

namespace iotls::pki {

CertificateAuthority::CertificateAuthority(x509::DistinguishedName subject,
                                           common::Rng& seed_rng,
                                           x509::Validity validity,
                                           std::size_t key_bits)
    // The keypair is drawn first, the serial prefix after it, both from the
    // CA's own stream. rsa_generate memoises on that stream's state
    // (crypto/cache.hpp), so rebuilding a universe reuses the keypair AND
    // leaves seed_rng where a fresh generation would: the serial prefix
    // drawn next is byte-identical either way.
    : keypair_(crypto::rsa_generate(seed_rng, key_bits)),
      serial_prefix_(seed_rng.next_u64()) {
  common::ByteWriter serial;
  serial.u64(serial_prefix_);
  root_ = x509::make_self_signed_root(subject, serial.take(), keypair_,
                                      validity);
}

x509::Certificate CertificateAuthority::sign(x509::TbsCertificate tbs) const {
  const auto digest = crypto::Sha256::digest(tbs.serialize());
  common::ByteWriter serial;
  serial.u64(serial_prefix_);
  serial.raw(common::BytesView(digest.data(), 8));
  tbs.serial = serial.take();
  return x509::issue_certificate(tbs, keypair_.priv);
}

x509::Certificate CertificateAuthority::issue_server_cert(
    const std::string& hostname, const crypto::RsaPublicKey& server_key,
    x509::Validity validity, const x509::CertExtensions* extra) const {
  const obs::ProfileZone zone("pki/issue");
  x509::TbsCertificate tbs;
  tbs.issuer = root_.tbs.subject;
  tbs.subject = x509::DistinguishedName::cn(hostname);
  tbs.validity = validity;
  tbs.subject_public_key = server_key;
  if (extra != nullptr) tbs.extensions = *extra;
  tbs.extensions.basic_constraints = x509::BasicConstraints{false, {}};
  if (tbs.extensions.subject_alt_names.empty()) {
    tbs.extensions.subject_alt_names.push_back(hostname);
  }
  tbs.extensions.key_usage = x509::KeyUsage{
      .digital_signature = true,
      .key_encipherment = true,
      .key_cert_sign = false,
      .crl_sign = false,
  };
  return sign(std::move(tbs));
}

x509::Certificate CertificateAuthority::issue_intermediate(
    const x509::DistinguishedName& subject,
    const crypto::RsaPublicKey& intermediate_key,
    x509::Validity validity) const {
  const obs::ProfileZone zone("pki/issue");
  x509::TbsCertificate tbs;
  tbs.issuer = root_.tbs.subject;
  tbs.subject = subject;
  tbs.validity = validity;
  tbs.subject_public_key = intermediate_key;
  tbs.extensions.basic_constraints = x509::BasicConstraints{true, 0};
  tbs.extensions.key_usage = x509::KeyUsage{
      .digital_signature = true,
      .key_encipherment = false,
      .key_cert_sign = true,
      .crl_sign = true,
  };
  return sign(std::move(tbs));
}

}  // namespace iotls::pki
