#include "x509/certificate.hpp"

#include "common/hex.hpp"
#include "common/strings.hpp"
#include "crypto/cache.hpp"
#include "crypto/sha256.hpp"

namespace iotls::x509 {

namespace {

common::Bytes serialize_date(const common::SimDate& d) {
  common::ByteWriter w;
  w.u16(static_cast<std::uint16_t>(d.year));
  w.u8(static_cast<std::uint8_t>(d.month));
  w.u8(static_cast<std::uint8_t>(d.day));
  return w.take();
}

common::SimDate parse_date(common::ByteReader& r) {
  common::SimDate d;
  d.year = r.u16();
  d.month = r.u8();
  d.day = r.u8();
  return d;
}

}  // namespace

common::Bytes TbsCertificate::serialize() const {
  common::ByteWriter w;
  w.vec(serial, 1);
  w.raw(issuer.serialize());
  w.raw(subject.serialize());
  w.raw(serialize_date(validity.not_before));
  w.raw(serialize_date(validity.not_after));
  w.vec(subject_public_key.serialize(), 2);
  w.vec(extensions.serialize(), 2);
  return w.take();
}

TbsCertificate TbsCertificate::parse(common::ByteReader& r) {
  TbsCertificate tbs;
  tbs.serial = r.vec(1);
  tbs.issuer = DistinguishedName::parse(r);
  tbs.subject = DistinguishedName::parse(r);
  tbs.validity.not_before = parse_date(r);
  tbs.validity.not_after = parse_date(r);
  tbs.subject_public_key = crypto::RsaPublicKey::parse(r.vec(2));
  const common::Bytes ext_bytes = r.vec(2);
  common::ByteReader ext_reader(ext_bytes);
  tbs.extensions = CertExtensions::parse(ext_reader);
  ext_reader.expect_end("CertExtensions");
  return tbs;
}

std::string Certificate::fingerprint() const {
  crypto::Sha256 h;
  h.update(tbs.serialize());
  h.update(signature);
  const auto d = h.finish();
  return common::hex_encode(common::BytesView(d.data(), d.size()));
}

common::Bytes Certificate::serialize() const {
  common::ByteWriter w;
  w.vec(tbs.serialize(), 3);
  w.vec(signature, 2);
  return w.take();
}

Certificate Certificate::parse(common::ByteReader& r) {
  Certificate cert;
  const common::Bytes tbs_bytes = r.vec(3);
  common::ByteReader tbs_reader(tbs_bytes);
  cert.tbs = TbsCertificate::parse(tbs_reader);
  tbs_reader.expect_end("TbsCertificate");
  cert.signature = r.vec(2);
  return cert;
}

Certificate Certificate::parse(common::BytesView data) {
  common::ByteReader r(data);
  Certificate cert = parse(r);
  r.expect_end("Certificate");
  return cert;
}

bool Certificate::matches_hostname(std::string_view hostname) const {
  if (!tbs.extensions.subject_alt_names.empty()) {
    for (const auto& san : tbs.extensions.subject_alt_names) {
      if (common::hostname_matches(san, hostname)) return true;
    }
    return false;
  }
  return common::hostname_matches(tbs.subject.common_name, hostname);
}

Certificate issue_certificate(const TbsCertificate& tbs,
                              const crypto::RsaPrivateKey& issuer_key) {
  Certificate cert;
  cert.tbs = tbs;
  const common::Bytes tbs_bytes = tbs.serialize();
  // The issuer's private exponent is part of the key, so two keys that
  // share a modulus never share a signature; only its digest is held.
  const auto cache_key = [&] {
    crypto::Sha256 h;
    common::ByteWriter prefix;
    prefix.vec(issuer_key.n.to_bytes(), 2);
    prefix.vec(issuer_key.d.to_bytes(), 2);
    h.update(prefix.bytes());
    h.update(crypto::Sha256::digest(tbs_bytes));
    return h.finish();
  };
  cert.signature = crypto::cert_sign_cache().get_or_compute(
      cache_key, [&] { return crypto::rsa_sign(issuer_key, tbs_bytes); });
  return cert;
}

Certificate make_self_signed_root(const DistinguishedName& subject,
                                  common::Bytes serial,
                                  const crypto::RsaKeyPair& keypair,
                                  Validity validity) {
  TbsCertificate tbs;
  tbs.serial = std::move(serial);
  tbs.issuer = subject;
  tbs.subject = subject;
  tbs.validity = validity;
  tbs.subject_public_key = keypair.pub;
  tbs.extensions.basic_constraints = BasicConstraints{true, std::nullopt};
  tbs.extensions.key_usage = KeyUsage{
      .digital_signature = true,
      .key_encipherment = false,
      .key_cert_sign = true,
      .crl_sign = true,
  };
  return issue_certificate(tbs, keypair.priv);
}

}  // namespace iotls::x509
