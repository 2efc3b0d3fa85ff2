#include "x509/extensions.hpp"

namespace iotls::x509 {

common::Bytes CertExtensions::serialize() const {
  common::ByteWriter w;

  w.u8(basic_constraints.has_value() ? 1 : 0);
  if (basic_constraints) {
    w.u8(basic_constraints->is_ca ? 1 : 0);
    w.u8(basic_constraints->path_len_constraint.has_value() ? 1 : 0);
    if (basic_constraints->path_len_constraint) {
      w.u8(static_cast<std::uint8_t>(*basic_constraints->path_len_constraint));
    }
  }

  if (subject_alt_names.size() > 0xFF) {
    throw common::ParseError("too many subject alt names");
  }
  w.u8(static_cast<std::uint8_t>(subject_alt_names.size()));
  for (const auto& san : subject_alt_names) w.str(san, 1);

  w.u8(key_usage.has_value() ? 1 : 0);
  if (key_usage) {
    std::uint8_t bits = 0;
    if (key_usage->digital_signature) bits |= 0x01;
    if (key_usage->key_encipherment) bits |= 0x02;
    if (key_usage->key_cert_sign) bits |= 0x04;
    if (key_usage->crl_sign) bits |= 0x08;
    w.u8(bits);
  }

  w.str(crl_distribution_point, 1);
  w.str(ocsp_responder, 1);
  w.u8(must_staple ? 1 : 0);
  return w.take();
}

namespace {

/// A presence byte or boolean field: exactly 0 or 1, so every accepted
/// encoding re-serializes to the bytes it was parsed from.
bool parse_flag(common::ByteReader& r, const char* field) {
  const std::uint8_t v = r.u8();
  if (v > 1) {
    throw common::ParseError(std::string("CertExtensions: non-canonical ") +
                             field);
  }
  return v == 1;
}

}  // namespace

CertExtensions CertExtensions::parse(common::ByteReader& r) {
  CertExtensions ext;

  if (parse_flag(r, "basic-constraints presence")) {
    BasicConstraints bc;
    bc.is_ca = parse_flag(r, "is_ca");
    if (parse_flag(r, "path-length presence")) bc.path_len_constraint = r.u8();
    ext.basic_constraints = bc;
  }

  const std::size_t n_sans = r.u8();
  for (std::size_t i = 0; i < n_sans; ++i) {
    ext.subject_alt_names.push_back(r.str(1));
  }

  if (parse_flag(r, "key-usage presence")) {
    const std::uint8_t bits = r.u8();
    if (bits > 0x0F) {
      throw common::ParseError("CertExtensions: unknown key-usage bits");
    }
    KeyUsage ku;
    ku.digital_signature = bits & 0x01;
    ku.key_encipherment = bits & 0x02;
    ku.key_cert_sign = bits & 0x04;
    ku.crl_sign = bits & 0x08;
    ext.key_usage = ku;
  }

  ext.crl_distribution_point = r.str(1);
  ext.ocsp_responder = r.str(1);
  ext.must_staple = parse_flag(r, "must_staple");
  return ext;
}

}  // namespace iotls::x509
