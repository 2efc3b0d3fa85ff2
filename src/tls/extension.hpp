// ClientHello / ServerHello extensions.
//
// Extensions matter to the study in three ways: SNI names the destination
// (the paper keys downgrade/vulnerability results on destinations),
// status_request signals OCSP-stapling support (Table 8), and the extension
// *list* itself is part of the TLS fingerprint (§5.3).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/dh.hpp"
#include "tls/version.hpp"

namespace iotls::tls {

enum class ExtensionType : std::uint16_t {
  ServerName = 0,
  StatusRequest = 5,           // OCSP stapling request
  SupportedGroups = 10,
  EcPointFormats = 11,
  SignatureAlgorithms = 13,
  Alpn = 16,
  SignedCertTimestamp = 18,
  SessionTicket = 35,
  SupportedVersions = 43,
  PskKeyExchangeModes = 45,
  KeyShare = 51,
  RenegotiationInfo = 0xFF01,
};

/// A raw extension: type + opaque payload. Typed accessors below.
struct Extension {
  std::uint16_t type = 0;
  common::Bytes payload;

  bool operator==(const Extension&) const = default;
};

/// Signature algorithm code points (subset).
enum class SignatureScheme : std::uint16_t {
  RsaPkcs1Sha1 = 0x0201,
  RsaPkcs1Sha256 = 0x0401,
  RsaPkcs1Sha384 = 0x0501,
  RsaPssSha256 = 0x0804,
  EcdsaSha256 = 0x0403,
};

// ---- Builders ----
Extension make_sni(const std::string& hostname);
Extension make_supported_versions(const std::vector<ProtocolVersion>& vs);
Extension make_supported_groups(const std::vector<crypto::DhGroup>& groups);
Extension make_signature_algorithms(const std::vector<SignatureScheme>& ss);
Extension make_status_request();
Extension make_session_ticket();
Extension make_alpn(const std::vector<std::string>& protocols);
Extension make_ec_point_formats();

// ---- Parsers (given the matching extension's payload) ----
std::string parse_sni(common::BytesView payload);
std::vector<ProtocolVersion> parse_supported_versions(
    common::BytesView payload);
std::vector<crypto::DhGroup> parse_supported_groups(common::BytesView payload);
std::vector<SignatureScheme> parse_signature_algorithms(
    common::BytesView payload);

/// Find an extension by type in a list; nullptr if absent.
const Extension* find_extension(const std::vector<Extension>& extensions,
                                ExtensionType type);

/// Serialize / parse a full extension list (u16 total length prefix).
void write_extensions(common::ByteWriter& w,
                      const std::vector<Extension>& extensions);
std::vector<Extension> read_extensions(common::ByteReader& r);

}  // namespace iotls::tls
