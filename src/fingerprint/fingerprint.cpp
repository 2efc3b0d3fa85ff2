#include "fingerprint/fingerprint.hpp"

#include <cstdio>

#include "common/hex.hpp"
#include "crypto/sha256.hpp"

namespace iotls::fingerprint {

namespace {

void append_list(std::string& out, const std::vector<std::uint16_t>& values) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += '-';
    out += std::to_string(values[i]);
  }
}

}  // namespace

Fingerprint fingerprint_from_parts(
    std::uint16_t legacy_version,
    const std::vector<std::uint16_t>& cipher_suites,
    const std::vector<std::uint16_t>& extension_types,
    const std::vector<std::uint16_t>& groups,
    const std::vector<std::uint16_t>& signature_algorithms) {
  Fingerprint fp;
  fp.text = std::to_string(legacy_version);
  fp.text += ',';
  append_list(fp.text, cipher_suites);
  fp.text += ',';
  append_list(fp.text, extension_types);
  fp.text += ',';
  append_list(fp.text, groups);
  fp.text += ',';
  append_list(fp.text, signature_algorithms);

  const auto digest = crypto::Sha256::digest(common::to_bytes(fp.text));
  fp.hash = common::hex_encode(common::BytesView(digest.data(), 16));
  return fp;
}

Fingerprint fingerprint_of(const tls::ClientHello& hello) {
  std::vector<std::uint16_t> ext_types;
  for (const auto& ext : hello.extensions) ext_types.push_back(ext.type);

  std::vector<std::uint16_t> groups;
  const auto* groups_ext = tls::find_extension(
      hello.extensions, tls::ExtensionType::SupportedGroups);
  if (groups_ext != nullptr) {
    for (const auto g : tls::parse_supported_groups(groups_ext->payload)) {
      groups.push_back(static_cast<std::uint16_t>(g));
    }
  }
  std::vector<std::uint16_t> sigalgs;
  const auto* sigs_ext = tls::find_extension(
      hello.extensions, tls::ExtensionType::SignatureAlgorithms);
  if (sigs_ext != nullptr) {
    for (const auto s : tls::parse_signature_algorithms(sigs_ext->payload)) {
      sigalgs.push_back(static_cast<std::uint16_t>(s));
    }
  }
  return fingerprint_from_parts(
      static_cast<std::uint16_t>(hello.legacy_version), hello.cipher_suites,
      ext_types, groups, sigalgs);
}

Fingerprint fingerprint_of_config(const tls::ClientConfig& config) {
  common::Rng rng(0);  // randomness does not affect the fingerprint
  const auto hello =
      tls::build_client_hello(config, "fingerprint.invalid", rng);
  return fingerprint_of(hello);
}

}  // namespace iotls::fingerprint
