#include "fingerprint/database.hpp"

#include <stdexcept>

namespace iotls::fingerprint {

void FingerprintDb::add(const std::string& application,
                        const Fingerprint& fp) {
  by_hash_[fp.hash].insert(application);
  by_app_[application].push_back(fp);
}

std::vector<std::string> FingerprintDb::applications() const {
  std::vector<std::string> out;
  out.reserve(by_app_.size());
  for (const auto& [app, fps] : by_app_) out.push_back(app);
  return out;
}

std::vector<Fingerprint> FingerprintDb::fingerprints_of(
    const std::string& application) const {
  const auto it = by_app_.find(application);
  if (it == by_app_.end()) return {};
  return it->second;
}

tls::ClientConfig reference_config(const std::string& application) {
  using tls::ProtocolVersion;
  namespace t = iotls::tls;
  tls::ClientConfig cfg;

  if (application == "openssl") {
    // OpenSSL 1.1.1 s_client-style defaults.
    cfg.versions = {ProtocolVersion::Tls1_0, ProtocolVersion::Tls1_1,
                    ProtocolVersion::Tls1_2};
    cfg.cipher_suites = {t::TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384,
                         t::TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305,
                         t::TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
                         t::TLS_DHE_RSA_WITH_AES_128_GCM_SHA256,
                         t::TLS_RSA_WITH_AES_128_GCM_SHA256,
                         t::TLS_RSA_WITH_AES_128_CBC_SHA,
                         t::TLS_RSA_WITH_3DES_EDE_CBC_SHA};
    cfg.session_ticket = true;
    cfg.library = t::TlsLibrary::OpenSsl;
    return cfg;
  }
  if (application == "android-sdk") {
    cfg.versions = {ProtocolVersion::Tls1_0, ProtocolVersion::Tls1_1,
                    ProtocolVersion::Tls1_2};
    cfg.cipher_suites = {t::TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305,
                         t::TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
                         t::TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384,
                         t::TLS_RSA_WITH_AES_128_GCM_SHA256,
                         t::TLS_RSA_WITH_AES_128_CBC_SHA,
                         t::TLS_RSA_WITH_3DES_EDE_CBC_SHA,
                         t::TLS_RSA_WITH_RC4_128_SHA};
    cfg.alpn_protocols = {"h2", "http/1.1"};
    cfg.library = t::TlsLibrary::AndroidSdk;
    return cfg;
  }
  if (application == "curl") {
    cfg.versions = {ProtocolVersion::Tls1_2};
    cfg.cipher_suites = {t::TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
                         t::TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384,
                         t::TLS_RSA_WITH_AES_128_GCM_SHA256};
    cfg.alpn_protocols = {"http/1.1"};
    cfg.library = t::TlsLibrary::OpenSsl;
    return cfg;
  }
  if (application == "microsoft-sdk") {
    cfg.versions = {ProtocolVersion::Tls1_0, ProtocolVersion::Tls1_2};
    cfg.cipher_suites = {t::TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384,
                         t::TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA,
                         t::TLS_RSA_WITH_AES_256_CBC_SHA,
                         t::TLS_RSA_WITH_3DES_EDE_CBC_SHA,
                         t::TLS_RSA_WITH_RC4_128_SHA};
    cfg.request_ocsp_staple = true;
    cfg.library = t::TlsLibrary::Generic;
    return cfg;
  }
  if (application == "apple-trustd") {
    cfg.versions = {ProtocolVersion::Tls1_2, ProtocolVersion::Tls1_3};
    cfg.cipher_suites = {t::TLS_AES_128_GCM_SHA256,
                         t::TLS_CHACHA20_POLY1305_SHA256,
                         t::TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384,
                         t::TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
                         t::TLS_RSA_WITH_AES_128_GCM_SHA256,
                         t::TLS_RSA_WITH_AES_256_CBC_SHA};
    cfg.request_ocsp_staple = true;
    cfg.library = t::TlsLibrary::SecureTransport;
    return cfg;
  }
  if (application == "golang-net-http") {
    cfg.versions = {ProtocolVersion::Tls1_2};
    cfg.cipher_suites = {t::TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
                         t::TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305,
                         t::TLS_RSA_WITH_AES_128_GCM_SHA256,
                         t::TLS_RSA_WITH_AES_128_CBC_SHA};
    cfg.alpn_protocols = {"h2"};
    cfg.library = t::TlsLibrary::Generic;
    return cfg;
  }
  if (application == "mbedtls-client") {
    cfg.versions = {ProtocolVersion::Tls1_2};
    cfg.cipher_suites = {t::TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
                         t::TLS_RSA_WITH_AES_128_GCM_SHA256,
                         t::TLS_RSA_WITH_AES_128_CBC_SHA};
    cfg.send_sni = true;
    cfg.library = t::TlsLibrary::MbedTls;
    return cfg;
  }
  throw std::out_of_range("unknown reference application: " + application);
}

FingerprintDb build_reference_db() {
  FingerprintDb db;
  for (const char* app :
       {"openssl", "android-sdk", "curl", "microsoft-sdk", "apple-trustd",
        "golang-net-http", "mbedtls-client"}) {
    db.add(app, fingerprint_of_config(reference_config(app)));
  }
  return db;
}

}  // namespace iotls::fingerprint
