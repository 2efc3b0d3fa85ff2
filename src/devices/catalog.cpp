#include "devices/catalog.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "fingerprint/database.hpp"

namespace iotls::devices {

namespace t = iotls::tls;

tls::ClientConfig family_config(const std::string& family) {
  using PV = t::ProtocolVersion;

  if (family == "amazon-main") {
    // The android-sdk derivative Fire OS / Echo firmware share — identical
    // to the reference database's android-sdk entry, which is why Fire TV's
    // dominant fingerprint matches it (§5.3).
    return fingerprint::reference_config("android-sdk");
  }
  if (family == "amazon-legacy") {
    // The instance behind Table 7's WrongHostname rows: chain validated,
    // hostname not. Its maximum is TLS 1.0 — one reason the Amazon family
    // advertises *multiple maximum versions* (§5.1).
    t::ClientConfig cfg;
    cfg.versions = {PV::Tls1_0};
    cfg.cipher_suites = {t::TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA,
                         t::TLS_RSA_WITH_AES_128_CBC_SHA,
                         t::TLS_RSA_WITH_3DES_EDE_CBC_SHA,
                         t::TLS_RSA_WITH_RC4_128_SHA};
    cfg.library = t::TlsLibrary::OpenSsl;
    cfg.verify_policy = x509::VerifyPolicy::no_hostname();
    return cfg;
  }
  if (family == "amazon-ota") {
    // Strict OTA updater shared by every Amazon device including Echo Dot 3
    // (its only fingerprint overlap with the rest of the family).
    t::ClientConfig cfg;
    cfg.versions = {PV::Tls1_2};
    cfg.cipher_suites = {t::TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384,
                         t::TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256};
    cfg.request_ocsp_staple = true;
    cfg.library = t::TlsLibrary::OpenSsl;
    return cfg;
  }
  if (family == "openssl-iot") {
    return fingerprint::reference_config("openssl");
  }
  if (family == "mbedtls-embedded") {
    return fingerprint::reference_config("mbedtls-client");
  }
  if (family == "apple") {
    return fingerprint::reference_config("apple-trustd");
  }
  if (family == "microsoft") {
    return fingerprint::reference_config("microsoft-sdk");
  }
  if (family == "samsung-tizen") {
    t::ClientConfig cfg;
    cfg.versions = {PV::Tls1_1, PV::Tls1_2};
    cfg.cipher_suites = {t::TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
                         t::TLS_RSA_WITH_AES_128_GCM_SHA256,
                         t::TLS_RSA_WITH_AES_256_CBC_SHA,
                         t::TLS_RSA_WITH_3DES_EDE_CBC_SHA,
                         t::TLS_RSA_WITH_RC4_128_SHA};
    cfg.library = t::TlsLibrary::Generic;
    return cfg;
  }
  if (family == "google-home") {
    t::ClientConfig cfg;
    cfg.versions = {PV::Tls1_0, PV::Tls1_1, PV::Tls1_2};
    cfg.cipher_suites = {t::TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305,
                         t::TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
                         t::TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384,
                         t::TLS_RSA_WITH_AES_128_GCM_SHA256};
    cfg.request_ocsp_staple = true;
    cfg.library = t::TlsLibrary::OpenSsl;
    return cfg;
  }
  throw std::out_of_range("unknown TLS instance family: " + family);
}

namespace detail {

std::vector<DestinationSpec> make_destinations(const std::string& domain,
                                               int count,
                                               const std::string& instance_id,
                                               int susceptible,
                                               int intermittent) {
  std::vector<DestinationSpec> out;
  for (int i = 0; i < count; ++i) {
    DestinationSpec dest;
    char buf[128];
    std::snprintf(buf, sizeof(buf), "svc%02d.%s", i, domain.c_str());
    dest.hostname = buf;
    dest.instance_id = instance_id;
    dest.downgrade_susceptible = i < susceptible;
    dest.intermittent = i >= count - intermittent;
    out.push_back(std::move(dest));
  }
  return out;
}

}  // namespace detail

const std::vector<DeviceProfile>& device_catalog() {
  static const std::vector<DeviceProfile> kCatalog = [] {
    std::vector<DeviceProfile> all;
    auto append = [&all](std::vector<DeviceProfile> group) {
      for (auto& d : group) all.push_back(std::move(d));
    };
    append(detail::build_camera_hub_devices());
    append(detail::build_home_tv_appliance_devices());
    append(detail::build_amazon_devices());
    append(detail::build_apple_google_devices());

    // Assign stable per-device seeds.
    for (std::size_t i = 0; i < all.size(); ++i) {
      all[i].seed = common::fnv1a64(all[i].name);
    }
    return all;
  }();
  return kCatalog;
}

std::vector<const DeviceProfile*> active_devices() {
  std::vector<const DeviceProfile*> out;
  for (const auto& d : device_catalog()) {
    if (d.active) out.push_back(&d);
  }
  return out;
}

std::vector<std::string> active_device_names() {
  std::vector<std::string> out;
  for (const auto* profile : active_devices()) out.push_back(profile->name);
  return out;
}

std::vector<const DeviceProfile*> passive_devices() {
  std::vector<const DeviceProfile*> out;
  for (const auto& d : device_catalog()) out.push_back(&d);
  return out;
}

const DeviceProfile* find_device(const std::string& name) {
  const auto& catalog = device_catalog();
  const auto it = std::find_if(
      catalog.begin(), catalog.end(),
      [&](const DeviceProfile& d) { return d.name == name; });
  return it == catalog.end() ? nullptr : &*it;
}

}  // namespace iotls::devices
