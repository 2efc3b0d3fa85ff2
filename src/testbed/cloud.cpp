#include "testbed/cloud.hpp"

#include "common/strings.hpp"
#include "obs/profile.hpp"

namespace iotls::testbed {

namespace t = iotls::tls;

ServerPolicy CloudFarm::domain_policy(const std::string& hostname) {
  using common::ends_with;
  ServerPolicy p;

  // --- version ceilings (Fig 1 server-limited rows) ---
  if (ends_with(hostname, ".samsung-sim.com") &&
      hostname.find("tv.samsung-sim.com") == std::string::npos) {
    // Appliance endpoints stop at TLS 1.1 (washer/dryer/fridge rows).
    p.max_version = t::ProtocolVersion::Tls1_1;
  }
  if (ends_with(hostname, ".lg-sim.com")) {
    p.max_version = t::ProtocolVersion::Tls1_1;  // LG Dishwasher row
  }

  // --- TLS 1.3 adoption (sparse: clients outpace servers, §5.1) ---
  if (hostname == "svc00.appletv.apple-sim.com") {
    p.tls13_adoption = common::Month{2019, 8};
  }
  if (hostname == "svc00.home.google-sim.com") {
    p.tls13_adoption = common::Month{2019, 10};
  }

  // --- PFS preference adoption (Fig 3 transitions) ---
  if (ends_with(hostname, ".ring-sim.com")) {
    p.pfs_adoption = common::Month{2018, 4};
  } else if (ends_with(hostname, ".appletv.apple-sim.com")) {
    p.pfs_adoption = common::Month{2019, 3};
  } else if (ends_with(hostname, ".homepod.apple-sim.com")) {
    p.pfs_adoption = common::Month{2020, 1};
  } else if (hostname == "api.wink-sim.com" ||
             ends_with(hostname, ".hub.blink-sim.com")) {
    p.pfs_adoption = common::Month{2019, 10};
  } else if (ends_with(hostname, ".google-sim.com") ||
             ends_with(hostname, ".nest-sim.com") ||
             ends_with(hostname, ".dlink-sim.com") ||
             ends_with(hostname, ".switchbot-sim.com") ||
             ends_with(hostname, ".tracker-sim.net") ||
             ends_with(hostname, ".tuya-sim.com") ||
             ends_with(hostname, ".tplink-sim.com") ||
             ends_with(hostname, ".meross-sim.com") ||
             ends_with(hostname, ".ge-sim.com") ||
             ends_with(hostname, ".behmor-sim.com") ||
             ends_with(hostname, ".yitechnology-sim.com") ||
             ends_with(hostname, ".cam.blink-sim.com") ||
             ends_with(hostname, ".philips-sim.com") ||
             ends_with(hostname, ".insteon-sim.com") ||
             ends_with(hostname, ".sengled-sim.com") ||
             ends_with(hostname, ".tv.samsung-sim.com") ||
             hostname == "ota.amazon-sim.com") {
    // The well-run endpoints: PFS from the start of the study (the ~18
    // devices whose connections are mostly strong and thus not shown in
    // Fig 3).
    p.pfs_adoption = common::Month{2017, 1};
  }

  // --- the two insecure-establishing endpoints (Fig 2) ---
  if (hostname == "cloud.wink-sim.com") {
    p.preferred_suite = t::TLS_RSA_WITH_3DES_EDE_CBC_SHA;
  }
  if (hostname == "device.lgtv-sim.com") {
    p.preferred_suite = t::TLS_RSA_WITH_RC4_128_SHA;
  }

  return p;
}

CloudFarm::CloudFarm(const pki::CaUniverse& universe, std::uint64_t seed,
                     std::string ca_name)
    : universe_(universe),
      ca_name_(std::move(ca_name)),
      rng_(common::Rng::derive(seed, "cloud-farm")) {
  // Validate early: the CA must exist (throws otherwise).
  (void)universe_.authority(ca_name_);
}

void CloudFarm::add_destination(const std::string& hostname,
                                std::optional<ServerPolicy> policy) {
  if (endpoints_.count(hostname)) return;
  // The endpoint's key generation and certificate are testbed setup, not
  // the work of whichever experiment first asked for the farm.
  const obs::ProfileZone zone("testbed/cloud_endpoint");
  Endpoint ep;
  ep.policy = policy.value_or(domain_policy(hostname));
  // Server keys are derived from the hostname alone, so repeated testbed
  // constructions (tests, benches, per-device experiment sandboxes) reuse
  // one keypair per endpoint: rsa_generate memoises on the derived
  // generator state (see crypto/cache.hpp), which replaced the hostname
  // map this file used to keep.
  common::Rng key_rng =
      common::Rng::derive(0xC10DDCAFE, "srv-key:" + hostname);
  ep.keys = crypto::rsa_generate(key_rng);
  // The certificate is reused the same way: issuance derives its serial
  // from its content (pki/ca.hpp), so every sandbox gets the same bytes,
  // a cert_sign memo hit, and a chain the client's verify memo has seen.
  // Long validity covering the passive study and the 2021 active runs.
  ep.certificate = universe_.authority(ca_name_).issue_server_cert(
      hostname, ep.keys.pub,
      x509::Validity{{2017, 1, 1}, {2023, 1, 1}});
  endpoints_.emplace(hostname, std::move(ep));
}

tls::ServerConfig CloudFarm::server_config(const std::string& hostname) const {
  const auto it = endpoints_.find(hostname);
  if (it == endpoints_.end()) {
    throw common::ProtocolError("cloud farm has no endpoint " + hostname);
  }
  const Endpoint& ep = it->second;
  const common::Month month = now_.to_month();

  tls::ServerConfig cfg;
  cfg.chain = {ep.certificate};
  cfg.keys = ep.keys;
  cfg.ocsp_staple_support = ep.policy.ocsp_staple_support;
  cfg.seed = common::fnv1a64(hostname) ^ 0x5EED;

  // Supported versions.
  t::ProtocolVersion max = ep.policy.max_version;
  if (ep.policy.tls13_adoption && month >= *ep.policy.tls13_adoption) {
    max = t::ProtocolVersion::Tls1_3;
  }
  cfg.versions.clear();
  for (const auto v :
       {t::ProtocolVersion::Ssl3_0, t::ProtocolVersion::Tls1_0,
        t::ProtocolVersion::Tls1_1, t::ProtocolVersion::Tls1_2,
        t::ProtocolVersion::Tls1_3}) {
    if (v >= ep.policy.min_version && v <= max) cfg.versions.push_back(v);
  }

  // Preference order.
  const bool pfs_first =
      ep.policy.pfs_adoption && month >= *ep.policy.pfs_adoption;
  cfg.cipher_suites.clear();
  if (ep.policy.preferred_suite) {
    cfg.cipher_suites.push_back(*ep.policy.preferred_suite);
  }
  if (max == t::ProtocolVersion::Tls1_3) {
    cfg.cipher_suites.push_back(t::TLS_AES_128_GCM_SHA256);
    cfg.cipher_suites.push_back(t::TLS_CHACHA20_POLY1305_SHA256);
  }
  const std::vector<std::uint16_t> pfs_suites = {
      t::TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
      t::TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305,
      t::TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384,
      t::TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA,
      t::TLS_DHE_RSA_WITH_AES_128_GCM_SHA256,
  };
  const std::vector<std::uint16_t> rsa_suites = {
      t::TLS_RSA_WITH_AES_128_GCM_SHA256,
      t::TLS_RSA_WITH_AES_128_CBC_SHA,
      t::TLS_RSA_WITH_AES_256_CBC_SHA,
  };
  // Weak ciphers are a last resort for every server (only the explicit
  // preferred_suite endpoints ever *establish* them, Fig 2).
  const std::vector<std::uint16_t> weak_tail = {
      t::TLS_RSA_WITH_3DES_EDE_CBC_SHA,
      t::TLS_RSA_WITH_RC4_128_SHA,
  };
  const auto& first = pfs_first ? pfs_suites : rsa_suites;
  const auto& second = pfs_first ? rsa_suites : pfs_suites;
  cfg.cipher_suites.insert(cfg.cipher_suites.end(), first.begin(),
                           first.end());
  cfg.cipher_suites.insert(cfg.cipher_suites.end(), second.begin(),
                           second.end());
  cfg.cipher_suites.insert(cfg.cipher_suites.end(), weak_tail.begin(),
                           weak_tail.end());
  return cfg;
}

void CloudFarm::install(net::Network& network) const {
  for (const auto& [hostname, ep] : endpoints_) {
    network.register_server(
        hostname, [this](const std::string& host) {
          return std::make_shared<tls::TlsServer>(server_config(host));
        });
  }
}

}  // namespace iotls::testbed
