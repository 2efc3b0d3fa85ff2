// The cloud side of the simulation: one TLS server identity per destination
// hostname, with *time-evolving* capabilities.
//
// Several of the paper's headline findings are server-side effects:
// devices advertise TLS 1.2/1.3 or PFS suites but the servers they contact
// don't support them (Figs 1, 3), Samsung appliances establish TLS 1.1
// because their endpoints stop there (Fig 1), and exactly two flows ever
// *establish* insecure suites because those two servers prefer 3DES / RC4
// (Fig 2). The CloudFarm encodes those per-domain behaviours and their
// adoption timeline.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/simtime.hpp"
#include "net/network.hpp"
#include "pki/universe.hpp"
#include "tls/server.hpp"

namespace iotls::testbed {

/// Per-destination server behaviour over time.
struct ServerPolicy {
  /// Highest version supported before/after `tls13_adoption`.
  tls::ProtocolVersion max_version = tls::ProtocolVersion::Tls1_2;
  tls::ProtocolVersion min_version = tls::ProtocolVersion::Ssl3_0;
  std::optional<common::Month> tls13_adoption;
  /// Month the server moves ECDHE to the top of its preference order;
  /// nullopt = RSA-key-transport preferred forever.
  std::optional<common::Month> pfs_adoption;
  /// Server prefers this suite above all (the 3DES/RC4-establishing
  /// endpoints of Fig 2); overrides pfs preference.
  std::optional<std::uint16_t> preferred_suite;
  bool ocsp_staple_support = true;
};

/// Issues per-domain certificates from the universe's CA set and builds
/// TlsServer sessions whose configuration follows the farm's current date.
class CloudFarm {
 public:
  /// `ca_name` must name a *common* CA in the universe (every device's
  /// root store force-includes it so legitimate connections verify).
  CloudFarm(const pki::CaUniverse& universe, std::uint64_t seed,
            std::string ca_name = std::string(kDefaultCaName));

  static constexpr const char* kDefaultCaName = "GlobalSign Root CA";

  /// Register a destination; idempotent. The policy defaults are derived
  /// from the hostname (domain_policy) unless one is supplied.
  void add_destination(const std::string& hostname,
                       std::optional<ServerPolicy> policy = std::nullopt);

  /// Install session factories for all destinations into `network`.
  /// Const: the factories only read endpoint state, so one farm can back
  /// many per-device sandbox networks concurrently (the farm must not be
  /// mutated — add_destination / set_current_date — during a fan-out).
  void install(net::Network& network) const;

  /// The date used for certificate validity and capability evolution.
  void set_current_date(common::SimDate date) { now_ = date; }
  [[nodiscard]] common::SimDate current_date() const { return now_; }

  /// Server configuration a destination would use right now.
  [[nodiscard]] tls::ServerConfig server_config(
      const std::string& hostname) const;

  [[nodiscard]] const std::string& ca_name() const { return ca_name_; }

  /// The built-in per-domain policy table (Fig 1-3 server-side events).
  static ServerPolicy domain_policy(const std::string& hostname);

 private:
  struct Endpoint {
    ServerPolicy policy;
    crypto::RsaKeyPair keys;
    x509::Certificate certificate;
  };

  const pki::CaUniverse& universe_;
  std::string ca_name_;
  common::Rng rng_;
  common::SimDate now_{2021, 3, 1};
  std::map<std::string, Endpoint> endpoints_;
};

}  // namespace iotls::testbed
