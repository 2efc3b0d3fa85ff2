#include "core/table4.hpp"

#include <memory>
#include <vector>

#include "obs/profile.hpp"
#include "pki/ca.hpp"
#include "pki/spoof.hpp"
#include "tls/client.hpp"
#include "tls/server.hpp"

namespace iotls::core {

namespace {

/// One probe handshake: client (library profile, trusting `trusted_root`)
/// against a server presenting `chain`. Returns the client's alert.
std::optional<tls::Alert> probe_once(tls::TlsLibrary library,
                                     const pki::RootStore& roots,
                                     std::vector<x509::Certificate> chain,
                                     const crypto::RsaKeyPair& server_keys,
                                     std::uint64_t seed) {
  tls::ServerConfig server_cfg;
  server_cfg.chain = std::move(chain);
  server_cfg.keys = server_keys;
  server_cfg.seed = seed;
  auto server = std::make_shared<tls::TlsServer>(server_cfg);
  tls::Transport transport(server);

  tls::ClientConfig client_cfg;
  client_cfg.library = library;
  tls::TlsClient client(client_cfg, &roots, common::Rng(seed ^ 0xC11E),
                        common::SimDate{2021, 3, 1});
  (void)client.connect(transport, "probe-target.example.com");
  return server->observation().alert_received;
}

/// The §4.2 probe lab: a known root the client trusts, the attacker's
/// key, and the two probe chains, one anchored at a spoofed copy of the
/// known root and one at an unknown CA.
struct ProbeLab {
  x509::Certificate known_root;
  crypto::RsaKeyPair attacker;
  std::vector<x509::Certificate> spoofed;
  std::vector<x509::Certificate> unknown;
};

/// The known CA's key generation is credited to pki, like every other
/// CA's; the attacker's key and both chains are forgeries, credited to
/// mitm like AttackForge's.
ProbeLab build_probe_lab(std::uint64_t seed) {
  common::Rng rng(seed);
  ProbeLab lab;
  {
    const obs::ProfileZone zone("pki/ca_keygen");
    const pki::CertificateAuthority known_ca(
        x509::DistinguishedName{"Known Trusted Root", "Probe Lab", "US"},
        rng);
    lab.known_root = known_ca.root();
  }

  const obs::ProfileZone zone("mitm/forge");
  lab.attacker = crypto::rsa_generate(rng);
  lab.spoofed = pki::forge_chain(pki::make_spoofed_ca(lab.known_root,
                                                      lab.attacker),
                                 lab.attacker.priv, "probe-target.example.com",
                                 lab.attacker.pub);
  common::Rng unknown_rng(seed ^ 1);
  const pki::CertificateAuthority unknown_ca(
      x509::DistinguishedName{"Totally Unknown Root", "Probe Lab", "US"},
      unknown_rng);
  lab.unknown = pki::forge_chain(unknown_ca.root(), unknown_ca.keypair().priv,
                                 "probe-target.example.com", lab.attacker.pub);
  return lab;
}

}  // namespace

std::vector<LibraryProbeRow> run_library_probe_matrix(std::uint64_t seed) {
  const ProbeLab lab = build_probe_lab(seed);
  pki::RootStore roots;
  roots.add(lab.known_root);

  std::vector<LibraryProbeRow> rows;
  for (const auto library : tls::table4_libraries()) {
    LibraryProbeRow row;
    row.library = library;
    row.label = tls::library_version_label(library);
    row.alert_known_ca_bad_signature =
        probe_once(library, roots, lab.spoofed, lab.attacker,
                   seed ^ 2);
    row.alert_unknown_ca =
        probe_once(library, roots, lab.unknown, lab.attacker,
                   seed ^ 3);
    row.amenable = row.alert_known_ca_bad_signature.has_value() &&
                   row.alert_unknown_ca.has_value() &&
                   *row.alert_known_ca_bad_signature != *row.alert_unknown_ca;
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace iotls::core
