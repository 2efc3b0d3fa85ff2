#include "mitm/attacks.hpp"

#include "obs/profile.hpp"
#include "pki/spoof.hpp"
#include "testbed/cloud.hpp"

namespace iotls::mitm {

std::string attack_name(AttackKind kind) {
  switch (kind) {
    case AttackKind::NoValidation: return "NoValidation";
    case AttackKind::WrongHostname: return "WrongHostname";
    case AttackKind::InvalidBasicConstraints:
      return "InvalidBasicConstraints";
  }
  return "unknown";
}

std::string attack_description(AttackKind kind) {
  switch (kind) {
    case AttackKind::NoValidation:
      return "Use a self-signed certificate to check whether a device "
             "performs any certificate validation.";
    case AttackKind::WrongHostname:
      return "Use an unexpired legitimate certificate for a domain under "
             "our control to check whether a device performs hostname "
             "validation. We send the full chain linking to a trusted root "
             "authority during handshake.";
    case AttackKind::InvalidBasicConstraints:
      return "Use certificate from the previous attack as a root CA to "
             "check whether a device validates BasicConstraints extension. "
             "We send the full chain linking to a trusted root authority "
             "during handshake.";
  }
  return "unknown";
}

const std::vector<AttackKind>& all_attacks() {
  static const std::vector<AttackKind> kAll = {
      AttackKind::NoValidation, AttackKind::WrongHostname,
      AttackKind::InvalidBasicConstraints};
  return kAll;
}

std::string failure_name(FailureKind kind) {
  switch (kind) {
    case FailureKind::IncompleteHandshake: return "IncompleteHandshake";
    case FailureKind::FailedHandshake: return "FailedHandshake";
  }
  return "unknown";
}

AttackForge::AttackForge(const pki::CaUniverse& universe, std::uint64_t seed)
    : attacker_domain_("research.iotls-lab-sim.net") {
  const obs::ProfileZone zone("mitm/forge");
  common::Rng rng = common::Rng::derive(seed, "attack-forge");
  attacker_keys_ = crypto::rsa_generate(rng);

  // The paper obtained a free certificate from ZeroSSL for a domain it
  // controls; our equivalent is a leaf issued by a universally trusted
  // common CA (the cloud farm's issuer, present in every device store).
  const auto& ca =
      universe.authority(testbed::CloudFarm::kDefaultCaName);
  attacker_cert_ = ca.issue_server_cert(
      attacker_domain_, attacker_keys_.pub,
      x509::Validity{{2020, 1, 1}, {2023, 1, 1}});
  attacker_chain_ = {attacker_cert_, ca.root()};

  unknown_root_ = x509::make_self_signed_root(
      x509::DistinguishedName{"IoTLS Probe Arbitrary Root", "Probing", "US"},
      {0xAB, 0xCD, 0xEF}, attacker_keys_);
}

ForgedIdentity AttackForge::forge(AttackKind kind,
                                  const std::string& victim_host) const {
  const obs::ProfileZone zone("mitm/forge");
  ForgedIdentity identity;
  identity.keys = attacker_keys_;

  switch (kind) {
    case AttackKind::NoValidation:
      identity.chain = {
          pki::make_self_signed_leaf(victim_host, attacker_keys_)};
      return identity;

    case AttackKind::WrongHostname:
      // Valid chain, wrong name: the certificate is for *our* domain.
      identity.chain = attacker_chain_;
      return identity;

    case AttackKind::InvalidBasicConstraints: {
      // Our legitimate *leaf* acts as the issuer of a fresh certificate
      // for the victim's hostname.
      x509::TbsCertificate tbs;
      tbs.serial = {0x13, 0x37};
      tbs.issuer = attacker_cert_.tbs.subject;
      tbs.subject = x509::DistinguishedName::cn(victim_host);
      tbs.validity = x509::Validity{{2020, 1, 1}, {2023, 1, 1}};
      tbs.subject_public_key = attacker_keys_.pub;
      tbs.extensions.basic_constraints = x509::BasicConstraints{false, {}};
      tbs.extensions.subject_alt_names = {victim_host};
      const auto forged_leaf =
          x509::issue_certificate(tbs, attacker_keys_.priv);
      identity.chain = {forged_leaf};
      identity.chain.insert(identity.chain.end(), attacker_chain_.begin(),
                            attacker_chain_.end());
      return identity;
    }
  }
  throw common::ProtocolError("unknown attack kind");
}

ForgedIdentity AttackForge::self_signed(const std::string& victim_host) const {
  return forge(AttackKind::NoValidation, victim_host);
}

ForgedIdentity AttackForge::spoofed_ca_chain(
    const x509::Certificate& real_root,
    const std::string& victim_host) const {
  const obs::ProfileZone zone("mitm/forge");
  ForgedIdentity identity;
  identity.keys = attacker_keys_;
  const auto spoofed = pki::make_spoofed_ca(real_root, attacker_keys_);
  identity.chain = pki::forge_chain(spoofed, attacker_keys_.priv,
                                    victim_host, attacker_keys_.pub);
  return identity;
}

ForgedIdentity AttackForge::unknown_ca_chain(
    const std::string& victim_host) const {
  const obs::ProfileZone zone("mitm/forge");
  ForgedIdentity identity;
  identity.keys = attacker_keys_;
  identity.chain = pki::forge_chain(unknown_root_, attacker_keys_.priv,
                                    victim_host, attacker_keys_.pub);
  return identity;
}

}  // namespace iotls::mitm
