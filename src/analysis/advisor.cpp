#include "analysis/advisor.hpp"

#include <algorithm>

namespace iotls::analysis {

std::string advisory_name(AdvisoryKind kind) {
  switch (kind) {
    case AdvisoryKind::DeprecatedVersionAdvertised:
      return "deprecated-version-advertised";
    case AdvisoryKind::OldVersionAccepted: return "old-version-accepted";
    case AdvisoryKind::InsecureSuiteAdvertised:
      return "insecure-suite-advertised";
    case AdvisoryKind::NullAnonSuiteAdvertised:
      return "null-anon-suite-advertised";
    case AdvisoryKind::NoForwardSecrecy: return "no-forward-secrecy";
    case AdvisoryKind::MissingSni: return "missing-sni";
    case AdvisoryKind::NoOcspStapleRequest: return "no-ocsp-staple-request";
    case AdvisoryKind::NoTls13Support: return "no-tls13-support";
  }
  return "unknown";
}

std::string advisory_remediation(AdvisoryKind kind) {
  switch (kind) {
    case AdvisoryKind::DeprecatedVersionAdvertised:
      return "raise the maximum advertised version to TLS 1.2 or later";
    case AdvisoryKind::OldVersionAccepted:
      return "disable negotiation of TLS 1.0/1.1 entirely (Table 6 risk)";
    case AdvisoryKind::InsecureSuiteAdvertised:
      return "remove DES/3DES/RC4/EXPORT suites from the offer (NSA/OWASP "
             "guidance cited in §2)";
    case AdvisoryKind::NullAnonSuiteAdvertised:
      return "remove NULL/ANON suites — they provide no protection";
    case AdvisoryKind::NoForwardSecrecy:
      return "offer ECDHE/DHE suites first for perfect forward secrecy";
    case AdvisoryKind::MissingSni:
      return "send server_name so endpoints can serve correct certificates";
    case AdvisoryKind::NoOcspStapleRequest:
      return "request stapled OCSP responses (status_request)";
    case AdvisoryKind::NoTls13Support:
      return "adopt TLS 1.3 (§5.1: devices rarely upgrade over time)";
  }
  return "";
}

std::vector<Advisory> audit_client_hello(const tls::ClientHello& hello) {
  std::vector<Advisory> advisories;
  const auto versions = hello.advertised_versions();

  if (hello.max_advertised_version() < tls::ProtocolVersion::Tls1_2) {
    advisories.push_back({AdvisoryKind::DeprecatedVersionAdvertised,
                          "maximum advertised version is " +
                              tls::version_name(hello.max_advertised_version())});
  } else if (std::any_of(versions.begin(), versions.end(),
                         tls::is_deprecated)) {
    advisories.push_back({AdvisoryKind::OldVersionAccepted,
                          "pre-1.2 versions still negotiable"});
  }

  std::string insecure;
  std::string null_anon;
  for (const auto id : hello.cipher_suites) {
    if (tls::suite_is_insecure(id)) {
      if (!insecure.empty()) insecure += ", ";
      insecure += tls::suite_name(id);
    }
    if (tls::suite_is_null_or_anon(id)) {
      if (!null_anon.empty()) null_anon += ", ";
      null_anon += tls::suite_name(id);
    }
  }
  if (!insecure.empty()) {
    advisories.push_back({AdvisoryKind::InsecureSuiteAdvertised, insecure});
  }
  if (!null_anon.empty()) {
    advisories.push_back({AdvisoryKind::NullAnonSuiteAdvertised, null_anon});
  }
  if (!hello.advertises_strong_suite()) {
    advisories.push_back({AdvisoryKind::NoForwardSecrecy,
                          "no DHE/ECDHE suite offered"});
  }
  if (!hello.sni().has_value()) {
    advisories.push_back({AdvisoryKind::MissingSni, ""});
  }
  if (!hello.requests_ocsp_stapling()) {
    advisories.push_back({AdvisoryKind::NoOcspStapleRequest, ""});
  }
  if (hello.max_advertised_version() < tls::ProtocolVersion::Tls1_3) {
    advisories.push_back({AdvisoryKind::NoTls13Support, ""});
  }
  return advisories;
}

int DeviceAuditReport::advisory_count() const {
  int total = 0;
  for (const auto& [dest, advisories] : per_destination) {
    total += static_cast<int>(advisories.size());
  }
  return total;
}

DeviceAuditReport audit_device(testbed::Testbed& testbed,
                               const std::string& device_name) {
  DeviceAuditReport report;
  report.device = device_name;

  auto& runtime = testbed.runtime(device_name);
  runtime.reset_failure_state();
  const auto boot =
      runtime.boot(testbed.date(), /*include_intermittent=*/true);
  for (const auto& conn : boot.connections) {
    auto advisories = audit_client_hello(conn.result.hello);
    if (!advisories.empty()) {
      report.per_destination[conn.destination->hostname] =
          std::move(advisories);
    }
  }
  return report;
}

std::string render_audit(const DeviceAuditReport& report) {
  std::string out = "audit: " + report.device + " — " +
                    std::to_string(report.advisory_count()) +
                    " advisory(ies)\n";
  for (const auto& [dest, advisories] : report.per_destination) {
    out += "  " + dest + "\n";
    for (const auto& advisory : advisories) {
      out += "    [" + advisory_name(advisory.kind) + "] ";
      if (!advisory.detail.empty()) out += advisory.detail + " — ";
      out += advisory_remediation(advisory.kind) + "\n";
    }
  }
  return out;
}

}  // namespace iotls::analysis
