// The §6 "auditing service": devices connect to an audit endpoint at
// regular intervals (e.g. every reboot); the service inspects the offered
// handshake parameters and reports security advisories to the
// manufacturer. This module is that service, applied to ClientHellos.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "testbed/testbed.hpp"
#include "tls/messages.hpp"

namespace iotls::analysis {

enum class AdvisoryKind {
  DeprecatedVersionAdvertised,  // max below TLS 1.2
  OldVersionAccepted,           // supports pre-1.2 versions it could drop
  InsecureSuiteAdvertised,      // DES/3DES/RC4/EXPORT offered
  NullAnonSuiteAdvertised,      // no-auth/no-crypto suites offered
  NoForwardSecrecy,             // no DHE/ECDHE suite offered
  MissingSni,                   // no server_name extension
  NoOcspStapleRequest,          // no status_request extension
  NoTls13Support,               // modern versions not yet adopted
};

std::string advisory_name(AdvisoryKind kind);
std::string advisory_remediation(AdvisoryKind kind);

struct Advisory {
  AdvisoryKind kind = AdvisoryKind::InsecureSuiteAdvertised;
  std::string detail;  // e.g. the offending suite names
};

/// Audit a single ClientHello (the per-connection primitive).
std::vector<Advisory> audit_client_hello(const tls::ClientHello& hello);

/// Per-device report: every advisory seen across a boot's connections,
/// keyed by destination.
struct DeviceAuditReport {
  std::string device;
  std::map<std::string, std::vector<Advisory>> per_destination;

  [[nodiscard]] int advisory_count() const;
  [[nodiscard]] bool clean() const { return advisory_count() == 0; }
};

/// Boot the device through its smart plug and audit every connection —
/// §6's "once every reboot" cadence.
DeviceAuditReport audit_device(testbed::Testbed& testbed,
                               const std::string& device_name);

std::string render_audit(const DeviceAuditReport& report);

}  // namespace iotls::analysis
