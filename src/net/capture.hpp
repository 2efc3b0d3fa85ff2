// The gateway capture point — the study's passive vantage (§4.1: "network
// traffic collection is performed at a gateway").
//
// A ConnectionObserver taps one connection's records in both directions and
// condenses them into a HandshakeRecord: exactly the fields the paper's
// analyses read (advertised/established versions and suites, extensions,
// alerts, completion). CaptureLog accumulates records across the testbed.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/simtime.hpp"
#include "tls/alert.hpp"
#include "tls/messages.hpp"
#include "tls/record.hpp"
#include "tls/transport.hpp"

namespace iotls::net {

/// One captured TLS connection, as seen from the gateway.
struct HandshakeRecord {
  std::string device;        // devices are identified at the gateway (by MAC)
  std::string destination;   // SNI if present, else the contacted hostname
  common::Month month = common::kStudyStart;

  // Client side (from the ClientHello).
  std::vector<tls::ProtocolVersion> advertised_versions;
  std::vector<std::uint16_t> advertised_suites;
  std::vector<std::uint16_t> extension_types;
  std::vector<std::uint16_t> advertised_groups;
  std::vector<std::uint16_t> advertised_sigalgs;
  bool requested_ocsp_staple = false;
  bool sent_sni = false;

  // Outcome (from the ServerHello / Finished / alerts).
  std::optional<tls::ProtocolVersion> established_version;
  std::optional<std::uint16_t> established_suite;
  bool handshake_complete = false;
  bool application_data_seen = false;
  std::optional<tls::Alert> client_alert;
  std::optional<tls::Alert> server_alert;

  /// Table 4 audit fields: where in the connection the first *fatal* alert
  /// appeared. Direction is who sent it; ordinal is the 1-based position of
  /// the alert record counting every record in both directions. Ordinal is
  /// -1 when the connection saw no fatal alert.
  enum class AlertDirection { None, ClientToServer, ServerToClient };
  AlertDirection first_fatal_alert_direction = AlertDirection::None;
  int first_fatal_alert_ordinal = -1;

  bool operator==(const HandshakeRecord&) const = default;

  [[nodiscard]] tls::ProtocolVersion max_advertised_version() const;
  [[nodiscard]] bool saw_fatal_alert() const {
    return first_fatal_alert_direction != AlertDirection::None;
  }
  [[nodiscard]] bool advertises_insecure_suite() const;
  [[nodiscard]] bool advertises_strong_suite() const;
  [[nodiscard]] bool established_insecure_suite() const;
  [[nodiscard]] bool established_strong_suite() const;
};

/// Parses the records of one connection into a HandshakeRecord.
class ConnectionObserver {
 public:
  ConnectionObserver(std::string device, std::string hostname,
                     common::Month month);

  /// Tap to attach to the connection's Transport.
  [[nodiscard]] tls::Transport::Tap tap();

  /// The record as observed so far.
  [[nodiscard]] const HandshakeRecord& record() const { return record_; }

 private:
  void observe(bool client_to_server, const tls::TlsRecord& rec);

  HandshakeRecord record_;
  bool saw_client_finished_ = false;
  int records_seen_ = 0;
};

std::string alert_direction_name(HandshakeRecord::AlertDirection d);

/// Append-only store of captured connections with the filters the
/// analyses need.
class CaptureLog {
 public:
  void add(HandshakeRecord record);

  [[nodiscard]] const std::vector<HandshakeRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::size_t size() const { return records_.size(); }

  [[nodiscard]] std::vector<const HandshakeRecord*> for_device(
      const std::string& device) const;
  [[nodiscard]] std::vector<std::string> devices() const;
  [[nodiscard]] std::vector<std::string> destinations_of(
      const std::string& device) const;

  void clear() { records_.clear(); }

 private:
  std::vector<HandshakeRecord> records_;
};

}  // namespace iotls::net
