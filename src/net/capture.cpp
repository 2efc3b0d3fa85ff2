#include "net/capture.hpp"

#include <algorithm>

namespace iotls::net {

tls::ProtocolVersion HandshakeRecord::max_advertised_version() const {
  if (advertised_versions.empty()) {
    throw common::ProtocolError("record has no advertised versions");
  }
  return *std::max_element(advertised_versions.begin(),
                           advertised_versions.end());
}

bool HandshakeRecord::advertises_insecure_suite() const {
  return std::any_of(advertised_suites.begin(), advertised_suites.end(),
                     tls::suite_is_insecure);
}

bool HandshakeRecord::advertises_strong_suite() const {
  return std::any_of(advertised_suites.begin(), advertised_suites.end(),
                     tls::suite_is_strong);
}

bool HandshakeRecord::established_insecure_suite() const {
  return established_suite.has_value() &&
         tls::suite_is_insecure(*established_suite);
}

bool HandshakeRecord::established_strong_suite() const {
  return established_suite.has_value() &&
         tls::suite_is_strong(*established_suite);
}

std::string alert_direction_name(HandshakeRecord::AlertDirection d) {
  switch (d) {
    case HandshakeRecord::AlertDirection::None: return "none";
    case HandshakeRecord::AlertDirection::ClientToServer:
      return "client->server";
    case HandshakeRecord::AlertDirection::ServerToClient:
      return "server->client";
  }
  return "unknown";
}

ConnectionObserver::ConnectionObserver(std::string device,
                                       std::string hostname,
                                       common::Month month) {
  record_.device = std::move(device);
  record_.destination = std::move(hostname);
  record_.month = month;
}

tls::Transport::Tap ConnectionObserver::tap() {
  return [this](bool client_to_server, const tls::TlsRecord& rec) {
    observe(client_to_server, rec);
  };
}

void ConnectionObserver::observe(bool client_to_server,
                                 const tls::TlsRecord& rec) {
  ++records_seen_;
  switch (rec.type) {
    case tls::ContentType::Alert: {
      const auto alert = tls::Alert::parse(rec.payload);
      if (client_to_server) {
        record_.client_alert = alert;
      } else {
        record_.server_alert = alert;
      }
      if (alert.level == tls::AlertLevel::Fatal &&
          !record_.saw_fatal_alert()) {
        record_.first_fatal_alert_direction =
            client_to_server
                ? HandshakeRecord::AlertDirection::ClientToServer
                : HandshakeRecord::AlertDirection::ServerToClient;
        record_.first_fatal_alert_ordinal = records_seen_;
      }
      return;
    }
    case tls::ContentType::ApplicationData:
      record_.application_data_seen = true;
      return;
    case tls::ContentType::ChangeCipherSpec:
      return;
    case tls::ContentType::Handshake:
      break;
  }

  const auto msg = tls::HandshakeMessage::parse(rec.payload);
  if (client_to_server && msg.type == tls::HandshakeType::ClientHello) {
    const auto hello = tls::ClientHello::parse(msg.body);
    record_.advertised_versions = hello.advertised_versions();
    record_.advertised_suites = hello.cipher_suites;
    for (const auto& ext : hello.extensions) {
      record_.extension_types.push_back(ext.type);
    }
    const auto* groups_ext = tls::find_extension(
        hello.extensions, tls::ExtensionType::SupportedGroups);
    if (groups_ext != nullptr) {
      for (const auto g : tls::parse_supported_groups(groups_ext->payload)) {
        record_.advertised_groups.push_back(static_cast<std::uint16_t>(g));
      }
    }
    const auto* sigs_ext = tls::find_extension(
        hello.extensions, tls::ExtensionType::SignatureAlgorithms);
    if (sigs_ext != nullptr) {
      for (const auto s :
           tls::parse_signature_algorithms(sigs_ext->payload)) {
        record_.advertised_sigalgs.push_back(static_cast<std::uint16_t>(s));
      }
    }
    record_.requested_ocsp_staple = hello.requests_ocsp_stapling();
    const auto sni = hello.sni();
    record_.sent_sni = sni.has_value();
    if (sni.has_value()) record_.destination = *sni;
    return;
  }
  if (!client_to_server && msg.type == tls::HandshakeType::ServerHello) {
    const auto hello = tls::ServerHello::parse(msg.body);
    record_.established_version = hello.negotiated_version();
    record_.established_suite = hello.cipher_suite;
    return;
  }
  if (client_to_server && msg.type == tls::HandshakeType::Finished) {
    saw_client_finished_ = true;
    return;
  }
  if (!client_to_server && msg.type == tls::HandshakeType::Finished &&
      saw_client_finished_) {
    record_.handshake_complete = true;
    return;
  }
}

void CaptureLog::add(HandshakeRecord record) {
  records_.push_back(std::move(record));
}

}  // namespace iotls::net
