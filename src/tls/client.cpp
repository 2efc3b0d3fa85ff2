#include "tls/client.hpp"

#include <algorithm>

#include "crypto/sha256.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "tls/alert.hpp"
#include "tls/ciphersuite.hpp"
#include "tls/version.hpp"

namespace iotls::tls {

ProtocolVersion ClientConfig::max_version() const {
  return tls::max_version(versions);
}

bool ClientConfig::supports(ProtocolVersion v) const {
  return std::find(versions.begin(), versions.end(), v) != versions.end();
}

std::string outcome_name(HandshakeOutcome o) {
  switch (o) {
    case HandshakeOutcome::Success: return "success";
    case HandshakeOutcome::NoServerResponse: return "no_server_response";
    case HandshakeOutcome::ServerAlert: return "server_alert";
    case HandshakeOutcome::NegotiationRejected: return "negotiation_rejected";
    case HandshakeOutcome::ValidationFailed: return "validation_failed";
    case HandshakeOutcome::ProtocolViolation: return "protocol_violation";
  }
  return "unknown";
}

TlsClient::TlsClient(ClientConfig config, const pki::RootStore* roots,
                     common::Rng rng, common::SimDate now)
    : config_(std::move(config)), roots_(roots), rng_(rng), now_(now) {
  if (config_.versions.empty()) {
    throw common::ProtocolError("client config has no versions");
  }
  if (config_.cipher_suites.empty()) {
    throw common::ProtocolError("client config has no cipher suites");
  }
}

ClientHello build_client_hello(const ClientConfig& config,
                               const std::string& hostname,
                               common::Rng& rng,
                               common::BytesView session_ticket) {
  ClientHello hello;
  hello.legacy_version =
      std::min(config.max_version(), ProtocolVersion::Tls1_2);
  const common::Bytes random_bytes = rng.bytes(32);
  std::copy(random_bytes.begin(), random_bytes.end(), hello.random.begin());
  hello.session_id = rng.bytes(16);
  hello.cipher_suites = config.cipher_suites;

  // Extension order is deterministic per configuration — part of the
  // fingerprint (§5.3).
  if (config.send_sni) hello.extensions.push_back(make_sni(hostname));
  hello.extensions.push_back(make_ec_point_formats());
  hello.extensions.push_back(make_supported_groups(config.groups));
  hello.extensions.push_back(
      make_signature_algorithms(config.signature_algorithms));
  if (config.request_ocsp_staple) {
    hello.extensions.push_back(make_status_request());
  }
  if (!session_ticket.empty()) {
    hello.extensions.push_back(
        {static_cast<std::uint16_t>(ExtensionType::SessionTicket),
         common::Bytes(session_ticket.begin(), session_ticket.end())});
  } else if (config.session_ticket) {
    hello.extensions.push_back(make_session_ticket());
  }
  if (!config.alpn_protocols.empty()) {
    hello.extensions.push_back(make_alpn(config.alpn_protocols));
  }
  if (config.supports(ProtocolVersion::Tls1_3)) {
    // Descending preference, every supported version.
    std::vector<ProtocolVersion> versions = config.versions;
    std::sort(versions.begin(), versions.end(),
              std::greater<ProtocolVersion>());
    hello.extensions.push_back(make_supported_versions(versions));
  }
  return hello;
}

ClientResult TlsClient::handshake(Transport& transport,
                                  const std::string& hostname,
                                  common::BytesView app_payload,
                                  const ResumptionState* resume) {
  ClientResult result;
  result.hello = build_client_hello(
      config_, hostname, rng_,
      resume != nullptr ? common::BytesView(resume->ticket)
                        : common::BytesView{});

  common::Bytes transcript;
  auto track = [&transcript](const HandshakeMessage& msg) {
    transcript = common::concat({transcript, msg.serialize()});
  };

  const auto hello_msg =
      HandshakeMessage::wrap(HandshakeType::ClientHello, result.hello);
  track(hello_msg);
  transport.send(TlsRecord{ContentType::Handshake,
                           result.hello.legacy_version,
                           hello_msg.serialize()});

  auto abort_with_alert = [&](AlertDescription desc,
                              HandshakeOutcome outcome) {
    const Alert alert{AlertLevel::Fatal, desc};
    result.alert_sent = alert;
    transport.send(TlsRecord{ContentType::Alert, ProtocolVersion::Tls1_2,
                             alert.serialize()});
    result.outcome = outcome;
    transport.close();
    return result;
  };

  // --- Read the server flight: ServerHello .. ServerHelloDone, or the
  // abbreviated ServerHello + Finished when resumption is accepted ---
  std::optional<ServerHello> server_hello;
  std::optional<CertificateMsg> cert_msg;
  std::optional<ServerKeyExchange> ske;
  std::optional<Finished> resumed_server_fin;
  std::optional<NewSessionTicket> fresh_nst;
  bool hello_done = false;

  while (!hello_done) {
    const auto record = transport.receive();
    if (!record) {
      result.outcome = server_hello.has_value()
                           ? HandshakeOutcome::ProtocolViolation
                           : HandshakeOutcome::NoServerResponse;
      transport.close();
      return result;
    }
    if (record->type == ContentType::Alert) {
      result.alert_received = Alert::parse(record->payload);
      result.outcome = HandshakeOutcome::ServerAlert;
      transport.close();
      return result;
    }
    if (record->type != ContentType::Handshake) {
      return abort_with_alert(AlertDescription::UnexpectedMessage,
                              HandshakeOutcome::ProtocolViolation);
    }
    HandshakeMessage msg;
    try {
      msg = HandshakeMessage::parse(record->payload);
    } catch (const common::ParseError&) {
      return abort_with_alert(AlertDescription::DecodeError,
                              HandshakeOutcome::ProtocolViolation);
    }
    bool bad_message = false;
    try {
      switch (msg.type) {
        case HandshakeType::ServerHello:
          server_hello = ServerHello::parse(msg.body);
          break;
        case HandshakeType::Certificate:
          cert_msg = CertificateMsg::parse(msg.body);
          break;
        case HandshakeType::ServerKeyExchange:
          ske = ServerKeyExchange::parse(msg.body);
          break;
        case HandshakeType::CertificateStatus:
          (void)CertificateStatus::parse(msg.body);
          result.staple_received = true;
          break;
        case HandshakeType::ServerHelloDone:
          (void)ServerHelloDone::parse(msg.body);
          hello_done = true;
          break;
        case HandshakeType::NewSessionTicket:
          // Only legal here as the RFC 5077 §3.3 re-issue inside the
          // server's abbreviated flight (full handshakes deliver theirs
          // after the client Finished).
          if (resume == nullptr || !server_hello.has_value() ||
              cert_msg.has_value()) {
            bad_message = true;
            break;
          }
          fresh_nst = NewSessionTicket::parse(msg.body);
          break;
        case HandshakeType::Finished:
          // Only legal here as the server's abbreviated-handshake reply.
          if (resume == nullptr || !server_hello.has_value() ||
              cert_msg.has_value()) {
            bad_message = true;
            break;
          }
          resumed_server_fin = Finished::parse(msg.body);
          hello_done = true;
          break;
        default:
          bad_message = true;
          break;
      }
    } catch (const common::ParseError&) {
      return abort_with_alert(AlertDescription::DecodeError,
                              HandshakeOutcome::ProtocolViolation);
    }
    if (bad_message) {
      return abort_with_alert(AlertDescription::UnexpectedMessage,
                              HandshakeOutcome::ProtocolViolation);
    }
    // The abbreviated flight's Finished is verified over the CH+SH
    // transcript, so both it and the re-issued ticket riding with it are
    // excluded (the server snapshots the same prefix).
    if (!resumed_server_fin.has_value() &&
        msg.type != HandshakeType::NewSessionTicket) {
      track(msg);
    }
  }

  // --- Abbreviated (resumed) handshake ---
  if (resumed_server_fin.has_value()) {
    result.server_hello = server_hello;
    const ProtocolVersion resumed_version =
        server_hello->negotiated_version();
    const std::uint16_t resumed_suite = server_hello->cipher_suite;
    if (!config_.supports(resumed_version) ||
        resumed_suite != resume->cipher_suite) {
      return abort_with_alert(AlertDescription::IllegalParameter,
                              HandshakeOutcome::NegotiationRejected);
    }
    result.negotiated_version = resumed_version;
    result.negotiated_suite = resumed_suite;

    const auto resumed_hash = crypto::Sha256::digest_bytes(transcript);
    const auto expected = compute_verify_data(
        resume->master_secret, /*from_client=*/false, resumed_hash);
    if (!common::constant_time_equal(resumed_server_fin->verify_data,
                                     expected)) {
      return abort_with_alert(AlertDescription::DecryptError,
                              HandshakeOutcome::ProtocolViolation);
    }

    Finished client_fin;
    client_fin.verify_data = compute_verify_data(
        resume->master_secret, /*from_client=*/true, resumed_hash);
    transport.send(TlsRecord{ContentType::Handshake,
                             ProtocolVersion::Tls1_2,
                             HandshakeMessage::wrap(HandshakeType::Finished,
                                                    client_fin)
                                 .serialize()});

    const SessionKeys keys = derive_resumed_keys(
        resume->master_secret, result.hello.random, server_hello->random,
        resumed_suite);
    result.outcome = HandshakeOutcome::Success;
    result.resumed = true;
    if (fresh_nst.has_value()) {
      // Adopt the re-issued ticket: same master secret, fresh lifetime.
      ResumptionState state;
      state.ticket = fresh_nst->ticket;
      state.master_secret = resume->master_secret;
      state.cipher_suite = resumed_suite;
      result.resumption = std::move(state);
    } else {
      result.resumption = *resume;  // tickets remain reusable
    }

    if (!app_payload.empty()) {
      RecordProtection send_protection(resumed_suite, keys.client_key,
                                       keys.client_mac_key,
                                       keys.client_nonce);
      RecordProtection recv_protection(resumed_suite, keys.server_key,
                                       keys.server_mac_key,
                                       keys.server_nonce);
      transport.send(TlsRecord{
          ContentType::ApplicationData,
          std::min(resumed_version, ProtocolVersion::Tls1_2),
          send_protection.protect(app_payload)});
      const auto response = transport.receive();
      if (response && response->type == ContentType::ApplicationData) {
        try {
          result.app_response_plaintext =
              recv_protection.unprotect(response->payload);
          result.app_data_exchanged = true;
        } catch (const common::CryptoError&) {
        }
      }
    }
    transport.close();
    return result;
  }

  if (!server_hello || !cert_msg) {
    return abort_with_alert(AlertDescription::UnexpectedMessage,
                            HandshakeOutcome::ProtocolViolation);
  }
  result.server_hello = server_hello;
  result.server_chain = cert_msg->chain;

  // --- Negotiation checks ---
  const ProtocolVersion version = server_hello->negotiated_version();
  if (!config_.supports(version)) {
    return abort_with_alert(AlertDescription::ProtocolVersion,
                            HandshakeOutcome::NegotiationRejected);
  }
  const std::uint16_t suite = server_hello->cipher_suite;
  if (std::find(config_.cipher_suites.begin(), config_.cipher_suites.end(),
                suite) == config_.cipher_suites.end()) {
    return abort_with_alert(AlertDescription::HandshakeFailure,
                            HandshakeOutcome::NegotiationRejected);
  }
  result.negotiated_version = version;
  result.negotiated_suite = suite;

  auto fail_validation = [&](x509::VerifyError error) {
    result.verify_error = error;
    result.outcome = HandshakeOutcome::ValidationFailed;
    // RFC 8446 §6: alerts on failure are optional in TLS 1.3; a stack that
    // exercises that freedom is invisible to the probe (§6 limitation).
    const bool suppressed = config_.tls13_suppress_alerts &&
                            version == ProtocolVersion::Tls1_3;
    const auto alert = alert_for_verify_error(config_.library, error);
    if (alert.has_value() && !suppressed) {
      result.alert_sent = alert;
      transport.send(TlsRecord{ContentType::Alert, ProtocolVersion::Tls1_2,
                               alert->serialize()});
    }
    transport.close();
    return result;
  };

  // --- Pinning (§6 extension) — enforced even when the policy skips
  // validation: that independence is exactly what makes pinning mitigate
  // the Table 7 attacks. ---
  if (config_.pinned_leaf_fingerprint.has_value()) {
    if (result.server_chain.empty() ||
        result.server_chain[0].fingerprint() !=
            *config_.pinned_leaf_fingerprint) {
      result.verify_failed_depth = 0;  // the pin is a leaf check
      return fail_validation(x509::VerifyError::PinMismatch);
    }
  }

  // --- Certificate validation ---
  const pki::RootStore empty_store;
  const pki::RootStore& store = roots_ != nullptr ? *roots_ : empty_store;
  const x509::VerifyResult verify = x509::verify_chain(
      result.server_chain, config_.send_sni ? hostname : std::string(),
      store.roots(), now_, config_.verify_policy, config_.span);
  if (!verify.ok()) {
    result.verify_failed_depth = verify.failed_depth;
    return fail_validation(verify.error);
  }

  // --- Revocation (§6 extension; Table 8 CRL/OCSP clients) ---
  if (config_.revocation_list != nullptr &&
      config_.verify_policy.validate && !result.server_chain.empty() &&
      config_.revocation_list->is_revoked(result.server_chain[0])) {
    const auto alert = Alert{AlertLevel::Fatal,
                             AlertDescription::CertificateRevoked};
    result.verify_error = x509::VerifyError::Revoked;
    result.verify_failed_depth = 0;  // revocation is checked on the leaf
    result.outcome = HandshakeOutcome::ValidationFailed;
    result.alert_sent = alert;
    transport.send(TlsRecord{ContentType::Alert, ProtocolVersion::Tls1_2,
                             alert.serialize()});
    transport.close();
    return result;
  }

  const CipherSuiteInfo* info = suite_info(suite);
  const bool ephemeral =
      info != nullptr &&
      (info->kex == KeyExchange::Dhe || info->kex == KeyExchange::Ecdhe ||
       info->kex == KeyExchange::Tls13 || info->kex == KeyExchange::Anon);
  const bool anonymous = info != nullptr && info->kex == KeyExchange::Anon;

  // --- ServerKeyExchange signature check (the server proves possession of
  // the certified key) ---
  if (ephemeral && !ske.has_value()) {
    return abort_with_alert(AlertDescription::UnexpectedMessage,
                            HandshakeOutcome::ProtocolViolation);
  }
  if (ephemeral && !anonymous && config_.verify_policy.validate &&
      config_.verify_policy.check_signature && !result.server_chain.empty()) {
    const auto payload =
        ske->signed_payload(result.hello.random, server_hello->random);
    if (!crypto::rsa_verify_uncached(
            result.server_chain[0].tbs.subject_public_key, payload,
            ske->signature)) {
      result.verify_error = x509::VerifyError::BadSignature;
      result.verify_failed_depth = 0;  // SKE is signed by the leaf key
      result.outcome = HandshakeOutcome::ValidationFailed;
      const auto alert = alert_for_verify_error(
          config_.library, x509::VerifyError::BadSignature);
      if (alert.has_value()) {
        result.alert_sent = alert;
        transport.send(TlsRecord{ContentType::Alert, ProtocolVersion::Tls1_2,
                                 alert->serialize()});
      }
      transport.close();
      return result;
    }
  }

  // --- Key exchange ---
  common::Bytes premaster;
  ClientKeyExchange cke;
  if (ephemeral) {
    const auto dh_keys = crypto::dh_generate(rng_, ske->group);
    premaster = crypto::dh_shared_secret(ske->group, dh_keys.secret,
                                         ske->server_public);
    cke.exchange_data = dh_keys.pub;
  } else {
    if (result.server_chain.empty()) {
      return abort_with_alert(AlertDescription::HandshakeFailure,
                              HandshakeOutcome::ProtocolViolation);
    }
    premaster = rng_.bytes(48);
    cke.exchange_data =
        crypto::rsa_encrypt(result.server_chain[0].tbs.subject_public_key,
                            rng_, premaster);
  }
  const auto cke_msg =
      HandshakeMessage::wrap(HandshakeType::ClientKeyExchange, cke);
  track(cke_msg);
  transport.send(TlsRecord{ContentType::Handshake, ProtocolVersion::Tls1_2,
                           cke_msg.serialize()});

  const SessionKeys keys = derive_session_keys(
      premaster, result.hello.random, server_hello->random, suite);
  const auto transcript_hash = crypto::Sha256::digest_bytes(transcript);

  // --- Finished exchange ---
  Finished fin;
  fin.verify_data =
      compute_verify_data(keys.master_secret, /*from_client=*/true,
                          transcript_hash);
  const auto fin_msg = HandshakeMessage::wrap(HandshakeType::Finished, fin);
  transport.send(TlsRecord{ContentType::Handshake, ProtocolVersion::Tls1_2,
                           fin_msg.serialize()});

  bool server_finished = false;
  while (!server_finished) {
    const auto server_record = transport.receive();
    if (!server_record || server_record->type != ContentType::Handshake) {
      result.outcome = HandshakeOutcome::ProtocolViolation;
      transport.close();
      return result;
    }
    bool bad_message = false;
    try {
      const auto msg = HandshakeMessage::parse(server_record->payload);
      if (msg.type == HandshakeType::NewSessionTicket) {
        const auto nst = NewSessionTicket::parse(msg.body);
        ResumptionState state;
        state.ticket = nst.ticket;
        state.master_secret = keys.master_secret;
        state.cipher_suite = suite;
        result.resumption = std::move(state);
        continue;
      }
      if (msg.type != HandshakeType::Finished) {
        bad_message = true;
      } else {
        const Finished server_fin = Finished::parse(msg.body);
        const auto expected = compute_verify_data(
            keys.master_secret, /*from_client=*/false, transcript_hash);
        if (!common::constant_time_equal(server_fin.verify_data, expected)) {
          return abort_with_alert(AlertDescription::DecryptError,
                                  HandshakeOutcome::ProtocolViolation);
        }
        server_finished = true;
      }
    } catch (const common::ParseError&) {
      return abort_with_alert(AlertDescription::DecodeError,
                              HandshakeOutcome::ProtocolViolation);
    }
    if (bad_message) {
      return abort_with_alert(AlertDescription::UnexpectedMessage,
                              HandshakeOutcome::ProtocolViolation);
    }
  }

  result.outcome = HandshakeOutcome::Success;

  // --- Application data ---
  if (!app_payload.empty()) {
    RecordProtection send_protection(suite, keys.client_key,
                                     keys.client_mac_key, keys.client_nonce);
    RecordProtection recv_protection(suite, keys.server_key,
                                     keys.server_mac_key, keys.server_nonce);
    transport.send(TlsRecord{
        ContentType::ApplicationData,
        std::min(version, ProtocolVersion::Tls1_2),
        send_protection.protect(app_payload)});
    const auto response = transport.receive();
    if (response && response->type == ContentType::ApplicationData) {
      try {
        result.app_response_plaintext =
            recv_protection.unprotect(response->payload);
        result.app_data_exchanged = true;
      } catch (const common::CryptoError&) {
        // Response tampered or keys mismatched; surface as no app data.
      }
    }
  }

  transport.close();
  return result;
}

namespace {

struct ClientMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();

  obs::Counter& handshakes(const std::string& outcome) {
    return reg.counter("iotls_tls_handshakes_total",
                       "Client handshake attempts by outcome", "outcome",
                       outcome);
  }
  obs::Counter& alerts(const std::string& description) {
    return reg.counter("iotls_tls_alerts_total",
                       "Fatal/warning alerts in either direction, by "
                       "description",
                       "description", description);
  }
  obs::Counter& resumptions(const std::string& result) {
    return reg.counter("iotls_tls_resumptions_total",
                       "Session-ticket resumption offers by result", "result",
                       result);
  }
  obs::Counter& validation_failures(const std::string& cause) {
    return reg.counter("iotls_tls_validation_failures_total",
                       "Handshakes rejected by certificate validation, by "
                       "cause",
                       "cause", cause);
  }

  static ClientMetrics& get() {
    static ClientMetrics metrics;
    return metrics;
  }
};

void trace_result(obs::Span& span, const ClientResult& result,
                  const x509::VerifyPolicy& policy,
                  bool resumption_offered) {
  if (result.negotiated_version.has_value()) {
    span.event("negotiated",
               {{"version", version_name(*result.negotiated_version)},
                {"suite", suite_name(*result.negotiated_suite)}});
  }
  if (result.verify_error != x509::VerifyError::Ok) {
    span.event("validation",
               {{"result", "fail"},
                {"cause", x509::verify_error_name(result.verify_error)},
                {"failing_check",
                 x509::verify_check_name(result.verify_error)},
                {"depth", std::to_string(result.verify_failed_depth)}});
  } else if (result.success() && !result.resumed) {
    span.event("validation",
               {{"result", policy.validate ? "pass" : "skipped"}});
  }
  if (result.alert_sent.has_value()) {
    span.event("alert_sent",
               {{"level", alert_level_name(result.alert_sent->level)},
                {"description", alert_name(result.alert_sent->description)},
                {"class", alert_class_name(
                              alert_classify(result.alert_sent->description))}});
  }
  if (result.alert_received.has_value()) {
    span.event(
        "alert_received",
        {{"level", alert_level_name(result.alert_received->level)},
         {"description", alert_name(result.alert_received->description)},
         {"class", alert_class_name(
                       alert_classify(result.alert_received->description))}});
  }
  if (resumption_offered) {
    span.event("resumption", {{"offered", "true"},
                              {"accepted", result.resumed ? "true" : "false"}});
  } else if (result.resumption.has_value()) {
    span.event("resumption", {{"offered", "false"}, {"ticket_issued", "true"}});
  }
  span.event("outcome",
             {{"outcome", outcome_name(result.outcome)},
              {"app_data", result.app_data_exchanged ? "true" : "false"}});
}

}  // namespace

ClientResult TlsClient::connect(Transport& transport,
                                const std::string& hostname,
                                common::BytesView app_payload,
                                const ResumptionState* resume) {
  const obs::ProfileZone zone("tls/client_connect");
  obs::Span* span = config_.span;
  if (span != nullptr && span->enabled()) transport.set_span(span);
  ClientResult result = handshake(transport, hostname, app_payload, resume);
  if (span != nullptr && span->enabled()) {
    trace_result(*span, result, config_.verify_policy, resume != nullptr);
  }
  if (obs::metrics_enabled()) {
    auto& metrics = ClientMetrics::get();
    metrics.handshakes(outcome_name(result.outcome)).inc();
    if (result.alert_sent.has_value()) {
      metrics.alerts(alert_name(result.alert_sent->description)).inc();
    }
    if (result.alert_received.has_value()) {
      metrics.alerts(alert_name(result.alert_received->description)).inc();
    }
    if (resume != nullptr) {
      metrics.resumptions(result.resumed ? "accepted" : "declined").inc();
    }
    if (result.outcome == HandshakeOutcome::ValidationFailed) {
      metrics
          .validation_failures(x509::verify_error_name(result.verify_error))
          .inc();
    }
  }
  return result;
}

}  // namespace iotls::tls
