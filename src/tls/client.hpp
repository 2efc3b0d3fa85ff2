// minitls client state machine.
//
// One TlsClient::connect() is one TLS connection attempt — the unit every
// analysis in the study counts. The returned ClientResult is a full
// transcript summary: the exact ClientHello sent (fingerprintable), the
// negotiated parameters, the certificate-verification outcome, and any
// alerts in either direction (the probe side channel).
#pragma once

#include <optional>
#include <string>

#include "common/rng.hpp"
#include "common/simtime.hpp"
#include "obs/trace.hpp"
#include "pki/revocation.hpp"
#include "pki/root_store.hpp"
#include "tls/messages.hpp"
#include "tls/profile.hpp"
#include "tls/secrets.hpp"
#include "tls/transport.hpp"
#include "x509/verify.hpp"

namespace iotls::tls {

/// Client-side configuration: one *TLS instance* in the paper's terminology
/// (library + configuration → one fingerprint).
struct ClientConfig {
  std::vector<ProtocolVersion> versions = {ProtocolVersion::Tls1_2};
  std::vector<std::uint16_t> cipher_suites = {
      TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
      TLS_RSA_WITH_AES_128_GCM_SHA256,
  };
  std::vector<crypto::DhGroup> groups = {crypto::DhGroup::X25519,
                                         crypto::DhGroup::Secp256r1};
  std::vector<SignatureScheme> signature_algorithms = {
      SignatureScheme::RsaPkcs1Sha256};
  bool send_sni = true;
  bool request_ocsp_staple = false;
  bool session_ticket = false;
  std::vector<std::string> alpn_protocols;  // empty = no ALPN extension

  TlsLibrary library = TlsLibrary::Generic;
  x509::VerifyPolicy verify_policy;

  /// §6 extension — leaf-certificate pinning. When set, the presented
  /// leaf's fingerprint must equal this value; the check runs even when
  /// verify_policy skips validation (pinning protects the Table 7 devices
  /// that validate nothing).
  std::optional<std::string> pinned_leaf_fingerprint;

  /// §6 extension — CRL checked when verify succeeds (the Table 8 CRL/OCSP
  /// devices). Non-owning; nullptr = no revocation checking.
  const pki::RevocationList* revocation_list = nullptr;

  /// §6 limitation, modelled: RFC 8446 makes failure alerts optional, so a
  /// TLS 1.3 stack may drop the connection silently — which blinds the
  /// root-store probe. Off by default (most real stacks still alert).
  bool tls13_suppress_alerts = false;

  /// Observability hook (non-owning, may be null). connect() attaches this
  /// span to the transport for per-record events and appends semantic
  /// events — negotiated parameters, validation decision, alerts in both
  /// directions, resumption, outcome.
  obs::Span* span = nullptr;

  bool operator==(const ClientConfig&) const = default;

  [[nodiscard]] ProtocolVersion max_version() const;
  [[nodiscard]] bool supports(ProtocolVersion v) const;
};

enum class HandshakeOutcome {
  Success,
  /// Server never answered the ClientHello (IncompleteHandshake).
  NoServerResponse,
  /// Server answered with a fatal alert.
  ServerAlert,
  /// Server negotiated parameters we do not support.
  NegotiationRejected,
  /// Certificate verification failed (see verify_error / alert_sent).
  ValidationFailed,
  /// Malformed or out-of-order server messages.
  ProtocolViolation,
};

std::string outcome_name(HandshakeOutcome o);

/// Client-side cache entry for RFC 5077 resumption: the opaque server
/// ticket plus the secrets the client must remember alongside it.
struct ResumptionState {
  common::Bytes ticket;
  common::Bytes master_secret;
  std::uint16_t cipher_suite = 0;
};

struct ClientResult {
  HandshakeOutcome outcome = HandshakeOutcome::ProtocolViolation;
  ClientHello hello;  // exactly what went on the wire
  std::optional<ServerHello> server_hello;
  std::optional<ProtocolVersion> negotiated_version;
  std::optional<std::uint16_t> negotiated_suite;
  std::vector<x509::Certificate> server_chain;
  x509::VerifyError verify_error = x509::VerifyError::Ok;
  /// Chain index (0 = leaf) where validation failed, -1 if n/a.
  int verify_failed_depth = -1;
  std::optional<Alert> alert_sent;
  std::optional<Alert> alert_received;
  /// Server answered the status_request with a stapled OCSP response.
  bool staple_received = false;
  /// The handshake was abbreviated via a session ticket — no Certificate
  /// message, no validation (resumption trusts the original session).
  bool resumed = false;
  /// Ticket issued by this connection, usable for a later resumption.
  std::optional<ResumptionState> resumption;
  /// Application data exchanged after the handshake.
  bool app_data_exchanged = false;
  common::Bytes app_response_plaintext;

  [[nodiscard]] bool success() const {
    return outcome == HandshakeOutcome::Success;
  }
};

/// Build the ClientHello a configuration emits. Exposed so fingerprinting
/// can compute a config's fingerprint without running a handshake.
/// A non-empty `session_ticket` rides in the session_ticket extension
/// (proposing resumption).
ClientHello build_client_hello(const ClientConfig& config,
                               const std::string& hostname,
                               common::Rng& rng,
                               common::BytesView session_ticket = {});

class TlsClient {
 public:
  /// `roots` may be null only when the policy skips validation.
  TlsClient(ClientConfig config, const pki::RootStore* roots,
            common::Rng rng, common::SimDate now);

  /// Run one handshake against `transport` for `hostname`; optionally send
  /// `app_payload` as application data after a successful handshake.
  /// `resume` (non-owning) attempts an abbreviated handshake from a prior
  /// connection's ResumptionState; the server may decline, in which case
  /// the full handshake proceeds transparently.
  ClientResult connect(Transport& transport, const std::string& hostname,
                       common::BytesView app_payload = {},
                       const ResumptionState* resume = nullptr);

  [[nodiscard]] const ClientConfig& config() const { return config_; }

 private:
  ClientHello build_hello(const std::string& hostname);
  /// The handshake itself; connect() wraps it with tracing and metrics.
  ClientResult handshake(Transport& transport, const std::string& hostname,
                         common::BytesView app_payload,
                         const ResumptionState* resume);

  ClientConfig config_;
  const pki::RootStore* roots_;
  common::Rng rng_;
  common::SimDate now_;
};

}  // namespace iotls::tls
