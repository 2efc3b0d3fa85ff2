// End-to-end client/server handshakes over the in-memory transport — the
// integration seam every higher-level experiment rests on.
#include <gtest/gtest.h>

#include <memory>

#include "pki/ca.hpp"
#include "pki/spoof.hpp"
#include "tls/client.hpp"
#include "tls/server.hpp"

namespace iotls::tls {
namespace {

constexpr common::SimDate kNow{2021, 3, 1};

class HandshakeTest : public ::testing::Test {
 protected:
  HandshakeTest()
      : rng_(12345),
        ca_(x509::DistinguishedName{"Handshake Root", "Tests", "US"}, rng_),
        server_keys_(crypto::rsa_generate(rng_, 512)) {
    roots_.add(ca_.root());
    server_chain_ = {
        ca_.issue_server_cert("cloud.example.com", server_keys_.pub)};
  }

  ServerConfig server_config() const {
    ServerConfig cfg;
    cfg.chain = server_chain_;
    cfg.keys = server_keys_;
    cfg.seed = 99;
    return cfg;
  }

  ClientResult run(const ClientConfig& ccfg, ServerConfig scfg,
                   const std::string& host = "cloud.example.com",
                   common::BytesView payload = {}) {
    auto server = std::make_shared<TlsServer>(std::move(scfg));
    last_server_ = server;
    Transport transport(server);
    TlsClient client(ccfg, &roots_, common::Rng(777), kNow);
    return client.connect(transport, host, payload);
  }

  common::Rng rng_;
  pki::CertificateAuthority ca_;
  crypto::RsaKeyPair server_keys_;
  std::vector<x509::Certificate> server_chain_;
  pki::RootStore roots_;
  std::shared_ptr<TlsServer> last_server_;
};

TEST_F(HandshakeTest, RsaKexSucceeds) {
  ClientConfig ccfg;
  ccfg.cipher_suites = {TLS_RSA_WITH_AES_128_GCM_SHA256};
  const auto result = run(ccfg, server_config());
  EXPECT_TRUE(result.success()) << outcome_name(result.outcome);
  EXPECT_EQ(result.negotiated_version, ProtocolVersion::Tls1_2);
  EXPECT_EQ(result.negotiated_suite, TLS_RSA_WITH_AES_128_GCM_SHA256);
}

TEST_F(HandshakeTest, EcdheKexSucceeds) {
  ClientConfig ccfg;
  ccfg.cipher_suites = {TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256};
  const auto result = run(ccfg, server_config());
  EXPECT_TRUE(result.success()) << outcome_name(result.outcome);
}

TEST_F(HandshakeTest, Tls13StyleNegotiation) {
  ClientConfig ccfg;
  ccfg.versions = {ProtocolVersion::Tls1_2, ProtocolVersion::Tls1_3};
  ccfg.cipher_suites = {TLS_AES_128_GCM_SHA256,
                        TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256};
  ServerConfig scfg = server_config();
  scfg.versions = {ProtocolVersion::Tls1_2, ProtocolVersion::Tls1_3};
  scfg.cipher_suites = {TLS_AES_128_GCM_SHA256,
                        TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256};
  const auto result = run(ccfg, scfg);
  EXPECT_TRUE(result.success()) << outcome_name(result.outcome);
  EXPECT_EQ(result.negotiated_version, ProtocolVersion::Tls1_3);
  EXPECT_EQ(result.negotiated_suite, TLS_AES_128_GCM_SHA256);
}

TEST_F(HandshakeTest, ServerPicksHighestCommonVersion) {
  ClientConfig ccfg;
  ccfg.versions = {ProtocolVersion::Tls1_0, ProtocolVersion::Tls1_1,
                   ProtocolVersion::Tls1_2};
  ServerConfig scfg = server_config();
  scfg.versions = {ProtocolVersion::Tls1_0, ProtocolVersion::Tls1_1};
  const auto result = run(ccfg, scfg);
  EXPECT_TRUE(result.success());
  EXPECT_EQ(result.negotiated_version, ProtocolVersion::Tls1_1);
}

TEST_F(HandshakeTest, NoCommonVersionFails) {
  ClientConfig ccfg;
  ccfg.versions = {ProtocolVersion::Tls1_3};
  ccfg.cipher_suites = {TLS_AES_128_GCM_SHA256};
  ServerConfig scfg = server_config();
  scfg.versions = {ProtocolVersion::Tls1_1};
  const auto result = run(ccfg, scfg);
  EXPECT_EQ(result.outcome, HandshakeOutcome::ServerAlert);
  ASSERT_TRUE(result.alert_received.has_value());
  EXPECT_EQ(result.alert_received->description,
            AlertDescription::ProtocolVersion);
}

TEST_F(HandshakeTest, NoCommonSuiteFails) {
  ClientConfig ccfg;
  ccfg.cipher_suites = {TLS_RSA_WITH_RC4_128_SHA};
  const auto result = run(ccfg, server_config());
  EXPECT_EQ(result.outcome, HandshakeOutcome::ServerAlert);
  ASSERT_TRUE(result.alert_received.has_value());
  EXPECT_EQ(result.alert_received->description,
            AlertDescription::HandshakeFailure);
}

TEST_F(HandshakeTest, ServerPreferenceOrderWins) {
  ClientConfig ccfg;
  ccfg.cipher_suites = {TLS_RSA_WITH_AES_128_GCM_SHA256,
                        TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256};
  ServerConfig scfg = server_config();
  scfg.cipher_suites = {TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
                        TLS_RSA_WITH_AES_128_GCM_SHA256};
  const auto result = run(ccfg, scfg);
  EXPECT_TRUE(result.success());
  EXPECT_EQ(result.negotiated_suite, TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256);
}

TEST_F(HandshakeTest, IncompleteHandshakeYieldsNoResponse) {
  ServerConfig scfg = server_config();
  scfg.silent_after_client_hello = true;
  const auto result = run(ClientConfig{}, scfg);
  EXPECT_EQ(result.outcome, HandshakeOutcome::NoServerResponse);
  EXPECT_FALSE(result.server_hello.has_value());
}

TEST_F(HandshakeTest, SelfSignedCertRejectedWithUnknownCaAlert) {
  common::Rng rng(31);
  const auto attacker = crypto::rsa_generate(rng, 512);
  ServerConfig scfg = server_config();
  scfg.chain = {pki::make_self_signed_leaf("cloud.example.com", attacker)};
  scfg.keys = attacker;

  ClientConfig ccfg;
  ccfg.library = TlsLibrary::OpenSsl;
  const auto result = run(ccfg, scfg);
  EXPECT_EQ(result.outcome, HandshakeOutcome::ValidationFailed);
  EXPECT_EQ(result.verify_error, x509::VerifyError::UnknownIssuer);
  ASSERT_TRUE(result.alert_sent.has_value());
  EXPECT_EQ(result.alert_sent->description, AlertDescription::UnknownCa);
  // The server observed the alert (this is what the prober records).
  ASSERT_TRUE(last_server_->observation().alert_received.has_value());
  EXPECT_EQ(last_server_->observation().alert_received->description,
            AlertDescription::UnknownCa);
}

TEST_F(HandshakeTest, SpoofedCaRejectedWithDecryptErrorAlert) {
  common::Rng rng(32);
  const auto attacker = crypto::rsa_generate(rng, 512);
  const auto spoofed = pki::make_spoofed_ca(ca_.root(), attacker);
  ServerConfig scfg = server_config();
  scfg.chain = pki::forge_chain(spoofed, attacker.priv, "cloud.example.com",
                                attacker.pub);
  scfg.keys = attacker;

  ClientConfig ccfg;
  ccfg.library = TlsLibrary::OpenSsl;
  const auto result = run(ccfg, scfg);
  EXPECT_EQ(result.outcome, HandshakeOutcome::ValidationFailed);
  EXPECT_EQ(result.verify_error, x509::VerifyError::BadSignature);
  ASSERT_TRUE(result.alert_sent.has_value());
  EXPECT_EQ(result.alert_sent->description, AlertDescription::DecryptError);
}

TEST_F(HandshakeTest, NoValidationClientAcceptsSelfSigned) {
  common::Rng rng(33);
  const auto attacker = crypto::rsa_generate(rng, 512);
  ServerConfig scfg = server_config();
  scfg.chain = {pki::make_self_signed_leaf("cloud.example.com", attacker)};
  scfg.keys = attacker;

  ClientConfig ccfg;
  ccfg.verify_policy = x509::VerifyPolicy::none();
  const auto result = run(ccfg, scfg);
  EXPECT_TRUE(result.success());
}

TEST_F(HandshakeTest, ApplicationDataFlowsAndServerSeesPlaintext) {
  ClientConfig ccfg;
  const auto payload = common::to_bytes("POST /telemetry bearer=SECRET42");
  const auto result =
      run(ccfg, server_config(), "cloud.example.com", payload);
  ASSERT_TRUE(result.success());
  EXPECT_TRUE(result.app_data_exchanged);
  EXPECT_FALSE(result.app_response_plaintext.empty());
  // The (legitimate) server can read the client plaintext.
  EXPECT_EQ(last_server_->observation().client_plaintext, payload);
  EXPECT_TRUE(last_server_->observation().handshake_complete);
}

TEST_F(HandshakeTest, ForcedOldVersionAcceptedOnlyIfSupported) {
  ServerConfig scfg = server_config();
  scfg.force_version = ProtocolVersion::Tls1_0;
  scfg.cipher_suites = {TLS_RSA_WITH_AES_128_CBC_SHA};

  ClientConfig modern;
  modern.versions = {ProtocolVersion::Tls1_2};
  modern.cipher_suites = {TLS_RSA_WITH_AES_128_CBC_SHA};
  const auto rejected = run(modern, scfg);
  EXPECT_EQ(rejected.outcome, HandshakeOutcome::NegotiationRejected);
  ASSERT_TRUE(rejected.alert_sent.has_value());
  EXPECT_EQ(rejected.alert_sent->description,
            AlertDescription::ProtocolVersion);

  ClientConfig legacy;
  legacy.versions = {ProtocolVersion::Tls1_0, ProtocolVersion::Tls1_2};
  legacy.cipher_suites = {TLS_RSA_WITH_AES_128_CBC_SHA};
  const auto accepted = run(legacy, scfg);
  EXPECT_TRUE(accepted.success());
  EXPECT_EQ(accepted.negotiated_version, ProtocolVersion::Tls1_0);
}

TEST_F(HandshakeTest, WrongHostnameCertRejected) {
  ServerConfig scfg = server_config();  // cert is for cloud.example.com
  const auto result = run(ClientConfig{}, scfg, "other.example.com");
  // SNI names other.example.com; server cert doesn't match.
  EXPECT_EQ(result.outcome, HandshakeOutcome::ValidationFailed);
  EXPECT_EQ(result.verify_error, x509::VerifyError::HostnameMismatch);
}

TEST_F(HandshakeTest, NoHostnamePolicyAcceptsWrongHostname) {
  ServerConfig scfg = server_config();
  ClientConfig ccfg;
  ccfg.verify_policy = x509::VerifyPolicy::no_hostname();
  const auto result = run(ccfg, scfg, "other.example.com");
  EXPECT_TRUE(result.success());
}

TEST_F(HandshakeTest, GnuTlsStyleClientSendsNoAlert) {
  common::Rng rng(34);
  const auto attacker = crypto::rsa_generate(rng, 512);
  ServerConfig scfg = server_config();
  scfg.chain = {pki::make_self_signed_leaf("cloud.example.com", attacker)};
  scfg.keys = attacker;

  ClientConfig ccfg;
  ccfg.library = TlsLibrary::GnuTls;
  const auto result = run(ccfg, scfg);
  EXPECT_EQ(result.outcome, HandshakeOutcome::ValidationFailed);
  EXPECT_FALSE(result.alert_sent.has_value());
  EXPECT_FALSE(last_server_->observation().alert_received.has_value());
}

TEST_F(HandshakeTest, ClientHelloCarriesSniAndExtensions) {
  ClientConfig ccfg;
  ccfg.request_ocsp_staple = true;
  ccfg.session_ticket = true;
  ccfg.alpn_protocols = {"h2", "http/1.1"};
  const auto result = run(ccfg, server_config());
  ASSERT_TRUE(result.success());
  EXPECT_EQ(result.hello.sni(), "cloud.example.com");
  EXPECT_TRUE(result.hello.requests_ocsp_stapling());
  EXPECT_NE(find_extension(result.hello.extensions, ExtensionType::Alpn),
            nullptr);
  EXPECT_NE(find_extension(result.hello.extensions,
                           ExtensionType::SessionTicket),
            nullptr);
}

/// Relays a real server, but appends one byte to its ServerHelloDone body
/// (and bumps the message's 3-byte length to match).
class PaddedHelloDoneServer : public ServerSession {
 public:
  explicit PaddedHelloDoneServer(ServerConfig config)
      : inner_(std::move(config)) {}

  std::vector<TlsRecord> on_record(const TlsRecord& record) override {
    auto out = inner_.on_record(record);
    for (auto& rec : out) {
      if (rec.type == ContentType::Handshake && rec.payload.size() == 4 &&
          rec.payload[0] ==
              static_cast<std::uint8_t>(HandshakeType::ServerHelloDone)) {
        rec.payload.push_back(0);
        rec.payload[3] = 1;
      }
    }
    return out;
  }

 private:
  TlsServer inner_;
};

TEST_F(HandshakeTest, NonEmptyServerHelloDoneIsADecodeError) {
  Transport transport(std::make_shared<PaddedHelloDoneServer>(server_config()));
  TlsClient client(ClientConfig{}, &roots_, common::Rng(777), kNow);
  const auto result = client.connect(transport, "cloud.example.com");
  EXPECT_EQ(result.outcome, HandshakeOutcome::ProtocolViolation);
  ASSERT_TRUE(result.alert_sent.has_value());
  EXPECT_EQ(result.alert_sent->description, AlertDescription::DecodeError);
}

TEST_F(HandshakeTest, EmptyConfigThrows) {
  ClientConfig bad;
  bad.versions.clear();
  EXPECT_THROW(TlsClient(bad, &roots_, common::Rng(1), kNow),
               common::ProtocolError);
  ClientConfig bad2;
  bad2.cipher_suites.clear();
  EXPECT_THROW(TlsClient(bad2, &roots_, common::Rng(1), kNow),
               common::ProtocolError);
}

}  // namespace
}  // namespace iotls::tls
