#include "net/network.hpp"

#include <gtest/gtest.h>

#include "pki/ca.hpp"
#include "pki/spoof.hpp"
#include "tls/client.hpp"
#include "tls/server.hpp"

namespace iotls::net {
namespace {

constexpr common::SimDate kNow{2021, 3, 1};

// Minimal server fixture for network tests.
class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest()
      : rng_(88),
        ca_(x509::DistinguishedName::cn("Net Test Root"), rng_),
        server_keys_(crypto::rsa_generate(rng_, 512)) {
    roots_.add(ca_.root());
    network_.register_server("api.example.com", [this](const std::string&) {
      tls::ServerConfig cfg;
      cfg.chain = {ca_.issue_server_cert("api.example.com",
                                         server_keys_.pub)};
      cfg.keys = server_keys_;
      cfg.seed = 5;
      return std::make_shared<tls::TlsServer>(cfg);
    });
  }

  tls::ClientResult connect(const std::string& host,
                            const std::string& device = "Test Device") {
    auto conn = network_.connect(host, device, common::Month{2021, 3});
    tls::TlsClient client(tls::ClientConfig{}, &roots_, common::Rng(3),
                          kNow);
    auto result = client.connect(*conn.transport, host);
    network_.finish(conn);
    return result;
  }

  common::Rng rng_;
  pki::CertificateAuthority ca_;
  crypto::RsaKeyPair server_keys_;
  pki::RootStore roots_;
  Network network_;
};

TEST_F(NetworkTest, ConnectReachesRegisteredServer) {
  const auto result = connect("api.example.com");
  EXPECT_TRUE(result.success());
}

TEST_F(NetworkTest, UnknownHostThrows) {
  EXPECT_THROW((void)network_.connect("nope.example.com", "Test Device",
                                      common::Month{2021, 3}),
               common::ProtocolError);
}

TEST_F(NetworkTest, CaptureRecordsConnectionDetails) {
  (void)connect("api.example.com", "My Device");
  ASSERT_EQ(network_.capture().size(), 1u);
  const auto& rec = network_.capture().records()[0];
  EXPECT_EQ(rec.device, "My Device");
  EXPECT_EQ(rec.destination, "api.example.com");  // via SNI
  EXPECT_TRUE(rec.sent_sni);
  EXPECT_TRUE(rec.handshake_complete);
  EXPECT_EQ(rec.established_version, tls::ProtocolVersion::Tls1_2);
  EXPECT_TRUE(rec.established_suite.has_value());
  EXPECT_FALSE(rec.advertised_suites.empty());
  EXPECT_FALSE(rec.extension_types.empty());
}

TEST_F(NetworkTest, InterceptorSlotOverridesServer) {
  common::Rng rng(89);
  const auto attacker = crypto::rsa_generate(rng, 512);
  network_.set_interceptor(
      [&](const std::string& host, const Network::SessionFactory&) {
        tls::ServerConfig cfg;
        cfg.chain = {pki::make_self_signed_leaf(host, attacker)};
        cfg.keys = attacker;
        cfg.seed = 6;
        return std::make_shared<tls::TlsServer>(cfg);
      });
  EXPECT_TRUE(network_.intercepting());
  const auto attacked = connect("api.example.com");
  EXPECT_EQ(attacked.outcome, tls::HandshakeOutcome::ValidationFailed);

  network_.clear_interceptor();
  EXPECT_FALSE(network_.intercepting());
  EXPECT_TRUE(connect("api.example.com").success());
}

TEST_F(NetworkTest, PassthroughInterceptorDelegatesToReal) {
  network_.set_interceptor(
      [](const std::string& host, const Network::SessionFactory& real) {
        return real(host);
      });
  EXPECT_TRUE(connect("api.example.com").success());
}

TEST_F(NetworkTest, CaptureAlertObservation) {
  common::Rng rng(90);
  const auto attacker = crypto::rsa_generate(rng, 512);
  network_.set_interceptor(
      [&](const std::string& host, const Network::SessionFactory&) {
        tls::ServerConfig cfg;
        cfg.chain = {pki::make_self_signed_leaf(host, attacker)};
        cfg.keys = attacker;
        cfg.seed = 7;
        return std::make_shared<tls::TlsServer>(cfg);
      });
  (void)connect("api.example.com");
  const auto& rec = network_.capture().records().back();
  ASSERT_TRUE(rec.client_alert.has_value());
  EXPECT_EQ(rec.client_alert->description, tls::AlertDescription::UnknownCa);
  EXPECT_FALSE(rec.handshake_complete);
}

TEST_F(NetworkTest, CaptureRecordsDeviceAndDestination) {
  (void)connect("api.example.com", "Device A");
  (void)connect("api.example.com", "Device A");
  (void)connect("api.example.com", "Device B");
  const auto& records = network_.capture().records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].device, "Device A");
  EXPECT_EQ(records[1].device, "Device A");
  EXPECT_EQ(records[2].device, "Device B");
  for (const auto& record : records) {
    EXPECT_EQ(record.destination, "api.example.com");
  }
}

TEST(Transport, ReceiveOnEmptyInboxReturnsNullopt) {
  // A session that never replies.
  class Silent : public tls::ServerSession {
   public:
    std::vector<tls::TlsRecord> on_record(const tls::TlsRecord&) override {
      return {};
    }
  };
  tls::Transport transport(std::make_shared<Silent>());
  EXPECT_FALSE(transport.receive().has_value());
  transport.send(tls::TlsRecord{tls::ContentType::Alert,
                                tls::ProtocolVersion::Tls1_2,
                                tls::Alert{}.serialize()});
  EXPECT_FALSE(transport.receive().has_value());
  EXPECT_FALSE(transport.has_pending());
}

TEST(Transport, SendAfterCloseThrows) {
  class Silent : public tls::ServerSession {
   public:
    std::vector<tls::TlsRecord> on_record(const tls::TlsRecord&) override {
      return {};
    }
    void on_close() override { closed = true; }
    bool closed = false;
  };
  auto session = std::make_shared<Silent>();
  tls::Transport transport(session);
  transport.close();
  EXPECT_TRUE(session->closed);
  EXPECT_THROW(transport.send(tls::TlsRecord{}), common::ProtocolError);
  // Double close is a no-op.
  EXPECT_NO_THROW(transport.close());
}

TEST(Transport, TapsSeeBothDirections) {
  class Echo : public tls::ServerSession {
   public:
    std::vector<tls::TlsRecord> on_record(const tls::TlsRecord& r) override {
      return {r};
    }
  };
  tls::Transport transport(std::make_shared<Echo>());
  int to_server = 0;
  int to_client = 0;
  transport.add_tap([&](bool c2s, const tls::TlsRecord&) {
    (c2s ? to_server : to_client)++;
  });
  transport.send(tls::TlsRecord{tls::ContentType::ApplicationData,
                                tls::ProtocolVersion::Tls1_2,
                                {1, 2, 3}});
  EXPECT_EQ(to_server, 1);
  EXPECT_EQ(to_client, 1);
  EXPECT_TRUE(transport.has_pending());
  EXPECT_TRUE(transport.receive().has_value());
}

}  // namespace
}  // namespace iotls::net
