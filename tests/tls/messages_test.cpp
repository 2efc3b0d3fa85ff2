#include "tls/messages.hpp"

#include <gtest/gtest.h>

#include "tls/alert.hpp"
#include "tls/record.hpp"

namespace iotls::tls {
namespace {

ClientHello sample_hello() {
  ClientHello ch;
  ch.legacy_version = ProtocolVersion::Tls1_2;
  for (std::size_t i = 0; i < ch.random.size(); ++i) {
    ch.random[i] = static_cast<std::uint8_t>(i);
  }
  ch.session_id = {1, 2, 3};
  ch.cipher_suites = {TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
                      TLS_RSA_WITH_RC4_128_SHA};
  ch.extensions.push_back(make_sni("device.example.com"));
  ch.extensions.push_back(make_supported_groups(
      {crypto::DhGroup::X25519, crypto::DhGroup::Secp256r1}));
  ch.extensions.push_back(
      make_signature_algorithms({SignatureScheme::RsaPkcs1Sha256}));
  return ch;
}

TEST(ClientHelloMsg, SerializeParseRoundTrip) {
  const ClientHello ch = sample_hello();
  EXPECT_EQ(ClientHello::parse(ch.serialize()), ch);
}

TEST(ClientHelloMsg, SniAccessor) {
  const ClientHello ch = sample_hello();
  ASSERT_TRUE(ch.sni().has_value());
  EXPECT_EQ(*ch.sni(), "device.example.com");

  ClientHello no_sni;
  no_sni.cipher_suites = {0x002F};
  EXPECT_FALSE(no_sni.sni().has_value());
}

TEST(ClientHelloMsg, AdvertisedVersionsWithoutExtension) {
  ClientHello ch;
  ch.legacy_version = ProtocolVersion::Tls1_1;
  ch.cipher_suites = {0x002F};
  const auto versions = ch.advertised_versions();
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0], ProtocolVersion::Tls1_1);
  EXPECT_EQ(ch.max_advertised_version(), ProtocolVersion::Tls1_1);
}

TEST(ClientHelloMsg, AdvertisedVersionsWithSupportedVersions) {
  ClientHello ch;
  ch.legacy_version = ProtocolVersion::Tls1_2;
  ch.cipher_suites = {TLS_AES_128_GCM_SHA256};
  ch.extensions.push_back(make_supported_versions(
      {ProtocolVersion::Tls1_3, ProtocolVersion::Tls1_2}));
  EXPECT_EQ(ch.max_advertised_version(), ProtocolVersion::Tls1_3);
  EXPECT_EQ(ch.advertised_versions().size(), 2u);
}

TEST(ClientHelloMsg, SuiteClassificationAccessors) {
  ClientHello ch;
  ch.cipher_suites = {TLS_RSA_WITH_RC4_128_SHA};
  EXPECT_TRUE(ch.advertises_insecure_suite());
  EXPECT_FALSE(ch.advertises_strong_suite());
  EXPECT_FALSE(ch.advertises_null_or_anon_suite());

  ch.cipher_suites = {TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256};
  EXPECT_FALSE(ch.advertises_insecure_suite());
  EXPECT_TRUE(ch.advertises_strong_suite());

  ch.cipher_suites = {TLS_RSA_WITH_NULL_SHA};
  EXPECT_TRUE(ch.advertises_null_or_anon_suite());
}

TEST(ClientHelloMsg, OcspStaplingAccessor) {
  ClientHello ch;
  ch.cipher_suites = {0x002F};
  EXPECT_FALSE(ch.requests_ocsp_stapling());
  ch.extensions.push_back(make_status_request());
  EXPECT_TRUE(ch.requests_ocsp_stapling());
}

TEST(ServerHelloMsg, RoundTripAndNegotiatedVersion) {
  ServerHello sh;
  sh.version = ProtocolVersion::Tls1_2;
  sh.cipher_suite = TLS_AES_128_GCM_SHA256;
  sh.session_id = {9};
  sh.extensions.push_back(
      make_supported_versions({ProtocolVersion::Tls1_3}));
  const ServerHello parsed = ServerHello::parse(sh.serialize());
  EXPECT_EQ(parsed, sh);
  EXPECT_EQ(parsed.negotiated_version(), ProtocolVersion::Tls1_3);

  ServerHello plain;
  plain.version = ProtocolVersion::Tls1_0;
  EXPECT_EQ(plain.negotiated_version(), ProtocolVersion::Tls1_0);
}

TEST(CertificateMsgTest, RoundTripWithChain) {
  common::Rng rng(55);
  const auto keys = crypto::rsa_generate(rng, 448);
  const auto root = x509::make_self_signed_root(
      x509::DistinguishedName::cn("R"), {1}, keys);
  CertificateMsg msg;
  msg.chain = {root, root};
  const CertificateMsg parsed = CertificateMsg::parse(msg.serialize());
  EXPECT_EQ(parsed, msg);
}

TEST(CertificateMsgTest, EmptyChainRoundTrip) {
  const CertificateMsg msg;
  EXPECT_EQ(CertificateMsg::parse(msg.serialize()), msg);
}

TEST(ServerKeyExchangeMsg, RoundTripAndSignedPayload) {
  ServerKeyExchange ske;
  ske.group = crypto::DhGroup::Secp256r1;
  ske.server_public = {1, 2, 3, 4};
  ske.signature = {5, 6};
  EXPECT_EQ(ServerKeyExchange::parse(ske.serialize()), ske);

  Random32 cr{}, sr{};
  cr[0] = 0xAA;
  sr[0] = 0xBB;
  const auto p1 = ske.signed_payload(cr, sr);
  sr[0] = 0xCC;
  const auto p2 = ske.signed_payload(cr, sr);
  EXPECT_NE(p1, p2);
}

TEST(OtherMessages, RoundTrips) {
  ClientKeyExchange cke;
  cke.exchange_data = {1, 2, 3};
  EXPECT_EQ(ClientKeyExchange::parse(cke.serialize()), cke);

  Finished fin;
  fin.verify_data = common::Bytes(12, 0x7F);
  EXPECT_EQ(Finished::parse(fin.serialize()), fin);

  EXPECT_NO_THROW(ServerHelloDone::parse({}));
  const common::Bytes junk = {1};
  EXPECT_THROW(ServerHelloDone::parse(junk), common::ParseError);
}

TEST(HandshakeMessageFrame, RoundTrip) {
  const auto msg =
      HandshakeMessage::wrap(HandshakeType::ClientHello, sample_hello());
  const HandshakeMessage parsed = HandshakeMessage::parse(msg.serialize());
  EXPECT_EQ(parsed, msg);
  EXPECT_EQ(ClientHello::parse(parsed.body), sample_hello());
}

TEST(TlsRecordFrame, RoundTrip) {
  TlsRecord rec{ContentType::Handshake, ProtocolVersion::Tls1_2, {1, 2, 3}};
  EXPECT_EQ(TlsRecord::parse(rec.serialize()), rec);
}

TEST(TlsRecordFrame, RejectsBadContentType) {
  common::Bytes data = {0x55, 0x03, 0x03, 0x00, 0x00};
  EXPECT_THROW(TlsRecord::parse(data), common::ParseError);
}

TEST(TlsRecordFrame, RejectsOversizePayload) {
  TlsRecord rec{ContentType::ApplicationData, ProtocolVersion::Tls1_2,
                common::Bytes(kMaxRecordPayload + 1, 0)};
  EXPECT_THROW(rec.serialize(), common::ProtocolError);
}

TEST(AlertMsg, RoundTripAndNames) {
  const Alert a{AlertLevel::Fatal, AlertDescription::UnknownCa};
  EXPECT_EQ(Alert::parse(a.serialize()), a);
  EXPECT_EQ(alert_name(AlertDescription::UnknownCa), "unknown_ca");
  EXPECT_EQ(alert_display(a), "Unknown CA");
  EXPECT_EQ(alert_display(std::nullopt), "No Alert");
  EXPECT_EQ(alert_display(Alert{AlertLevel::Fatal,
                                AlertDescription::DecryptError}),
            "Decrypt Error");
}

TEST(AlertMsg, ParseRejectsBadLevel) {
  const common::Bytes bad = {9, 40};
  EXPECT_THROW(Alert::parse(bad), common::ParseError);
  const common::Bytes short_buf = {2};
  EXPECT_THROW(Alert::parse(short_buf), common::ParseError);
}

TEST(Extensions, FindExtension) {
  const ClientHello ch = sample_hello();
  EXPECT_NE(find_extension(ch.extensions, ExtensionType::ServerName), nullptr);
  EXPECT_EQ(find_extension(ch.extensions, ExtensionType::Alpn), nullptr);
}

TEST(Versions, NamesAndBuckets) {
  EXPECT_EQ(version_name(ProtocolVersion::Ssl3_0), "SSL 3.0");
  EXPECT_EQ(version_name(ProtocolVersion::Tls1_3), "TLS 1.3");
  EXPECT_TRUE(is_deprecated(ProtocolVersion::Tls1_1));
  EXPECT_FALSE(is_deprecated(ProtocolVersion::Tls1_2));
  EXPECT_EQ(bucket_of(ProtocolVersion::Ssl3_0), VersionBucket::Older);
  EXPECT_EQ(bucket_of(ProtocolVersion::Tls1_2), VersionBucket::Tls12);
  EXPECT_EQ(bucket_of(ProtocolVersion::Tls1_3), VersionBucket::Tls13);
  EXPECT_THROW(version_from_wire(0x0305), common::ParseError);
}

}  // namespace
}  // namespace iotls::tls
