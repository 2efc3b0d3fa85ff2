#include "tls/secrets.hpp"

#include <gtest/gtest.h>

#include "common/hex.hpp"
#include "tls/rc4.hpp"

namespace iotls::tls {
namespace {

Random32 filled_random(std::uint8_t v) {
  Random32 r{};
  r.fill(v);
  return r;
}

TEST(Rc4, BadKeySizeThrows) {
  EXPECT_THROW(Rc4(common::BytesView{}), common::CryptoError);
}

TEST(SessionKeysTest, DeterministicDerivation) {
  const auto pm = common::to_bytes("premaster");
  const auto k1 = derive_session_keys(pm, filled_random(1), filled_random(2),
                                      TLS_RSA_WITH_AES_128_GCM_SHA256);
  const auto k2 = derive_session_keys(pm, filled_random(1), filled_random(2),
                                      TLS_RSA_WITH_AES_128_GCM_SHA256);
  EXPECT_EQ(k1.master_secret, k2.master_secret);
  EXPECT_EQ(k1.client_key, k2.client_key);
}

TEST(SessionKeysTest, SuiteSeparatesKeys) {
  const auto pm = common::to_bytes("premaster");
  const auto k1 = derive_session_keys(pm, filled_random(1), filled_random(2),
                                      TLS_RSA_WITH_AES_128_GCM_SHA256);
  const auto k2 = derive_session_keys(pm, filled_random(1), filled_random(2),
                                      TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305);
  EXPECT_NE(k1.master_secret, k2.master_secret);
}

TEST(SessionKeysTest, DirectionalKeysDiffer) {
  const auto k = derive_session_keys(common::to_bytes("pm"),
                                     filled_random(1), filled_random(2),
                                     TLS_RSA_WITH_AES_128_GCM_SHA256);
  EXPECT_NE(k.client_key, k.server_key);
  EXPECT_NE(k.client_mac_key, k.server_mac_key);
  EXPECT_NE(k.client_nonce, k.server_nonce);
  EXPECT_EQ(k.client_nonce.size(), 12u);
}

TEST(VerifyData, LabelsSeparateClientServer) {
  const auto master = common::to_bytes("master");
  const auto hash = common::to_bytes("transcript-hash");
  const auto c = compute_verify_data(master, true, hash);
  const auto s = compute_verify_data(master, false, hash);
  EXPECT_NE(c, s);
  EXPECT_EQ(c.size(), 12u);
}

class RecordProtectionSuite
    : public ::testing::TestWithParam<std::uint16_t> {};

TEST_P(RecordProtectionSuite, ProtectUnprotectRoundTrip) {
  const auto keys = derive_session_keys(common::to_bytes("pm"),
                                        filled_random(3), filled_random(4),
                                        GetParam());
  RecordProtection sender(GetParam(), keys.client_key, keys.client_mac_key,
                          keys.client_nonce);
  RecordProtection receiver(GetParam(), keys.client_key, keys.client_mac_key,
                            keys.client_nonce);
  const auto msg = common::to_bytes("sensitive payload: bearer token XYZ");
  const auto protected1 = sender.protect(msg);
  const auto protected2 = sender.protect(msg);
  EXPECT_NE(protected1, protected2) << "sequence number must vary keystream";
  EXPECT_EQ(receiver.unprotect(protected1), msg);
  EXPECT_EQ(receiver.unprotect(protected2), msg);
}

TEST_P(RecordProtectionSuite, TamperDetected) {
  const auto keys = derive_session_keys(common::to_bytes("pm"),
                                        filled_random(3), filled_random(4),
                                        GetParam());
  RecordProtection sender(GetParam(), keys.client_key, keys.client_mac_key,
                          keys.client_nonce);
  RecordProtection receiver(GetParam(), keys.client_key, keys.client_mac_key,
                            keys.client_nonce);
  auto protected_data = sender.protect(common::to_bytes("data"));
  protected_data[0] ^= 1;
  EXPECT_THROW(receiver.unprotect(protected_data), common::CryptoError);
}

INSTANTIATE_TEST_SUITE_P(
    Ciphers, RecordProtectionSuite,
    ::testing::Values(TLS_RSA_WITH_AES_128_GCM_SHA256,           // aes128
                      TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384,     // aes256
                      TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305,      // chacha
                      TLS_RSA_WITH_RC4_128_SHA,                  // rc4
                      TLS_RSA_WITH_3DES_EDE_CBC_SHA),            // 3des→aes
    [](const auto& info) { return "suite_" + suite_name(info.param); });

TEST(RecordProtectionTest, NullCipherIsPlaintextButAuthenticated) {
  const auto keys = derive_session_keys(common::to_bytes("pm"),
                                        filled_random(3), filled_random(4),
                                        TLS_RSA_WITH_NULL_SHA);
  RecordProtection sender(TLS_RSA_WITH_NULL_SHA, keys.client_key,
                          keys.client_mac_key, keys.client_nonce);
  const auto msg = common::to_bytes("visible");
  const auto out = sender.protect(msg);
  // Plaintext is visible in the protected record (NULL cipher).
  ASSERT_GE(out.size(), msg.size());
  EXPECT_TRUE(std::equal(msg.begin(), msg.end(), out.begin()));
}

TEST(RecordProtectionTest, Rc4RecordsContinueOneKeystream) {
  common::Bytes key, mac_key, nonce;
  for (int i = 0; i < 32; ++i) {
    key.push_back(static_cast<std::uint8_t>(i));
    mac_key.push_back(static_cast<std::uint8_t>(0x80 + i));
  }
  for (int i = 0; i < 12; ++i) {
    nonce.push_back(static_cast<std::uint8_t>(0xf0 + i));
  }
  const auto p1 =
      common::to_bytes("GET /v1/telemetry?device=cam-01 HTTP/1.1\r\nHost: ");
  const auto p2 =
      common::to_bytes("POST /v1/upload HTTP/1.1\r\nAuthorization: Bearer ");
  ASSERT_EQ(p1.size(), 48u);
  ASSERT_EQ(p2.size(), 48u);

  RecordProtection sender(TLS_RSA_WITH_RC4_128_SHA, key, mac_key, nonce);
  const auto r1 = sender.protect(p1);
  const auto r2 = sender.protect(p2);

  // Record 0 is plain RC4 under the key, then the HMAC tag; these bytes
  // were checked against an independent RC4 and HMAC-SHA-256.
  EXPECT_EQ(common::hex_encode(r1),
            "5761a5e985d998120259f2e565501de1b5b64411a5a7c7d85b9941e4a4fef9b8"
            "42849c4b8122498e4fe8f5ddd0a692f54b81b9e4320283c178f64f04a0a86c9d"
            "d379ff0be6a64fb0040c53ee5eb02c2d");

  // Record 1 continues the keystream where record 0 stopped, so the two
  // records never share keystream bytes.
  common::Bytes both = p1;
  both.insert(both.end(), p2.begin(), p2.end());
  const common::Bytes stream_ct = Rc4(key).apply(both);
  EXPECT_TRUE(std::equal(r1.begin(), r1.begin() + 48, stream_ct.begin()));
  EXPECT_TRUE(std::equal(r2.begin(), r2.begin() + 48, stream_ct.begin() + 48));
  std::size_t shared = 0;
  for (std::size_t i = 0; i < 48; ++i) {
    shared += (r1[i] ^ r2[i]) == (p1[i] ^ p2[i]) ? 1 : 0;
  }
  EXPECT_LT(shared, 8u);

  RecordProtection receiver(TLS_RSA_WITH_RC4_128_SHA, key, mac_key, nonce);
  EXPECT_EQ(receiver.unprotect(r1), p1);
  EXPECT_EQ(receiver.unprotect(r2), p2);
}

TEST(RecordProtectionTest, ShortRecordRejected) {
  const auto keys = derive_session_keys(common::to_bytes("pm"),
                                        filled_random(3), filled_random(4),
                                        TLS_RSA_WITH_AES_128_GCM_SHA256);
  RecordProtection receiver(TLS_RSA_WITH_AES_128_GCM_SHA256, keys.client_key,
                            keys.client_mac_key, keys.client_nonce);
  EXPECT_THROW(receiver.unprotect(common::Bytes(5, 0)), common::CryptoError);
}

}  // namespace
}  // namespace iotls::tls
