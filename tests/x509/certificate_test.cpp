#include "x509/certificate.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <thread>
#include <vector>

#include "common/pool.hpp"
#include "crypto/cache.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/zone_calls.hpp"

namespace iotls::x509 {
namespace {

crypto::RsaKeyPair test_keys(std::uint64_t seed) {
  common::Rng rng(seed);
  return crypto::rsa_generate(rng, 512);
}

TbsCertificate leaf_tbs(const std::string& host,
                        const crypto::RsaPublicKey& key) {
  TbsCertificate tbs;
  tbs.serial = {0x13, 0x37};
  tbs.issuer = DistinguishedName::cn("Memo CA");
  tbs.subject = DistinguishedName::cn(host);
  tbs.validity = Validity{{2020, 1, 1}, {2023, 1, 1}};
  tbs.subject_public_key = key;
  tbs.extensions.basic_constraints = BasicConstraints{false, {}};
  tbs.extensions.subject_alt_names = {host};
  tbs.extensions.key_usage = KeyUsage{true, true, false, false};
  return tbs;
}

/// Leaves the memo switch as the process started it and the tables empty.
class IssueMemoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = crypto::crypto_cache_enabled();
    crypto::set_crypto_cache_enabled(true);
    crypto::crypto_caches_clear();
  }
  void TearDown() override {
    crypto::set_crypto_cache_enabled(was_enabled_);
    crypto::crypto_caches_clear();
  }

  bool was_enabled_ = true;
};

TEST(DistinguishedName, EqualityIsFieldWise) {
  const DistinguishedName a{"Root CA", "Org", "US"};
  const DistinguishedName b{"Root CA", "Org", "US"};
  const DistinguishedName c{"Root CA", "Org", "DE"};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(DistinguishedName, StrRendersPresentFields) {
  EXPECT_EQ((DistinguishedName{"X", "", ""}).str(), "CN=X");
  EXPECT_EQ((DistinguishedName{"X", "O", "US"}).str(), "CN=X, O=O, C=US");
}

TEST(DistinguishedName, SerializeRoundTrip) {
  const DistinguishedName dn{"Some Root", "Trust Org", "FI"};
  const common::Bytes bytes = dn.serialize();
  common::ByteReader r(bytes);
  EXPECT_EQ(DistinguishedName::parse(r), dn);
  EXPECT_TRUE(r.empty());
}

TEST(Extensions, SerializeRoundTripFull) {
  CertExtensions ext;
  ext.basic_constraints = BasicConstraints{true, 3};
  ext.subject_alt_names = {"example.com", "*.example.com"};
  ext.key_usage = KeyUsage{true, true, false, true};
  ext.crl_distribution_point = "http://crl.example.com/root.crl";
  ext.ocsp_responder = "http://ocsp.example.com";
  ext.must_staple = true;

  const common::Bytes bytes = ext.serialize();
  common::ByteReader r(bytes);
  EXPECT_EQ(CertExtensions::parse(r), ext);
  EXPECT_TRUE(r.empty());
}

TEST(Extensions, SerializeRoundTripEmpty) {
  const CertExtensions ext;
  const common::Bytes bytes = ext.serialize();
  common::ByteReader r(bytes);
  EXPECT_EQ(CertExtensions::parse(r), ext);
}

TEST(Validity, Contains) {
  const Validity v{{2020, 1, 1}, {2022, 1, 1}};
  EXPECT_TRUE(v.contains({2021, 6, 1}));
  EXPECT_TRUE(v.contains({2020, 1, 1}));
  EXPECT_TRUE(v.contains({2022, 1, 1}));
  EXPECT_FALSE(v.contains({2019, 12, 30}));
  EXPECT_FALSE(v.contains({2022, 1, 2}));
}

TEST(Certificate, SelfSignedRootVerifiesUnderOwnKey) {
  const auto keys = test_keys(31337);
  const auto root = make_self_signed_root(
      DistinguishedName::cn("Test Root"), {0x01}, keys);
  EXPECT_TRUE(root.is_self_signed());
  EXPECT_TRUE(root.tbs.extensions.basic_constraints->is_ca);
  EXPECT_TRUE(crypto::rsa_verify(keys.pub, root.tbs.serialize(),
                                 root.signature));
}

TEST(Certificate, IssueBindsIssuerKey) {
  const auto ca_keys = test_keys(1);
  const auto leaf_keys = test_keys(2);
  TbsCertificate tbs;
  tbs.serial = {0x42};
  tbs.issuer = DistinguishedName::cn("CA");
  tbs.subject = DistinguishedName::cn("host.example.com");
  tbs.subject_public_key = leaf_keys.pub;
  const Certificate cert = issue_certificate(tbs, ca_keys.priv);
  EXPECT_TRUE(
      crypto::rsa_verify(ca_keys.pub, cert.tbs.serialize(), cert.signature));
  EXPECT_FALSE(
      crypto::rsa_verify(leaf_keys.pub, cert.tbs.serialize(), cert.signature));
}

TEST(Certificate, SerializeRoundTrip) {
  const auto keys = test_keys(3);
  const auto root = make_self_signed_root(
      DistinguishedName{"Root", "Org", "US"}, {0xAA, 0xBB}, keys);
  const Certificate parsed = Certificate::parse(root.serialize());
  EXPECT_EQ(parsed, root);
}

TEST(Certificate, FingerprintIsStableAndKeySensitive) {
  const auto k1 = test_keys(4);
  const auto k2 = test_keys(5);
  const auto a = make_self_signed_root(DistinguishedName::cn("R"), {1}, k1);
  const auto b = make_self_signed_root(DistinguishedName::cn("R"), {1}, k1);
  const auto c = make_self_signed_root(DistinguishedName::cn("R"), {1}, k2);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.fingerprint(), c.fingerprint());
  EXPECT_EQ(a.fingerprint().size(), 64u);
}

TEST(Certificate, HostnameMatchPrefersSans) {
  const auto keys = test_keys(6);
  TbsCertificate tbs;
  tbs.subject = DistinguishedName::cn("cn-host.example.com");
  tbs.subject_public_key = keys.pub;
  tbs.extensions.subject_alt_names = {"san.example.com", "*.api.example.com"};
  const Certificate cert = issue_certificate(tbs, keys.priv);
  EXPECT_TRUE(cert.matches_hostname("san.example.com"));
  EXPECT_TRUE(cert.matches_hostname("v1.api.example.com"));
  // CN is ignored when SANs are present.
  EXPECT_FALSE(cert.matches_hostname("cn-host.example.com"));
}

TEST(Certificate, HostnameFallsBackToCn) {
  const auto keys = test_keys(7);
  TbsCertificate tbs;
  tbs.subject = DistinguishedName::cn("only-cn.example.com");
  tbs.subject_public_key = keys.pub;
  const Certificate cert = issue_certificate(tbs, keys.priv);
  EXPECT_TRUE(cert.matches_hostname("only-cn.example.com"));
  EXPECT_FALSE(cert.matches_hostname("other.example.com"));
}

TEST(Certificate, ParseRejectsTrailingGarbage) {
  const auto keys = test_keys(8);
  const auto root =
      make_self_signed_root(DistinguishedName::cn("R"), {1}, keys);
  auto bytes = root.serialize();
  bytes.push_back(0x00);
  EXPECT_THROW(Certificate::parse(bytes), common::ParseError);
}

TEST(Certificate, TamperedTbsBreaksSignature) {
  const auto keys = test_keys(9);
  auto root = make_self_signed_root(DistinguishedName::cn("R"), {1}, keys);
  root.tbs.subject.common_name = "Evil";
  EXPECT_FALSE(
      crypto::rsa_verify(keys.pub, root.tbs.serialize(), root.signature));
}

TEST(Extensions, NonCanonicalFlagBytesAreRejected) {
  // Every flag byte of a leaf's extensions must be 0 or 1 (key-usage bits
  // within 0x0F): a lenient parse would let wire bytes that differ from
  // the signed bytes pass as the same certificate.
  const auto keys = test_keys(10);
  const Certificate leaf =
      issue_certificate(leaf_tbs("flags.example.com", keys.pub), keys.priv);
  const common::Bytes wire = leaf.serialize();
  ASSERT_EQ(Certificate::parse(wire), leaf);

  // The extension block ends the TBS, which follows a 3-byte length.
  const CertExtensions& ext = leaf.tbs.extensions;
  const std::size_t base =
      3 + leaf.tbs.serialize().size() - ext.serialize().size();
  std::size_t sans_len = 1;
  for (const auto& san : ext.subject_alt_names) sans_len += 1 + san.size();
  const std::size_t ku_presence = base + 3 + sans_len;
  const std::size_t must_staple = 3 + leaf.tbs.serialize().size() - 1;
  ASSERT_EQ(wire[ku_presence], 1);
  ASSERT_EQ(wire[must_staple], 0);

  const struct {
    const char* field;
    std::size_t offset;
    std::uint8_t value;
  } cases[] = {
      {"basic-constraints presence", base, 0x02},
      {"is_ca", base + 1, 0x02},
      {"path-length presence", base + 2, 0x02},
      {"key-usage presence", ku_presence, 0x02},
      {"must_staple", must_staple, 0x02},
      {"key-usage bits", ku_presence + 1, 0x13},
  };
  for (const auto& c : cases) {
    common::Bytes mutated = wire;
    mutated[c.offset] = c.value;
    EXPECT_THROW(Certificate::parse(mutated), common::ParseError) << c.field;
  }
}

TEST_F(IssueMemoTest, SameBytesColdWarmDisabledAndCleared) {
  // PKCS#1 v1.5 signing is deterministic, so the memo can only change
  // when a signature is computed, never its bytes. A legacy key without
  // CRT components signs through the plain path to the same bytes.
  const auto keys = test_keys(11);
  crypto::RsaPrivateKey legacy;
  legacy.n = keys.priv.n;
  legacy.e = keys.priv.e;
  legacy.d = keys.priv.d;
  ASSERT_FALSE(legacy.has_crt());
  const TbsCertificate tbs = leaf_tbs("memo.example.com", keys.pub);
  const common::Bytes expected = crypto::rsa_sign(keys.priv, tbs.serialize());

  const crypto::RsaPrivateKey* signers[] = {&keys.priv, &legacy};
  for (const crypto::RsaPrivateKey* key : signers) {
    crypto::crypto_caches_clear();
    const Certificate cold = issue_certificate(tbs, *key);
    const Certificate warm = issue_certificate(tbs, *key);
    crypto::set_crypto_cache_enabled(false);
    const Certificate disabled = issue_certificate(tbs, *key);
    crypto::set_crypto_cache_enabled(true);
    crypto::crypto_caches_clear();
    EXPECT_EQ(crypto::cert_sign_cache().size(), 0u);
    const Certificate cleared = issue_certificate(tbs, *key);
    for (const Certificate* cert : {&cold, &warm, &disabled, &cleared}) {
      EXPECT_EQ(cert->tbs, tbs);
      EXPECT_EQ(cert->signature, expected);
      EXPECT_EQ(cert->serialize(), cold.serialize());
    }
  }
}

TEST_F(IssueMemoTest, IssuerKeysNeverShareAnEntry) {
  const auto a = test_keys(12);
  const auto b = test_keys(13);
  const TbsCertificate tbs = leaf_tbs("shared.example.com", a.pub);
  const Certificate by_a = issue_certificate(tbs, a.priv);
  const Certificate by_b = issue_certificate(tbs, b.priv);
  EXPECT_EQ(crypto::cert_sign_cache().size(), 2u);
  EXPECT_NE(by_a.signature, by_b.signature);
  EXPECT_TRUE(crypto::rsa_verify(a.pub, tbs.serialize(), by_a.signature));
  EXPECT_TRUE(crypto::rsa_verify(b.pub, tbs.serialize(), by_b.signature));
  // Warm lookups still answer per key.
  EXPECT_EQ(issue_certificate(tbs, b.priv).signature, by_b.signature);
  EXPECT_EQ(issue_certificate(tbs, a.priv).signature, by_a.signature);
}

TEST_F(IssueMemoTest, ConcurrentIssuanceMatchesUncached) {
  // Pool workers issue overlapping (key, TBS) pairs while others clear the
  // tables: exercises every shard mutex (run under TSan in CI).
  const crypto::RsaKeyPair keys[] = {test_keys(14), test_keys(15)};
  std::vector<TbsCertificate> tbss;
  for (int i = 0; i < 24; ++i) {
    tbss.push_back(
        leaf_tbs("host" + std::to_string(i) + ".example.com", keys[0].pub));
  }
  std::vector<common::Bytes> expected;
  for (const auto& kp : keys) {
    for (const auto& tbs : tbss) {
      expected.push_back(crypto::rsa_sign(kp.priv, tbs.serialize()));
    }
  }

  std::atomic<int> mismatches{0};
  common::parallel_for(8, 400, [&](std::size_t i) {
    const std::size_t k = i % 2;
    const std::size_t t = (i / 2) % tbss.size();
    const Certificate cert = issue_certificate(tbss[t], keys[k].priv);
    if (cert.signature != expected[k * tbss.size() + t]) ++mismatches;
    if (i % 97 == 0) crypto::crypto_caches_clear();
  });
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_LE(crypto::cert_sign_cache().size(), expected.size());
}

TEST_F(IssueMemoTest, ConcurrentColdIssuanceSignsOnce) {
  // Eight threads issuing one cold TBS under one key at the same moment
  // wait for a single signature: one cert_sign miss, one private op, and
  // every thread gets the bytes an uncached signature has. Each round
  // issues a fresh TBS. A 1024-bit key without CRT factors signs through
  // the full-width exponent, which keeps the signature in flight for more
  // than a millisecond: longer than the threads take to wake.
  common::Rng rng(16);
  const crypto::RsaKeyPair keys = crypto::rsa_generate(rng, 1024);
  crypto::RsaPrivateKey legacy;
  legacy.n = keys.priv.n;
  legacy.e = keys.priv.e;
  legacy.d = keys.priv.d;
  constexpr std::size_t kRounds = 32;
  std::vector<TbsCertificate> tbss;
  std::vector<common::Bytes> expected;
  for (std::size_t round = 0; round < kRounds; ++round) {
    tbss.push_back(leaf_tbs("flight.example.com", keys.pub));
    tbss.back().serial = {0x42, static_cast<std::uint8_t>(round)};
    expected.push_back(crypto::rsa_sign(legacy, tbss.back().serialize()));
  }

  const bool metrics_were_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::Counter& misses = obs::MetricsRegistry::global().counter(
      "iotls_crypto_cache_misses_total", "Crypto memoisation misses by cache",
      "cache", "cert_sign");
  const std::uint64_t misses_before = misses.value();
  obs::profile_reset();
  obs::set_profile_enabled(true);

  constexpr std::size_t kThreads = 8;
  std::atomic<int> mismatches{0};
  for (std::size_t round = 0; round < kRounds; ++round) {
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, round] {
        start.arrive_and_wait();
        if (issue_certificate(tbss[round], legacy).signature !=
            expected[round]) {
          ++mismatches;
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }

  const obs::ProfileSnapshot snap = obs::profile_snapshot();
  obs::set_profile_enabled(false);
  obs::profile_reset();
  const std::uint64_t signed_misses = misses.value() - misses_before;
  obs::set_metrics_enabled(metrics_were_enabled);

  EXPECT_EQ(signed_misses, kRounds);
  EXPECT_EQ(obs::zone_calls(snap.root, "crypto/rsa_private_op"), kRounds);
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace iotls::x509
