#include "x509/verify.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/cache.hpp"
#include "pki/ca.hpp"
#include "pki/spoof.hpp"

namespace iotls::x509 {
namespace {

// A tiny PKI fixture: one trusted CA, a server leaf, and an attacker key.
class VerifyTest : public ::testing::Test {
 protected:
  VerifyTest()
      : rng_(777),
        ca_(DistinguishedName{"Unit Root CA", "Testing", "US"}, rng_),
        server_keys_(crypto::rsa_generate(rng_, 512)),
        attacker_keys_(crypto::rsa_generate(rng_, 512)) {
    leaf_ = ca_.issue_server_cert("device.example.com", server_keys_.pub);
    anchors_ = {ca_.root()};
  }

  static constexpr common::SimDate kNow{2021, 3, 1};

  common::Rng rng_;
  pki::CertificateAuthority ca_;
  crypto::RsaKeyPair server_keys_;
  crypto::RsaKeyPair attacker_keys_;
  Certificate leaf_;
  std::vector<Certificate> anchors_;
};

TEST_F(VerifyTest, ValidChainPasses) {
  const std::vector<Certificate> chain = {leaf_};
  const auto res = verify_chain(chain, "device.example.com", anchors_, kNow);
  EXPECT_TRUE(res.ok()) << verify_error_name(res.error);
}

TEST_F(VerifyTest, LeadingZeroModulusDoesNotParse) {
  // A structural re-encoding of the leaf: one leading 0x00 on the SPKI
  // modulus, with the modulus, SPKI and TBS length prefixes fixed up. It
  // would re-serialize to the signed TBS and verify, so parse rejects it.
  const crypto::RsaPublicKey& key = leaf_.tbs.subject_public_key;
  common::Bytes modulus = key.n.to_bytes();
  modulus.insert(modulus.begin(), 0x00);
  common::ByteWriter padded_key;
  padded_key.vec(modulus, 2);
  padded_key.vec(key.e.to_bytes(), 2);
  common::ByteWriter signed_field;
  signed_field.vec(key.serialize(), 2);
  common::ByteWriter padded_field;
  padded_field.vec(padded_key.bytes(), 2);

  const common::Bytes tbs = leaf_.tbs.serialize();
  const common::Bytes& old_field = signed_field.bytes();
  const auto at =
      std::search(tbs.begin(), tbs.end(), old_field.begin(), old_field.end());
  ASSERT_NE(at, tbs.end());
  common::Bytes padded_tbs(tbs.begin(), at);
  padded_tbs.insert(padded_tbs.end(), padded_field.bytes().begin(),
                    padded_field.bytes().end());
  padded_tbs.insert(padded_tbs.end(), at + static_cast<std::ptrdiff_t>(
                                               old_field.size()),
                    tbs.end());

  common::ByteWriter wire;
  wire.vec(padded_tbs, 3);
  wire.vec(leaf_.signature, 2);
  EXPECT_THROW((void)Certificate::parse(wire.bytes()), common::ParseError);

  // The signed encoding itself parses back to the same bytes.
  EXPECT_EQ(Certificate::parse(leaf_.serialize()).serialize(),
            leaf_.serialize());
}

TEST_F(VerifyTest, EmptyChainFails) {
  const auto res = verify_chain({}, "device.example.com", anchors_, kNow);
  EXPECT_EQ(res.error, VerifyError::EmptyChain);
}

TEST_F(VerifyTest, SelfSignedLeafIsUnknownIssuer) {
  // The NoValidation attack payload against a correct validator.
  const auto forged =
      pki::make_self_signed_leaf("device.example.com", attacker_keys_);
  const auto res =
      verify_chain({{forged}}, "device.example.com", anchors_, kNow);
  EXPECT_EQ(res.error, VerifyError::UnknownIssuer);
}

TEST_F(VerifyTest, SpoofedCaGivesBadSignature) {
  // The probe's core distinction: a chain anchored at a *spoofed* copy of a
  // trusted root fails with BadSignature, not UnknownIssuer.
  const auto spoofed = pki::make_spoofed_ca(ca_.root(), attacker_keys_);
  const auto chain = pki::forge_chain(spoofed, attacker_keys_.priv,
                                      "device.example.com",
                                      attacker_keys_.pub);
  const auto res = verify_chain(chain, "device.example.com", anchors_, kNow);
  EXPECT_EQ(res.error, VerifyError::BadSignature);
}

TEST_F(VerifyTest, UnknownCaGivesUnknownIssuer) {
  common::Rng rng(888);
  pki::CertificateAuthority other_ca(DistinguishedName::cn("Unknown Root"),
                                     rng);
  const auto chain =
      pki::forge_chain(other_ca.root(), other_ca.keypair().priv,
                       "device.example.com", attacker_keys_.pub);
  const auto res = verify_chain(chain, "device.example.com", anchors_, kNow);
  EXPECT_EQ(res.error, VerifyError::UnknownIssuer);
}

TEST_F(VerifyTest, WrongHostnameDetected) {
  const auto res = verify_chain({{leaf_}}, "other.example.com", anchors_, kNow);
  EXPECT_EQ(res.error, VerifyError::HostnameMismatch);
  EXPECT_EQ(res.failed_depth, 0);
}

TEST_F(VerifyTest, WrongHostnamePassesWithoutHostnameCheck) {
  // The Amazon-family flaw (Table 7): chain validated, hostname not.
  const auto res = verify_chain({{leaf_}}, "other.example.com", anchors_, kNow,
                                VerifyPolicy::no_hostname());
  EXPECT_TRUE(res.ok());
}

TEST_F(VerifyTest, LeafUsedAsCaViolatesBasicConstraints) {
  // InvalidBasicConstraints attack: a legitimate *leaf* (CA=false) signs a
  // new forged leaf.
  const auto mitm_leaf = ca_.issue_server_cert("attacker.example.com",
                                               attacker_keys_.pub);
  x509::TbsCertificate forged_tbs;
  forged_tbs.serial = {0x66};
  forged_tbs.issuer = mitm_leaf.tbs.subject;
  forged_tbs.subject = DistinguishedName::cn("device.example.com");
  forged_tbs.subject_public_key = attacker_keys_.pub;
  forged_tbs.extensions.subject_alt_names = {"device.example.com"};
  const auto forged = issue_certificate(forged_tbs, attacker_keys_.priv);

  const std::vector<Certificate> chain = {forged, mitm_leaf};
  const auto res = verify_chain(chain, "device.example.com", anchors_, kNow);
  EXPECT_EQ(res.error, VerifyError::InvalidBasicConstraints);
  EXPECT_EQ(res.failed_depth, 1);
}

TEST_F(VerifyTest, BasicConstraintsSkippedWhenPolicyDisabled) {
  const auto mitm_leaf = ca_.issue_server_cert("attacker.example.com",
                                               attacker_keys_.pub);
  x509::TbsCertificate forged_tbs;
  forged_tbs.serial = {0x66};
  forged_tbs.issuer = mitm_leaf.tbs.subject;
  forged_tbs.subject = DistinguishedName::cn("device.example.com");
  forged_tbs.subject_public_key = attacker_keys_.pub;
  forged_tbs.extensions.subject_alt_names = {"device.example.com"};
  const auto forged = issue_certificate(forged_tbs, attacker_keys_.priv);

  VerifyPolicy policy;
  policy.check_basic_constraints = false;
  const std::vector<Certificate> chain = {forged, mitm_leaf};
  const auto res =
      verify_chain(chain, "device.example.com", anchors_, kNow, policy);
  EXPECT_TRUE(res.ok());
}

TEST_F(VerifyTest, NoValidationPolicyAcceptsAnything) {
  const auto forged =
      pki::make_self_signed_leaf("whatever.example.com", attacker_keys_);
  const auto res = verify_chain({{forged}}, "device.example.com", anchors_,
                                kNow, VerifyPolicy::none());
  EXPECT_TRUE(res.ok());
}

TEST_F(VerifyTest, ExpiredLeafRejected) {
  const auto expired = ca_.issue_server_cert(
      "device.example.com", server_keys_.pub,
      Validity{{2018, 1, 1}, {2019, 1, 1}});
  const auto res =
      verify_chain({{expired}}, "device.example.com", anchors_, kNow);
  EXPECT_EQ(res.error, VerifyError::Expired);
}

TEST_F(VerifyTest, NotYetValidLeafRejected) {
  const auto future = ca_.issue_server_cert(
      "device.example.com", server_keys_.pub,
      Validity{{2030, 1, 1}, {2031, 1, 1}});
  const auto res =
      verify_chain({{future}}, "device.example.com", anchors_, kNow);
  EXPECT_EQ(res.error, VerifyError::NotYetValid);
}

TEST_F(VerifyTest, IntermediateChainVerifies) {
  common::Rng rng(999);
  const auto inter_keys = crypto::rsa_generate(rng, 512);
  const auto inter = ca_.issue_intermediate(
      DistinguishedName::cn("Unit Intermediate"), inter_keys.pub);

  TbsCertificate tbs;
  tbs.serial = {0x11};
  tbs.issuer = inter.tbs.subject;
  tbs.subject = DistinguishedName::cn("deep.example.com");
  tbs.subject_public_key = server_keys_.pub;
  tbs.extensions.subject_alt_names = {"deep.example.com"};
  tbs.extensions.basic_constraints = BasicConstraints{false, {}};
  const auto leaf = issue_certificate(tbs, inter_keys.priv);

  const std::vector<Certificate> chain = {leaf, inter};
  const auto res = verify_chain(chain, "deep.example.com", anchors_, kNow);
  EXPECT_TRUE(res.ok()) << verify_error_name(res.error);
}

TEST_F(VerifyTest, PresentedRootIsIgnoredInFavourOfStore) {
  // Chain that *includes* a spoofed root: the verifier must still use the
  // store's key and fail.
  const auto spoofed = pki::make_spoofed_ca(ca_.root(), attacker_keys_);
  auto chain = pki::forge_chain(spoofed, attacker_keys_.priv,
                                "device.example.com", attacker_keys_.pub);
  ASSERT_EQ(chain.size(), 2u);
  const auto res = verify_chain(chain, "device.example.com", anchors_, kNow);
  EXPECT_NE(res.error, VerifyError::Ok);
}

TEST_F(VerifyTest, EmptyHostnameSkipsHostnameCheck) {
  const auto res = verify_chain({{leaf_}}, "", anchors_, kNow);
  EXPECT_TRUE(res.ok());
}

// ---- chain-verification cache semantics ----
//
// The cache must be invisible except for speed: repeats agree, different
// anchors/policies/validity windows land in distinct entries.

class VerifyCacheTest : public VerifyTest {
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

TEST_F(VerifyCacheTest, RepeatedVerificationsAgreeWithUncached) {
  const std::vector<Certificate> chain = {leaf_};
  const auto cold = verify_chain(chain, "device.example.com", anchors_, kNow);
  const auto warm = verify_chain(chain, "device.example.com", anchors_, kNow);
  crypto::set_crypto_cache_enabled(false);
  const auto plain = verify_chain(chain, "device.example.com", anchors_, kNow);
  EXPECT_EQ(cold.error, plain.error);
  EXPECT_EQ(warm.error, plain.error);
  EXPECT_EQ(warm.failed_depth, plain.failed_depth);
  EXPECT_TRUE(plain.ok());
}

TEST_F(VerifyCacheTest, ValidityWindowCrossingsAreNotConflated) {
  // Same chain verified on three sides of its window: before, inside,
  // after. The cached entries must stay distinct — expiry semantics are
  // the paper's Table 8 signal and may not be blurred by memoisation.
  const auto cert = ca_.issue_server_cert("device.example.com",
                                          server_keys_.pub,
                                          Validity{{2020, 1, 1}, {2022, 1, 1}});
  const std::vector<Certificate> chain = {cert};
  const auto before =
      verify_chain(chain, "device.example.com", anchors_, {2019, 6, 1});
  const auto inside =
      verify_chain(chain, "device.example.com", anchors_, {2021, 6, 1});
  const auto after =
      verify_chain(chain, "device.example.com", anchors_, {2023, 6, 1});
  EXPECT_EQ(before.error, VerifyError::NotYetValid);
  EXPECT_TRUE(inside.ok());
  EXPECT_EQ(after.error, VerifyError::Expired);
  // Two dates inside the window share an entry; verdicts still correct.
  const auto inside2 =
      verify_chain(chain, "device.example.com", anchors_, {2021, 11, 30});
  EXPECT_TRUE(inside2.ok());
}

TEST_F(VerifyCacheTest, DifferentAnchorStoresAreNotConfused) {
  // A store that lacks our CA must keep failing even right after the same
  // chain verified OK against the full store (and vice versa).
  common::Rng rng(424);
  pki::CertificateAuthority other_ca(DistinguishedName::cn("Other Root"),
                                     rng);
  const std::vector<Certificate> chain = {leaf_};
  const std::vector<Certificate> wrong_store = {other_ca.root()};

  EXPECT_TRUE(
      verify_chain(chain, "device.example.com", anchors_, kNow).ok());
  EXPECT_EQ(
      verify_chain(chain, "device.example.com", wrong_store, kNow).error,
      VerifyError::UnknownIssuer);
  EXPECT_TRUE(
      verify_chain(chain, "device.example.com", anchors_, kNow).ok());
}

TEST_F(VerifyCacheTest, PolicyVariationsGetDistinctEntries) {
  const std::vector<Certificate> chain = {leaf_};
  const auto strict =
      verify_chain(chain, "wrong.example.com", anchors_, kNow);
  const auto lax = verify_chain(chain, "wrong.example.com", anchors_, kNow,
                                VerifyPolicy::no_hostname());
  const auto strict_again =
      verify_chain(chain, "wrong.example.com", anchors_, kNow);
  EXPECT_EQ(strict.error, VerifyError::HostnameMismatch);
  EXPECT_TRUE(lax.ok());
  EXPECT_EQ(strict_again.error, VerifyError::HostnameMismatch);
}

TEST_F(VerifyCacheTest, HostnamesGetDistinctEntries) {
  const std::vector<Certificate> chain = {leaf_};
  EXPECT_TRUE(
      verify_chain(chain, "device.example.com", anchors_, kNow).ok());
  EXPECT_EQ(verify_chain(chain, "evil.example.com", anchors_, kNow).error,
            VerifyError::HostnameMismatch);
}

TEST(VerifyErrorName, AllNamesDistinct) {
  const VerifyError all[] = {
      VerifyError::Ok, VerifyError::EmptyChain, VerifyError::UnknownIssuer,
      VerifyError::BadSignature, VerifyError::Expired,
      VerifyError::NotYetValid, VerifyError::HostnameMismatch,
      VerifyError::InvalidBasicConstraints, VerifyError::Revoked,
      VerifyError::PinMismatch};
  std::set<std::string> names;
  for (const auto e : all) names.insert(verify_error_name(e));
  EXPECT_EQ(names.size(), std::size(all));
}

}  // namespace
}  // namespace iotls::x509
