#include "crypto/dh.hpp"

#include <gtest/gtest.h>

namespace iotls::crypto {
namespace {

class DhGroupTest : public ::testing::TestWithParam<DhGroup> {};

TEST_P(DhGroupTest, KeyAgreementMatches) {
  common::Rng rng(2021);
  const DhKeyPair alice = dh_generate(rng, GetParam());
  const DhKeyPair bob = dh_generate(rng, GetParam());
  const auto s1 = dh_shared_secret(GetParam(), alice.secret, bob.pub);
  const auto s2 = dh_shared_secret(GetParam(), bob.secret, alice.pub);
  EXPECT_EQ(s1, s2);
  EXPECT_FALSE(s1.empty());
}

TEST_P(DhGroupTest, PublicValueFixedWidth) {
  common::Rng rng(2022);
  const auto& params = dh_params(GetParam());
  const DhKeyPair kp = dh_generate(rng, GetParam());
  EXPECT_EQ(kp.pub.size(), (params.p.bit_length() + 7) / 8);
}

TEST_P(DhGroupTest, DistinctKeysDistinctSecrets) {
  common::Rng rng(2023);
  const DhKeyPair a = dh_generate(rng, GetParam());
  const DhKeyPair b = dh_generate(rng, GetParam());
  EXPECT_NE(a.pub, b.pub);
}

INSTANTIATE_TEST_SUITE_P(AllGroups, DhGroupTest,
                         ::testing::Values(DhGroup::Secp256r1,
                                           DhGroup::Secp384r1, DhGroup::X25519,
                                           DhGroup::Ffdhe2048));

TEST(Dh, GroupsAreDistinct) {
  EXPECT_NE(dh_params(DhGroup::Secp256r1).p, dh_params(DhGroup::X25519).p);
}

TEST(Dh, RejectsOutOfRangePeer) {
  common::Rng rng(2024);
  const DhKeyPair kp = dh_generate(rng, DhGroup::X25519);
  const auto& p = dh_params(DhGroup::X25519).p;
  EXPECT_THROW(
      dh_shared_secret(DhGroup::X25519, kp.secret, p.to_bytes()),
      common::CryptoError);
  const common::Bytes zero(32, 0);
  EXPECT_THROW(dh_shared_secret(DhGroup::X25519, kp.secret, zero),
               common::CryptoError);
}

TEST(Dh, CrossGroupSecretsDiffer) {
  common::Rng rng(2025);
  const DhKeyPair a1 = dh_generate(rng, DhGroup::Secp256r1);
  // Same secret used against a different group gives a different shared
  // secret space — groups do not interoperate.
  common::Rng rng2(2025);
  const DhKeyPair a2 = dh_generate(rng2, DhGroup::Secp384r1);
  EXPECT_NE(a1.pub, a2.pub);
}

}  // namespace
}  // namespace iotls::crypto
