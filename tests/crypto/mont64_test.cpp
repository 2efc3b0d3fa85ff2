// Differential coverage for the odd-modulus kernel (crypto/mont64.hpp):
// Mont64 and BigUint::modexp must agree bit-for-bit with the schoolbook
// `modexp_plain` oracle, and the per-thread context cache must stay
// bounded and private to its thread.
#include "crypto/mont64.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/pool.hpp"
#include "common/rng.hpp"

namespace {

using iotls::common::Rng;
using iotls::crypto::BigUint;
using iotls::crypto::Mont64;
using iotls::crypto::mont64_context_count;
using iotls::crypto::mont64_contexts_clear;

BigUint random_odd(Rng& rng, std::size_t bits) {
  BigUint m = BigUint::random_bits(rng, bits);
  if (!m.is_odd()) m = m.add(BigUint(1));
  return m;
}

TEST(Mont64Test, MatchesSchoolbookOracleAcrossSizes) {
  Rng rng(0x6464);
  for (std::size_t bits : {64, 96, 256, 512, 521, 1024}) {
    const BigUint m = random_odd(rng, bits);
    const Mont64 mont(m);
    for (int i = 0; i < 4; ++i) {
      const BigUint base = BigUint::random_bits(rng, bits + 17);
      const BigUint exp = BigUint::random_bits(rng, bits / 2 + 1);
      EXPECT_EQ(mont.pow(base, exp), base.modexp_plain(exp, m))
          << "bits=" << bits << " i=" << i;
    }
  }
}

TEST(Mont64Test, MatchesOracleOnRsaShapedInputs) {
  Rng rng(0xC1A0);
  const BigUint p = BigUint::generate_prime(rng, 256);
  const BigUint q = BigUint::generate_prime(rng, 256);
  const BigUint n = p.mul(q);
  const Mont64 mont64(n);
  for (int i = 0; i < 8; ++i) {
    const BigUint base = BigUint::random_below(rng, n);
    const BigUint exp = BigUint::random_bits(rng, 512);
    EXPECT_EQ(mont64.pow(base, exp), base.modexp_plain(exp, n)) << "i=" << i;
  }
}

TEST(Mont64Test, EdgeExponents) {
  Rng rng(0xED6E);
  const BigUint m = random_odd(rng, 192);
  const Mont64 mont(m);
  const BigUint base = BigUint::random_bits(rng, 200);
  EXPECT_EQ(mont.pow(base, BigUint()), BigUint(1));       // base^0 = 1
  EXPECT_EQ(mont.pow(base, BigUint(1)), base.mod(m));     // base^1
  EXPECT_EQ(mont.pow(BigUint(), BigUint(5)), BigUint());  // 0^5 = 0
  EXPECT_EQ(mont.pow(m, BigUint(3)), BigUint());          // (m mod m)^3
}

TEST(Mont64Test, PowTwoFastPathMatchesOracle) {
  // The DH generator is the fixed base 2 (crypto/dh.cpp); pow dispatches
  // it to the square-and-double ladder, which must stay bit-identical.
  Rng rng(0x2222);
  for (std::size_t bits : {64, 255, 256, 512}) {
    const BigUint m = random_odd(rng, bits);
    const Mont64 mont(m);
    for (int i = 0; i < 3; ++i) {
      const BigUint exp = BigUint::random_bits(rng, bits - 3);
      EXPECT_EQ(mont.pow(BigUint(2), exp),
                BigUint(2).modexp_plain(exp, m))
          << "bits=" << bits << " i=" << i;
    }
    EXPECT_EQ(mont.pow(BigUint(2), BigUint()), BigUint(1).mod(m));
    EXPECT_EQ(mont.pow(BigUint(2), BigUint(1)), BigUint(2).mod(m));
  }
  // Tiny odd moduli exercise the reduction edge of the doubling step.
  for (std::uint64_t small : {3u, 5u, 7u, 9u}) {
    const Mont64 mont((BigUint(small)));
    for (std::uint64_t e = 0; e < 12; ++e) {
      EXPECT_EQ(mont.pow(BigUint(2), BigUint(e)),
                BigUint(2).modexp_plain(BigUint(e), BigUint(small)))
          << "m=" << small << " e=" << e;
    }
  }
}

TEST(Mont64Test, RejectsEvenModulus) {
  EXPECT_THROW(Mont64 m(BigUint(42)), iotls::common::CryptoError);
  EXPECT_THROW(Mont64 z((BigUint())), iotls::common::CryptoError);
}

TEST(Mont64Test, ContextIsReusableAcrossCalls) {
  // Member-owned scratch must not carry state between exponentiations.
  Rng rng(0x5C8A);
  const BigUint m = random_odd(rng, 320);
  const Mont64 mont(m);
  const BigUint base = BigUint::random_bits(rng, 300);
  const BigUint exp = BigUint::random_bits(rng, 160);
  const BigUint first = mont.pow(base, exp);
  (void)mont.pow(BigUint::random_bits(rng, 500), BigUint::random_bits(rng, 64));
  EXPECT_EQ(mont.pow(base, exp), first);
}

TEST(ModexpDispatchTest, UnitModulusGivesZero) {
  // Everything is 0 mod 1, including x^0 and the base-2 ladder.
  const BigUint one(1);
  for (std::uint64_t base : {0u, 2u, 5u, 12345u}) {
    for (std::uint64_t exp : {0u, 1u, 3u, 65537u}) {
      EXPECT_EQ(BigUint(base).modexp(BigUint(exp), one), BigUint())
          << "base=" << base << " exp=" << exp;
    }
  }
}

TEST(ModexpDispatchTest, OddAndEvenModuliMatchOracle) {
  Rng rng(0x306);
  for (int i = 0; i < 200; ++i) {
    const BigUint base = BigUint::random_bits(rng, 80);
    const BigUint exp = BigUint::random_bits(rng, 40);
    const BigUint odd = random_odd(rng, 72);
    ASSERT_EQ(base.modexp(exp, odd), base.modexp_plain(exp, odd));
    // Even moduli take the schoolbook fallback; results must still agree.
    BigUint even = BigUint::random_bits(rng, 72);
    if (even.is_odd()) even = even.add(BigUint(1));
    if (even.is_zero()) even = BigUint(2);
    ASSERT_EQ(base.modexp(exp, even), base.modexp_plain(exp, even));
  }
}

TEST(ModexpDispatchTest, ZeroModulusThrows) {
  EXPECT_THROW((void)BigUint(3).modexp(BigUint(4), BigUint()),
               iotls::common::CryptoError);
}

TEST(ModexpDispatchTest, ContextCacheIsBoundedAndWarm) {
  mont64_contexts_clear();
  Rng rng(0xCAFE);
  const BigUint base(7);
  const BigUint exp(65537);
  // Hammer with more distinct moduli than the cache holds.
  for (int i = 0; i < 48; ++i) {
    const BigUint m = random_odd(rng, 96);
    EXPECT_EQ(base.modexp(exp, m), base.modexp_plain(exp, m));
  }
  EXPECT_LE(mont64_context_count(), 32u);
  // A repeated modulus is served from the warm cache with the same value.
  const BigUint m = random_odd(rng, 128);
  const BigUint expected = base.modexp_plain(exp, m);
  EXPECT_EQ(base.modexp(exp, m), expected);
  const std::size_t count = mont64_context_count();
  EXPECT_EQ(base.modexp(exp, m), expected);
  EXPECT_EQ(mont64_context_count(), count);
  mont64_contexts_clear();
  EXPECT_EQ(mont64_context_count(), 0u);
}

TEST(ModexpDispatchTest, ConcurrentWorkersMatchOracle) {
  // Eight workers share one set of moduli; each thread builds its own
  // contexts, so no scratch buffer is ever touched by two threads.
  Rng rng(0x7A5C);
  std::vector<BigUint> moduli;
  for (int i = 0; i < 6; ++i) moduli.push_back(random_odd(rng, 256));
  struct Case {
    BigUint base, exp, m;
  };
  std::vector<Case> cases;
  for (int i = 0; i < 96; ++i) {
    cases.push_back({BigUint::random_bits(rng, 256),
                     BigUint::random_bits(rng, 128),
                     moduli[static_cast<std::size_t>(i) % moduli.size()]});
  }
  const auto got = iotls::common::parallel_map(
      8, cases, [](const Case& c) { return c.base.modexp(c.exp, c.m); });
  ASSERT_EQ(got.size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(got[i], cases[i].base.modexp_plain(cases[i].exp, cases[i].m))
        << "case=" << i;
  }
}

}  // namespace
