// Differential and known-answer coverage for the odd-modulus kernel
// (crypto/mont64.hpp): mont64_modexp and BigUint::modexp must agree
// bit-for-bit with the schoolbook `modexp_plain` oracle at every limb
// count, match absolute vectors computed outside this code base, and keep
// the per-thread context cache bounded and private to its thread.
#include "crypto/mont64.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/pool.hpp"
#include "common/rng.hpp"

namespace {

using iotls::common::Rng;
using iotls::crypto::BigUint;
using iotls::crypto::kMont64MaxFixedLimbs;
using iotls::crypto::kMont64WindowBits;
using iotls::crypto::mont64_context_count;
using iotls::crypto::mont64_contexts_clear;
using iotls::crypto::mont64_modexp;

BigUint random_odd(Rng& rng, std::size_t bits) {
  BigUint m = BigUint::random_bits(rng, bits);
  if (!m.is_odd()) m = m.add(BigUint(1));
  return m;
}

// A random exponent of exactly `bits` bits (zero for 0).
BigUint exponent_of_length(Rng& rng, std::size_t bits) {
  return bits == 0 ? BigUint() : BigUint::random_bits(rng, bits);
}

// Known answers computed with python3's pow(base, exp, m). Every value is
// derived from SHA-256 of a label: m = sha("m<bits>") with its top and low
// bits set, base = sha("b<bits>") at bits + 8 bits (so base >= m), and
// exp = sha("e<bits>") at min(bits, 512) bits with its top bit set.
struct KnownAnswer {
  std::size_t bits;
  const char* m;
  const char* base;
  const char* exp;
  const char* base_pow_65537;
  const char* base_pow_exp;
  const char* two_pow_exp;
};

const KnownAnswer kKnownAnswers[] = {
    {256,
     // m
     "85440acaa3636306ecaae43af13b0cfc393c77b3d141290c2dc068a8fa98d0a5",
     // base
     "b1f543c206f4ccd2c920e4419a11cb44de297bd6d5f63566ed5803c811f705de"
     "15",
     // exp
     "eb61245b94bc97257d06c6f822e17232099839f27f76bae749d215fc1670b50c",
     // base^65537
     "2db02600a0e0ab2d5e02ecf8452ea3a779e71246a0dbaa6b2bc5bfce451f9300",
     // base^exp
     "5d24b26c2e77175335f1600aa496d49dc732d4a6eec8fcd76f80993517bd1706",
     // 2^exp
     "45c8c6f70e5581a978a6c90e704310d35e9051e0c6fdbb4cdd33eba2decefbf4",
    },
    {512,
     // m
     "86aa1e6c6aa6f84a9f7673d27069bac96fd1d84696f514109f75850b4fbdb230"
     "89b30016584623aba1084496ab5717e2daa99eed3e99ab1a6a08e7223229c99f",
     // base
     "4fdfeab9cb307f58ff321a67924d5cf14188c4fbe638a9773ab4d2b916fadfa0"
     "14f1153ebb5e25a171028fdfa6db6978385df67efd3d66457ddba5e4ab8722a0"
     "ab",
     // exp
     "88cb729365d0ff0e304d72bade5614ceaa7c97ddc965fcba18ff3afd2cf0d83d"
     "d44f5af683d61ce1eb3d9316a6fa3926e97d02665996a7cb2ff582c5ce94377f",
     // base^65537
     "72a1be45926b51a57a85438032ec162369ce8510c31faaebfe0182e428406f4d"
     "1382a0d10818b683c684a6dfffa3948419d805bc45efe742f45b37900d589176",
     // base^exp
     "67e4f70850c953448baf221d286d714635d40d3de7d677daf51fce31b7422437"
     "ab68428b07706b908a05d13b8717d7073fcd0c6e834137b8195e8e7e0af0465f",
     // 2^exp
     "83e9d5ec5d4c54e7b81772ff00ee8ba3f665ee92245df3af45247e0aee1f18b0"
     "06ef8ab2c24d15ba96d1072b32f7535da0aed85a90590bce72b3b25a5c13b3bc",
    },
    {2048,
     // m
     "acccbadda5cdb29c2260c125630f971fadeba06d589b177f006f9a4469561b58"
     "07e53d9b575b5635c818fcd4faaf74a2bc5a59e93ca028e31665be91958fa4ac"
     "6b1da2eff6ae6066381ef0dddf826b2af08029f684d950e98d11b4ae4afdbcf1"
     "7fe4343485f16d61db50394474237e7bcd04bf79d8227d73cb4e265a968f9a60"
     "01340a73db05d0b48d91efbf9d7bf8522ef24affec72e4afa8572fac264d78f9"
     "b1a25bf71305f2a36806d25561e84301f083ecfce34d9622f3cd91448b17001e"
     "cc6b00878ba0c798ace403898fc837836921f44b30c51fc0056db2e5f452ae95"
     "8268aac8e5e976ddc7d2e376a22d1a049efd53ef5beaeba033af8fc3c5b59ac1",
     // base
     "abe72c9d190a6175ecca6fd04e57cacace1952c031a53772e2984c6166e2b59f"
     "f258b7af572016c078ecc9f15c89627c02e6a252f460e5bb852097debec3f3f4"
     "07e8bce28086e7b4d4db7a0c015ee7ed4d16e6babe057499611f52fb2e176df8"
     "5fbaedf06379161670e6a30fc01a8ef66f3c97cba96e362da43aee0dd089bb1a"
     "dfbed43f16c14a2a600663039fd95e042ed317a518a4b7cc3f90d7fa8db0feb9"
     "a71d9358d9a3ca5d3b946bd2beafc3bbca409be0fdb1c3d11441cfc12f959ecf"
     "0e78103235bdabc98abbff0e24c36b03712180fd0c7a88c140ad822c06081478"
     "467630a06acb85f27ae3e4caf74a7250faaa0c2c31d36f6eb79c3ad1b2a9872e"
     "20",
     // exp
     "ac7b33eeed70ab11ca07419544db3f96e8db9b3de9a302ae5a891209137fc408"
     "317835d12d6332645c903123ea53b4386d5341f4e298517422ce0dd911f9e340",
     // base^65537
     "8fda8d1cdc46f34315bca8da158dc6c130c7055bfe03cf36efbe3d5f5ad8f6e4"
     "4fcfb9e2d6ea6fa54c6069be4405a88cdfa4c09a5052364766f0af4186426ea6"
     "50142b3b431ea1824f45f73ed1c3bd2f57d63264f681e136f9388ecee6b49964"
     "58d122f51597e7d4b96ee8ec35eeee2e3726dcf5c7b1d5f2e6ef00c644b8791b"
     "bb22a0f4d083167c348f6eb9f44dafc4b48afd4839cd24443c79fe73eeb778fd"
     "3f3c9ca659dd81be8cadd27a39399dd726aaf3740c0fa47da198b7497e1475e2"
     "2e2f02bb3527a69a48064688450c86bd3b009af959875f0aff3f9c54ecd4b78b"
     "9ec99408d93ba94741930a98f4ff6348bc11bed9cbed1085b6d6df6592c6cd15",
     // base^exp
     "317ad866ff57086acd6fd729595b7624fc8504a538edc9eb25b3a19cf23f62ac"
     "73279c2c8b6c7d907dd04f7880d937bf09e7d36dfb6398ad849b087232cc2008"
     "e53b8defd83518fc41d8fb478a787ec018cddd3363a2a3defcf25ac0bf34a0aa"
     "a00dca1fb7b0c90640c6b061643584ac59ae67502568e682d81d982337f0d8b3"
     "dc933ab5f3adbc6f4b77edba6d9bc73a44d260a2e3ecaf281f5411a24c52e190"
     "2d9dd305ca1f41ab686b0e24e99cd4f01f65ae71de72097442b74f83cb38c7ad"
     "f3fa8e9da0a155b859faa785e7a351e859e09db7b58d1baf69967c5e6295e1e0"
     "d6a5a89f5771b584400bdd8a30621d1ca232e235d9142d327b1338a037c5eef3",
     // 2^exp
     "a7ea02a7bad9cbec9d09ebae59071c8cc3e6f4ebed36dea71455777eab4718e9"
     "36b8d93353b1713c4ea1adc606fbf533e2e8cd36deb50f8ee664c9120ba052b8"
     "74bd2d7fc2f20e3b5c055821daa1fc048426d415d1e2dc7203aed4268737032b"
     "e574f1b0e46d00026c6dfe4b1118ad3ee7f5db41b0435469564f9375cdc6190b"
     "b1b8197943c09c0e039285f9393ba90273c4425d2b97972483524ac4479e5a73"
     "cb6562b7e3333da3b77eaed91c9c48c7880b793063b718fb05eb392e94bf80b5"
     "d11306505c2b5b672bcef1e704868ff5eedb50483862f3c6c21fb5aed410ebd1"
     "212e6d5b525006a1cdebcd6117cd79dea417e62d5ab39760f0d0c93412ae04ff",
    },
};

TEST(Mont64Test, KnownAnswerVectors) {
  for (const auto& v : kKnownAnswers) {
    const BigUint m = BigUint::from_hex(v.m);
    const BigUint base = BigUint::from_hex(v.base);
    const BigUint exp = BigUint::from_hex(v.exp);
    ASSERT_EQ(m.bit_length(), v.bits);
    EXPECT_EQ(mont64_modexp(base, BigUint(65537), m).to_hex(),
              BigUint::from_hex(v.base_pow_65537).to_hex())
        << "bits=" << v.bits;
    EXPECT_EQ(mont64_modexp(base, exp, m).to_hex(),
              BigUint::from_hex(v.base_pow_exp).to_hex())
        << "bits=" << v.bits;
    EXPECT_EQ(mont64_modexp(BigUint(2), exp, m).to_hex(),
              BigUint::from_hex(v.two_pow_exp).to_hex())
        << "bits=" << v.bits;
  }
}

TEST(Mont64Test, WidthSweepMatchesOracle) {
  // Every limb count from 1 to one past the widest compiled width, then a
  // 4096-bit modulus: exact fits, zero-padded widths and the runtime-width
  // path. Odd limb counts leave the top limb partly empty.
  Rng rng(0x5EE9);
  std::vector<std::size_t> limb_counts;
  for (std::size_t limbs = 1; limbs <= kMont64MaxFixedLimbs + 1; ++limbs) {
    limb_counts.push_back(limbs);
  }
  limb_counts.push_back(64);
  const std::size_t exp_lengths[] = {0,
                                     1,
                                     2,
                                     17,
                                     kMont64WindowBits - 1,
                                     kMont64WindowBits,
                                     kMont64WindowBits + 1};
  for (const std::size_t limbs : limb_counts) {
    const std::size_t bits = 64 * limbs - (limbs % 2 == 1 ? 29 : 0);
    const BigUint m = random_odd(rng, bits);
    ASSERT_EQ((m.bit_length() + 63) / 64, limbs);
    const std::vector<BigUint> bases = {
        BigUint(),
        BigUint(1),
        BigUint(2),
        m.sub(BigUint(1)),
        BigUint::random_below(rng, m),
        m.add(BigUint::random_bits(rng, bits / 2 + 1)),  // >= m
        BigUint::random_bits(rng, bits + 40),            // wider than m
    };
    for (const std::size_t len : exp_lengths) {
      const BigUint exp =
          len == 17 ? BigUint(65537) : exponent_of_length(rng, len);
      ASSERT_EQ(exp.bit_length(), len);
      for (std::size_t b = 0; b < bases.size(); ++b) {
        EXPECT_EQ(mont64_modexp(bases[b], exp, m),
                  bases[b].modexp_plain(exp, m))
            << "limbs=" << limbs << " exp_bits=" << len << " base#" << b;
      }
    }
  }
}

TEST(Mont64Test, PowTwoLadderAtEveryWidth) {
  // The DH generator is the fixed base 2 (crypto/dh.cpp); pow dispatches
  // it to the square-and-double ladder at every compiled width and at the
  // runtime width, and it must stay bit-identical.
  Rng rng(0x2222);
  for (const std::size_t limbs : {1, 2, 4, 8, 16, 32, 33}) {
    const std::size_t bits = 64 * static_cast<std::size_t>(limbs);
    const BigUint m = random_odd(rng, bits);
    for (const std::size_t len : {std::size_t{2}, std::size_t{17},
                                  std::min<std::size_t>(bits - 3, 256)}) {
      const BigUint exp = BigUint::random_bits(rng, len);
      EXPECT_EQ(mont64_modexp(BigUint(2), exp, m),
                BigUint(2).modexp_plain(exp, m))
          << "limbs=" << limbs << " exp_bits=" << len;
    }
  }
  // Tiny odd moduli exercise the reduction edge of the doubling step.
  for (std::uint64_t small : {3u, 5u, 7u, 9u}) {
    for (std::uint64_t e = 0; e < 12; ++e) {
      EXPECT_EQ(mont64_modexp(BigUint(2), BigUint(e), BigUint(small)),
                BigUint(2).modexp_plain(BigUint(e), BigUint(small)))
          << "m=" << small << " e=" << e;
    }
  }
}

TEST(Mont64Test, MatchesOracleOnRsaShapedInputs) {
  Rng rng(0xC1A0);
  const BigUint p = BigUint::generate_prime(rng, 256);
  const BigUint q = BigUint::generate_prime(rng, 256);
  const BigUint n = p.mul(q);
  for (int i = 0; i < 8; ++i) {
    const BigUint base = BigUint::random_below(rng, n);
    const BigUint exp = BigUint::random_bits(rng, 512);
    EXPECT_EQ(mont64_modexp(base, exp, n), base.modexp_plain(exp, n))
        << "i=" << i;
    // The CRT halves: a 512-bit base against a 256-bit prime.
    EXPECT_EQ(mont64_modexp(base, exp, p), base.modexp_plain(exp, p))
        << "i=" << i;
  }
}

TEST(Mont64Test, RejectsEvenModulus) {
  EXPECT_THROW((void)mont64_modexp(BigUint(3), BigUint(5), BigUint(42)),
               iotls::common::CryptoError);
  EXPECT_THROW((void)mont64_modexp(BigUint(3), BigUint(5), BigUint()),
               iotls::common::CryptoError);
}

TEST(Mont64Test, CachedContextIsReusableAcrossCalls) {
  // A warm context must not carry state between exponentiations.
  mont64_contexts_clear();
  Rng rng(0x5C8A);
  const BigUint m = random_odd(rng, 320);
  const BigUint base = BigUint::random_bits(rng, 300);
  const BigUint exp = BigUint::random_bits(rng, 160);
  const BigUint first = mont64_modexp(base, exp, m);
  (void)mont64_modexp(BigUint::random_bits(rng, 500),
                      BigUint::random_bits(rng, 64), m);
  (void)mont64_modexp(BigUint(2), BigUint::random_bits(rng, 64), m);
  EXPECT_EQ(mont64_context_count(), 1u);
  EXPECT_EQ(mont64_modexp(base, exp, m), first);
  mont64_contexts_clear();
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
