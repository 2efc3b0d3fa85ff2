#include "crypto/bignum.hpp"

#include <gtest/gtest.h>

namespace iotls::crypto {
namespace {

TEST(BigUint, ZeroProperties) {
  BigUint z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.bit_length(), 0u);
  EXPECT_EQ(z.to_hex(), "0");
  EXPECT_FALSE(z.is_odd());
}

TEST(BigUint, FromU64) {
  BigUint v(0x1122334455667788ULL);
  EXPECT_EQ(v.to_hex(), "1122334455667788");
  EXPECT_EQ(v.low_u64(), 0x1122334455667788ULL);
  EXPECT_EQ(v.bit_length(), 61u);
}

TEST(BigUint, HexRoundTrip) {
  const std::string hex = "deadbeefcafebabe0123456789abcdef";
  EXPECT_EQ(BigUint::from_hex(hex).to_hex(), hex);
}

TEST(BigUint, FromBytesLeadingZeros) {
  const common::Bytes b = {0x00, 0x00, 0x01, 0x02};
  EXPECT_EQ(BigUint::from_bytes(b).to_hex(), "102");
}

TEST(BigUint, ToBytesWidth) {
  BigUint v(0x1234);
  const auto b = v.to_bytes(4);
  const common::Bytes expected = {0x00, 0x00, 0x12, 0x34};
  EXPECT_EQ(b, expected);
  EXPECT_THROW(v.to_bytes(1), common::CryptoError);
}

TEST(BigUint, AddCarries) {
  BigUint a = BigUint::from_hex("ffffffffffffffff");
  BigUint sum = a.add(BigUint(1));
  EXPECT_EQ(sum.to_hex(), "10000000000000000");
}

TEST(BigUint, SubBorrows) {
  BigUint a = BigUint::from_hex("10000000000000000");
  EXPECT_EQ(a.sub(BigUint(1)).to_hex(), "ffffffffffffffff");
}

TEST(BigUint, SubUnderflowThrows) {
  EXPECT_THROW(BigUint(1).sub(BigUint(2)), common::CryptoError);
}

TEST(BigUint, MulKnownProduct) {
  BigUint a = BigUint::from_hex("ffffffff");
  BigUint b = BigUint::from_hex("ffffffff");
  EXPECT_EQ(a.mul(b).to_hex(), "fffffffe00000001");
}

TEST(BigUint, MulByZero) {
  BigUint a = BigUint::from_hex("123456");
  EXPECT_TRUE(a.mul(BigUint()).is_zero());
}

TEST(BigUint, DivModKnown) {
  BigUint a = BigUint::from_hex("deadbeef");
  auto [q, r] = a.divmod(BigUint(1000));
  EXPECT_EQ(q.low_u64(), 0xDEADBEEFULL / 1000);
  EXPECT_EQ(r.low_u64(), 0xDEADBEEFULL % 1000);
}

TEST(BigUint, DivModKnownAtDigitBoundaries) {
  // Knuth D's corrections fire for about 2 in 2^64 random operands at
  // 64-bit digits, so these are built to reach them. The answers do not
  // depend on the digit width.
  struct Case {
    const char* a;
    const char* b;
    const char* q;
    const char* r;
  };
  const Case cases[] = {
      // Top limb 0x8000...0 (no normalising shift); qhat = 2 is one too
      // large and the D6 add-back fixes it.
      {"1000000000000000000000000000000000000000000000001",
       "800000000000000000000000000000000000000000000001", "1",
       "800000000000000000000000000000000000000000000000"},
      // Top limb all ones: qhat clamps from b, the qhat correction loop
      // runs, and one step still adds back.
      {"ffffffffffffffff0000000000000001ffffffffffffffff8000000000000001"
       "8000000000000000",
       "ffffffffffffffff0000000000000003fffffffffffffffe",
       "fffffffffffffffffffffffffffffffd",
       "fffffffffffffffe800000000000000d7ffffffffffffffa"},
      // Normalising shift, then qhat >= b, the correction loop and an
      // add-back.
      {"8000000000000001ffffffffffffffff0000000000000001ffffffffffffffff"
       "0000000000000000",
       "10000000000000003ffffffffffffffff",
       "7fffffffffffffffffffffffffffffff8000000000000003",
       "fffffffffffffff28000000000000003"},
      // The correction loop alone.
      {"ffffffff00000000000000020000000000000001", "ffffffffffffffffffffffff",
       "ffffffff00000000", "2ffffffff00000001"},
      // Single-limb divisors at and above 2^32.
      {"fedcba9876543210fedcba9876543210fedcba98", "100000000",
       "fedcba9876543210fedcba9876543210", "fedcba98"},
      {"fedcba9876543210fedcba9876543210fedcba98", "ffffffffffffffc5",
       "fedcba987654324bbbbbbbbb", "bbbbc9854320feb1"},
  };
  for (const Case& c : cases) {
    const BigUint a = BigUint::from_hex(c.a);
    const BigUint b = BigUint::from_hex(c.b);
    const auto [q, r] = a.divmod(b);
    EXPECT_EQ(q.to_hex(), c.q) << c.a << " / " << c.b;
    EXPECT_EQ(r.to_hex(), c.r) << c.a << " / " << c.b;
    EXPECT_EQ(q.mul(b).add(r), a) << c.a << " / " << c.b;
    EXPECT_TRUE(r < b) << c.a << " / " << c.b;
  }
}

TEST(BigUint, DivModIdentity) {
  common::Rng rng(77);
  for (int i = 0; i < 30; ++i) {
    const BigUint a = BigUint::random_bits(rng, 200);
    const BigUint b = BigUint::random_bits(rng, 90);
    auto [q, r] = a.divmod(b);
    EXPECT_TRUE(r < b);
    EXPECT_EQ(q.mul(b).add(r), a);
  }
}

TEST(BigUint, DivideByZeroThrows) {
  EXPECT_THROW(BigUint(5).divmod(BigUint()), common::CryptoError);
}

TEST(BigUint, Shifts) {
  BigUint a = BigUint::from_hex("1");
  EXPECT_EQ(a.shift_left(100).bit_length(), 101u);
  EXPECT_EQ(a.shift_left(100).shift_right(100), a);
  EXPECT_TRUE(a.shift_right(1).is_zero());
}

TEST(BigUint, ShiftRoundTripRandom) {
  common::Rng rng(5);
  const BigUint v = BigUint::random_bits(rng, 130);
  for (std::size_t s : {1u, 31u, 32u, 33u, 64u, 127u}) {
    EXPECT_EQ(v.shift_left(s).shift_right(s), v) << s;
  }
}

TEST(BigUint, Compare) {
  EXPECT_LT(BigUint(1), BigUint(2));
  EXPECT_GT(BigUint::from_hex("100000000"), BigUint::from_hex("ffffffff"));
  EXPECT_EQ(BigUint(7), BigUint(7));
}

TEST(BigUint, ModexpSmallKnown) {
  // 4^13 mod 497 = 445.
  EXPECT_EQ(BigUint(4).modexp(BigUint(13), BigUint(497)).low_u64(), 445u);
}

TEST(BigUint, ModexpFermat) {
  // a^(p-1) = 1 mod p for prime p not dividing a.
  const BigUint p(1000003);
  EXPECT_EQ(BigUint(12345).modexp(p.sub(BigUint(1)), p), BigUint(1));
}

TEST(BigUint, ModexpZeroExponent) {
  EXPECT_EQ(BigUint(9).modexp(BigUint(), BigUint(7)), BigUint(1));
}

TEST(BigUint, Gcd) {
  EXPECT_EQ(BigUint::gcd(BigUint(48), BigUint(36)), BigUint(12));
  EXPECT_EQ(BigUint::gcd(BigUint(17), BigUint(5)), BigUint(1));
  EXPECT_EQ(BigUint::gcd(BigUint(0), BigUint(9)), BigUint(9));
}

TEST(BigUint, ModInv) {
  const BigUint m(1000003);
  common::Rng rng(13);
  for (int i = 0; i < 20; ++i) {
    const BigUint a(rng.range(2, 999999));
    const BigUint inv = BigUint::modinv(a, m);
    EXPECT_EQ(a.mul(inv).mod(m), BigUint(1));
  }
}

TEST(BigUint, ModInvNotInvertibleThrows) {
  EXPECT_THROW(BigUint::modinv(BigUint(6), BigUint(9)), common::CryptoError);
}

TEST(BigUint, RandomBelowRespectsBound) {
  common::Rng rng(31);
  const BigUint bound = BigUint::from_hex("1000");
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(BigUint::random_below(rng, bound) < bound);
  }
}

TEST(BigUint, RandomBitsExactWidth) {
  common::Rng rng(37);
  for (std::size_t bits : {8u, 33u, 100u, 256u}) {
    EXPECT_EQ(BigUint::random_bits(rng, bits).bit_length(), bits);
  }
}

TEST(BigUint, PrimalityKnownPrimes) {
  common::Rng rng(41);
  EXPECT_TRUE(BigUint(2).is_probable_prime(rng));
  EXPECT_TRUE(BigUint(97).is_probable_prime(rng));
  EXPECT_TRUE(BigUint(1000003).is_probable_prime(rng));
  // 2^61 - 1 is a Mersenne prime.
  EXPECT_TRUE(BigUint((1ULL << 61) - 1).is_probable_prime(rng));
}

TEST(BigUint, PrimalityKnownComposites) {
  common::Rng rng(43);
  EXPECT_FALSE(BigUint(1).is_probable_prime(rng));
  EXPECT_FALSE(BigUint(100).is_probable_prime(rng));
  EXPECT_FALSE(BigUint(1000001).is_probable_prime(rng));  // 101 * 9901
  // Carmichael number 561 must be rejected.
  EXPECT_FALSE(BigUint(561).is_probable_prime(rng));
}

TEST(BigUint, GeneratePrimeHasRequestedBits) {
  common::Rng rng(47);
  const BigUint p = BigUint::generate_prime(rng, 96);
  EXPECT_EQ(p.bit_length(), 96u);
  EXPECT_TRUE(p.is_probable_prime(rng));
}

TEST(BigUint, PrimalityExactAcrossSieveBoundary) {
  // Exact below 1024; above, the small-prime sieve and Miller-Rabin must
  // agree with trial division, sieve primes themselves included.
  common::Rng rng(45);
  for (std::uint64_t n = 0; n < 2048; ++n) {
    bool prime = n >= 2;
    for (std::uint64_t p = 2; p * p <= n && prime; ++p) prime = n % p != 0;
    EXPECT_EQ(BigUint(n).is_probable_prime(rng), prime) << n;
  }
}

/// Textbook Miller-Rabin with no trial division or sieve.
bool reference_miller_rabin(const BigUint& n, common::Rng& rng, int rounds) {
  const BigUint one(1);
  const BigUint two(2);
  const BigUint n_minus_1 = n.sub(one);
  BigUint d = n_minus_1;
  std::size_t r = 0;
  while (!d.is_odd()) {
    d = d.shift_right(1);
    ++r;
  }
  for (int round = 0; round < rounds; ++round) {
    BigUint x = two.add(BigUint::random_below(rng, n_minus_1.sub(two)))
                    .modexp(d, n);
    bool composite = x != one && x != n_minus_1;
    for (std::size_t i = 1; i < r && composite; ++i) {
      x = x.mul(x).mod(n);
      composite = x != n_minus_1;
    }
    if (composite) return false;
  }
  return true;
}

/// generate_prime without the sieve: Miller-Rabin on every odd candidate,
/// with the same per-candidate bases. `candidates` counts them.
BigUint reference_prime(common::Rng& rng, std::size_t bits,
                        std::uint64_t& candidates) {
  const std::uint64_t mr_seed = rng.next_u64();
  for (candidates = 1;; ++candidates) {
    BigUint candidate = BigUint::random_bits(rng, bits);
    if (!candidate.is_odd()) candidate = candidate.add(BigUint(1));
    common::Rng mr_rng(common::split_seed(mr_seed, candidates));
    if (reference_miller_rabin(candidate, mr_rng, 12)) return candidate;
  }
}

TEST(BigUint, GeneratePrimeIgnoresSieve) {
  for (const std::size_t bits : {64u, 96u, 256u}) {
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
      common::Rng sieved(seed);
      common::Rng plain(seed);
      std::uint64_t candidates = 0;
      const BigUint p = BigUint::generate_prime(sieved, bits);
      EXPECT_EQ(p, reference_prime(plain, bits, candidates))
          << bits << " bits, seed " << seed;
      EXPECT_EQ(sieved.state(), plain.state());
      // The stream advanced by exactly 1 + k * ceil(bits / 64) words.
      common::Rng counted(seed);
      const std::uint64_t words = 1 + candidates * ((bits + 63) / 64);
      for (std::uint64_t i = 0; i < words; ++i) (void)counted.next_u64();
      EXPECT_EQ(sieved.state(), counted.state())
          << bits << " bits, seed " << seed;
    }
  }
}

TEST(BigUint, FromBytesToBytesRoundTripsFixedWidthWithLeadingZeros) {
  // Signature buffers are fixed-width (k = modulus bytes) and may start
  // with zero bytes; from_bytes ∘ to_bytes(k) must reproduce the buffer
  // exactly — rsa_verify's cache key and the zero-leading-signature
  // acceptance both ride on this.
  common::Rng rng(61);
  for (int zeros = 0; zeros < 4; ++zeros) {
    for (int trial = 0; trial < 25; ++trial) {
      const std::size_t k = 8 + static_cast<std::size_t>(rng.next_u64() % 25);
      common::Bytes buf(k, 0);
      for (std::size_t i = static_cast<std::size_t>(zeros); i < k; ++i) {
        buf[i] = static_cast<std::uint8_t>(rng.next_u64());
      }
      if (static_cast<std::size_t>(zeros) < k && buf[zeros] == 0) {
        buf[zeros] = 1;  // keep the zero-prefix length exact
      }
      const BigUint v = BigUint::from_bytes(buf);
      ASSERT_EQ(v.to_bytes(k), buf) << "k=" << k << " zeros=" << zeros;
    }
  }
  // All-zero buffer: the integer 0 padded back out.
  const common::Bytes zero(12, 0);
  EXPECT_EQ(BigUint::from_bytes(zero).to_bytes(12), zero);
}

TEST(BigUint, MulCommutesAndAssociates) {
  common::Rng rng(53);
  const BigUint a = BigUint::random_bits(rng, 70);
  const BigUint b = BigUint::random_bits(rng, 90);
  const BigUint c = BigUint::random_bits(rng, 50);
  EXPECT_EQ(a.mul(b), b.mul(a));
  EXPECT_EQ(a.mul(b).mul(c), a.mul(b.mul(c)));
}

TEST(BigUint, DistributiveLaw) {
  common::Rng rng(59);
  const BigUint a = BigUint::random_bits(rng, 64);
  const BigUint b = BigUint::random_bits(rng, 64);
  const BigUint c = BigUint::random_bits(rng, 64);
  EXPECT_EQ(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
}

}  // namespace
}  // namespace iotls::crypto
