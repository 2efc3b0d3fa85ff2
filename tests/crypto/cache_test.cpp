// The crypto memoisation contract: caches may only change *when* work
// happens, never *what* comes out. Every test here compares cached against
// uncached results, including the Rng-stream transparency that the
// deterministic PKI depends on.
#include "crypto/cache.hpp"

#include <gtest/gtest.h>

#include <array>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "crypto/rsa.hpp"

namespace iotls::crypto {
namespace {

using common::to_bytes;

/// Every test leaves the switch the way the process started (enabled
/// unless IOTLS_CRYPTO_CACHE=0) and the tables empty.
class CryptoCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = crypto_cache_enabled();
    set_crypto_cache_enabled(true);
    crypto_caches_clear();
  }
  void TearDown() override {
    set_crypto_cache_enabled(was_enabled_);
    crypto_caches_clear();
  }

  bool was_enabled_ = true;
};

TEST_F(CryptoCacheTest, DigestCacheStoresAndClears) {
  DigestCache cache("test");
  DigestCache::Key key{};
  key[8] = 7;  // also exercises shard selection
  EXPECT_FALSE(cache.lookup(key).has_value());
  cache.store(key, 42);
  ASSERT_TRUE(cache.lookup(key).has_value());
  EXPECT_EQ(*cache.lookup(key), 42u);
  cache.clear();
  EXPECT_FALSE(cache.lookup(key).has_value());
}

TEST_F(CryptoCacheTest, KeygenHitRestoresRngStreamExactly) {
  // The property the PKI depends on: after a cache hit, the generator must
  // sit exactly where a real generation would have left it, so the *next*
  // draw (a CA's serial prefix, the next CA on the stream) is identical.
  common::Rng cold(4242);
  const RsaKeyPair first = rsa_generate(cold, 256);
  const std::uint64_t cold_next = cold.next_u64();

  common::Rng warm(4242);
  const RsaKeyPair second = rsa_generate(warm, 256);  // cache hit
  const std::uint64_t warm_next = warm.next_u64();

  EXPECT_EQ(first.priv, second.priv);
  EXPECT_EQ(cold_next, warm_next);
}

TEST_F(CryptoCacheTest, KeygenMatchesUncachedGeneration) {
  common::Rng cached_rng(555);
  const RsaKeyPair cached = rsa_generate(cached_rng, 256);

  set_crypto_cache_enabled(false);
  common::Rng plain_rng(555);
  const RsaKeyPair plain = rsa_generate(plain_rng, 256);

  EXPECT_EQ(cached.priv, plain.priv);
  EXPECT_EQ(cached.pub, plain.pub);
  EXPECT_EQ(cached_rng.next_u64(), plain_rng.next_u64());
}

TEST_F(CryptoCacheTest, VerifyCachedEqualsUncachedForGoodAndBadSignatures) {
  common::Rng rng(606);
  const RsaKeyPair kp = rsa_generate(rng, 512);
  const auto msg = to_bytes("cache me");
  const auto sig = rsa_sign(kp.priv, msg);
  auto bad = sig;
  bad[3] ^= 0x40;

  // Cold then warm: same verdicts both times.
  EXPECT_TRUE(rsa_verify(kp.pub, msg, sig));
  EXPECT_TRUE(rsa_verify(kp.pub, msg, sig));
  EXPECT_FALSE(rsa_verify(kp.pub, msg, bad));
  EXPECT_FALSE(rsa_verify(kp.pub, msg, bad));

  set_crypto_cache_enabled(false);
  EXPECT_TRUE(rsa_verify(kp.pub, msg, sig));
  EXPECT_FALSE(rsa_verify(kp.pub, msg, bad));

  // The memo-free variant (ServerKeyExchange signatures) agrees, including
  // on a signature one byte wider than the modulus.
  set_crypto_cache_enabled(true);
  EXPECT_TRUE(rsa_verify_uncached(kp.pub, msg, sig));
  EXPECT_FALSE(rsa_verify_uncached(kp.pub, msg, bad));
  auto wide = sig;
  wide.insert(wide.begin(), 0x00);
  EXPECT_FALSE(rsa_verify_uncached(kp.pub, msg, wide));
}

TEST_F(CryptoCacheTest, ClearForcesRederivationWithSameResult) {
  common::Rng rng(707);
  const RsaKeyPair kp = rsa_generate(rng, 512);
  const auto msg = to_bytes("rederive");
  const auto sig = rsa_sign(kp.priv, msg);
  EXPECT_TRUE(rsa_verify(kp.pub, msg, sig));
  crypto_caches_clear();
  EXPECT_TRUE(rsa_verify(kp.pub, msg, sig));
}

TEST_F(CryptoCacheTest, SwitchToggleTakesEffect) {
  EXPECT_TRUE(crypto_cache_enabled());
  set_crypto_cache_enabled(false);
  EXPECT_FALSE(crypto_cache_enabled());
  set_crypto_cache_enabled(true);
  EXPECT_TRUE(crypto_cache_enabled());
}

TEST_F(CryptoCacheTest, ConcurrentHammeringIsSafeAndConsistent) {
  // Shared keys, eight threads re-verifying and re-generating: exercises
  // every shard mutex (run under TSan in CI).
  common::Rng rng(808);
  const RsaKeyPair kp = rsa_generate(rng, 512);
  const auto msg = to_bytes("parallel");
  const auto sig = rsa_sign(kp.priv, msg);

  std::vector<std::thread> threads;
  std::array<bool, 8> ok{};
  for (std::size_t t = 0; t < ok.size(); ++t) {
    threads.emplace_back([&, t] {
      bool all = true;
      for (int i = 0; i < 50; ++i) {
        all = all && rsa_verify(kp.pub, msg, sig);
        common::Rng worker(9000 + t % 4);  // collide across threads
        const RsaKeyPair pair = rsa_generate(worker, 256);
        all = all && pair.priv.has_crt();
        if (i % 16 == 0) crypto_caches_clear();
      }
      ok[t] = all;
    });
  }
  for (auto& th : threads) th.join();
  for (const bool t_ok : ok) EXPECT_TRUE(t_ok);
}

}  // namespace
}  // namespace iotls::crypto
