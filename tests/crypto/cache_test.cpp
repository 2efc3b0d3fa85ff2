// The crypto memoisation contract: caches may only change *when* work
// happens, never *what* comes out. Every test here compares cached against
// uncached results, including the Rng-stream transparency that the
// deterministic PKI depends on.
#include "crypto/cache.hpp"

#include <gtest/gtest.h>

#include <array>
#include <latch>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "crypto/rsa.hpp"
#include "obs/metrics.hpp"
#include "pki/ca.hpp"
#include "tls/client.hpp"
#include "tls/server.hpp"

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

/// Hits plus misses of one memo table, from the metrics registry.
std::uint64_t cache_lookups(const char* cache) {
  auto& reg = obs::MetricsRegistry::global();
  return reg.counter("iotls_crypto_cache_hits_total",
                     "Crypto memoisation hits by cache", "cache", cache)
             .value() +
         reg.counter("iotls_crypto_cache_misses_total",
                     "Crypto memoisation misses by cache", "cache", cache)
             .value();
}

/// Memoise `value` under `key` in `cache`: the memoised value on a hit,
/// `value` itself on a miss. Counts the computations in `computes`.
template <typename Value>
Value memoise(CryptoMemo<DigestKey, Value>& cache, const DigestKey& key,
              const Value& value, int* computes = nullptr) {
  return cache.get_or_compute([&] { return key; },
                              [&] {
                                if (computes != nullptr) ++*computes;
                                return value;
                              });
}

TEST_F(CryptoCacheTest, CryptoMemoStoresAndClears) {
  CryptoMemo<DigestKey, std::uint64_t> cache("test", 4);
  DigestKey key{};
  key[8] = 7;  // also exercises shard selection
  int computes = 0;
  EXPECT_EQ(memoise<std::uint64_t>(cache, key, 42, &computes), 42u);
  EXPECT_EQ(computes, 1);  // cold: computed and stored
  EXPECT_EQ(memoise<std::uint64_t>(cache, key, 99, &computes), 42u);
  EXPECT_EQ(computes, 1);  // warm: the stored value
  cache.clear();
  EXPECT_EQ(memoise<std::uint64_t>(cache, key, 99, &computes), 99u);
  EXPECT_EQ(computes, 2);  // cleared: computed afresh
}

TEST_F(CryptoCacheTest, CryptoMemoHoldsByteValues) {
  CryptoMemo<DigestKey, common::Bytes> cache("test_bytes", 4);
  DigestKey key{};
  key[0] = 1;
  (void)memoise(cache, key, to_bytes("signature"));
  EXPECT_EQ(memoise(cache, key, to_bytes("other")), to_bytes("signature"));
}

TEST_F(CryptoCacheTest, ShardNeverHoldsMoreThanItsCapacity) {
  // Every key below lands in one shard (same key[8]); the shard clears
  // itself at capacity instead of growing.
  CryptoMemo<DigestKey, common::Bytes> cache("test_bound", 8);
  for (std::uint8_t i = 0; i < 50; ++i) {
    DigestKey key{};
    key[0] = i;
    (void)memoise(cache, key, common::Bytes(64, i));
    EXPECT_LE(cache.size(), cache.max_per_shard());
  }
  // Spread over every shard, the whole table stays within kShards shards.
  for (std::size_t i = 0; i < 4000; ++i) {
    DigestKey key{};
    key[0] = static_cast<std::uint8_t>(i);
    key[1] = static_cast<std::uint8_t>(i >> 8);
    key[8] = static_cast<std::uint8_t>(i % 251);
    (void)memoise(cache, key, common::Bytes(64, 0));
  }
  using Table = common::Memo<DigestKey, common::Bytes, DigestKeyHash>;
  EXPECT_LE(cache.size(), cache.max_per_shard() * Table::kShards);

  // The shared certificate-signing memo has the same bound.
  EXPECT_EQ(cert_sign_cache().max_per_shard(), 256u);
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

TEST_F(CryptoCacheTest, ConcurrentKeygenMissesShareOneGeneration) {
  // Workers that ask for the same key at once, from one cold generator
  // state, wait for a single generation instead of each running their own:
  // one keypair miss, and every caller gets the same pair and post-state.
  const bool metrics_were_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::Counter& misses = obs::MetricsRegistry::global().counter(
      "iotls_crypto_cache_misses_total", "Crypto memoisation misses by cache",
      "cache", "keypair");
  const std::uint64_t misses_before = misses.value();

  constexpr std::size_t kWorkers = 8;
  std::latch start(kWorkers);
  std::array<RsaKeyPair, kWorkers> pairs;
  std::array<std::uint64_t, kWorkers> next_draws{};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kWorkers; ++t) {
    workers.emplace_back([&, t] {
      common::Rng rng(31337);
      start.arrive_and_wait();
      pairs[t] = rsa_generate(rng, 512);
      next_draws[t] = rng.next_u64();
    });
  }
  for (auto& worker : workers) worker.join();
  const std::uint64_t generations = misses.value() - misses_before;
  obs::set_metrics_enabled(metrics_were_enabled);

  EXPECT_EQ(generations, 1u);
  set_crypto_cache_enabled(false);
  common::Rng plain_rng(31337);
  const RsaKeyPair plain = rsa_generate(plain_rng, 512);
  const std::uint64_t plain_next = plain_rng.next_u64();
  for (std::size_t t = 0; t < kWorkers; ++t) {
    EXPECT_EQ(pairs[t].priv, plain.priv) << "worker " << t;
    EXPECT_EQ(next_draws[t], plain_next) << "worker " << t;
  }
}

TEST_F(CryptoCacheTest, HandshakeSigningBypassesCertSignMemo) {
  // ServerKeyExchange signatures cover both hello randoms, so they never
  // repeat: rsa_sign stays a pure primitive and only certificate issuance
  // consults the memo.
  const bool metrics_were_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  common::Rng rng(4711);
  const pki::CertificateAuthority ca(
      x509::DistinguishedName{"Memo Root", "Tests", "US"}, rng);
  const RsaKeyPair server_keys = rsa_generate(rng, 512);
  const std::uint64_t before_issue = cache_lookups("cert_sign");
  const x509::Certificate leaf =
      ca.issue_server_cert("memo.example.com", server_keys.pub);
  const std::uint64_t before_handshakes = cache_lookups("cert_sign");
  EXPECT_EQ(before_handshakes, before_issue + 1);

  pki::RootStore roots;
  roots.add(ca.root());
  for (const std::uint16_t suite :
       {tls::TLS_RSA_WITH_AES_128_GCM_SHA256,
        tls::TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256}) {
    tls::ServerConfig scfg;
    scfg.chain = {leaf, ca.root()};
    scfg.keys = server_keys;
    scfg.seed = 5;
    tls::Transport transport(std::make_shared<tls::TlsServer>(scfg));
    tls::ClientConfig ccfg;
    ccfg.cipher_suites = {suite};
    tls::TlsClient client(ccfg, &roots, common::Rng(6),
                          common::SimDate{2021, 3, 1});
    const auto result = client.connect(transport, "memo.example.com", {});
    EXPECT_TRUE(result.success()) << tls::outcome_name(result.outcome);
  }
  EXPECT_EQ(cache_lookups("cert_sign"), before_handshakes);
  obs::set_metrics_enabled(metrics_were_enabled);
}

}  // namespace
}  // namespace iotls::crypto
