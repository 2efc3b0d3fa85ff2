// Process-wide, seed-deterministic crypto memoisation.
//
// The study re-verifies the same certificate chains and re-generates the
// same deterministic keypairs thousands of times (per-device sandboxes each
// rebuild the cloud farm; the passive generator walks 24 monthly snapshots
// over the same PKI). These caches amortise that work WITHOUT changing any
// output: every cached value equals the value the uncached computation
// would produce, so tables/figures/traces are byte-identical with caches on
// or off, at any thread count.
//
//   - signature-verification cache (rsa.cpp): keyed by a SHA-256 over
//     (modulus, exponent, message digest, signature digest).
//   - chain-verification cache (x509/verify.cpp): keyed by chain bytes +
//     resolved issuer keys + verification policy + the simtime validity
//     window (each cert's before/within/after state at `now`), so expiry
//     semantics are unchanged.
//   - keypair cache (rsa.cpp): keyed by the generator state + modulus bits;
//     a hit replays the generator's consumption exactly via Rng snapshots.
//
// All tables are sharded and mutex-guarded; hit/miss counts export as
// iotls_crypto_cache_{hits,misses}_total{cache=...} through the metrics
// registry. The IOTLS_CRYPTO_CACHE env knob (strict parsing, 0 = disable)
// seeds the master switch; tests flip it with set_crypto_cache_enabled().
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>

namespace iotls::crypto {

/// Master switch. Defaults from IOTLS_CRYPTO_CACHE (unset/nonzero = on).
bool crypto_cache_enabled();
void set_crypto_cache_enabled(bool enabled);

/// Drop every cached entry (signature, chain, keypair). Tests use this to
/// exercise cold/warm behaviour; values re-derive identically afterwards.
void crypto_caches_clear();

/// Register a hit/miss with the iotls_crypto_cache_* counter families
/// (no-op while obs::metrics_enabled() is off, matching the other
/// instrumentation sites).
void count_cache_hit(const char* cache_name);
void count_cache_miss(const char* cache_name);

/// A sharded digest -> u64 memo table. Shard picked from a key byte not
/// used by the in-shard hash; each shard is generational — when it reaches
/// capacity it is cleared rather than evicted entry-by-entry, which keeps
/// memory bounded on workloads with unbounded distinct keys (e.g. the
/// certificate chains of a long run of freshly issued server identities).
class DigestCache {
 public:
  using Key = std::array<std::uint8_t, 32>;

  explicit DigestCache(const char* name) : name_(name) {}

  std::optional<std::uint64_t> lookup(const Key& key);
  void store(const Key& key, std::uint64_t value);
  void clear();

 private:
  static constexpr std::size_t kShards = 16;
  static constexpr std::size_t kMaxPerShard = 1 << 15;

  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::uint64_t v = 0;
      for (int i = 0; i < 8; ++i) v = (v << 8) | k[static_cast<std::size_t>(i)];
      return static_cast<std::size_t>(v);
    }
  };
  struct Shard {
    std::mutex mutex;
    std::unordered_map<Key, std::uint64_t, KeyHash> map;
  };

  Shard& shard(const Key& key) { return shards_[key[8] % kShards]; }

  const char* name_;
  std::array<Shard, kShards> shards_;
};

/// The shared instances. Lookup/store already count hits/misses under the
/// instance's name; callers only gate on crypto_cache_enabled().
DigestCache& sig_verify_cache();
DigestCache& chain_verify_cache();

namespace detail {
/// Implemented in rsa.cpp (the keypair table's value type lives there);
/// called by crypto_caches_clear().
void keypair_cache_clear();
}  // namespace detail

}  // namespace iotls::crypto
