// Process-wide, seed-deterministic crypto memoisation.
//
// The study re-verifies the same certificate chains, re-signs the same
// forged certificates and re-generates the same deterministic keypairs
// thousands of times (per-device sandboxes each rebuild the cloud farm; the
// passive generator walks 24 monthly snapshots over the same PKI; every
// intercepted connection and root-store probe forges a chain). These caches
// amortise that work WITHOUT changing any output: every cached value equals
// the value the uncached computation would produce, so tables/figures/
// traces are byte-identical with caches on or off, at any thread count.
//
//   - signature-verification cache (rsa.cpp): keyed by a SHA-256 over
//     (modulus, exponent, message digest, signature digest).
//   - chain-verification cache (x509/verify.cpp): keyed by chain bytes +
//     resolved issuer keys + verification policy + the simtime validity
//     window (each cert's before/within/after state at `now`), so expiry
//     semantics are unchanged.
//   - certificate-signing cache (x509/certificate.cpp): keyed by a SHA-256
//     over (issuer modulus, issuer private exponent, TBS digest); the value
//     is the signature. PKCS#1 v1.5 signing is deterministic, so a hit
//     returns the bytes a fresh signature would. It holds at most 16 x 256
//     signatures: a bound sized like the verify caches would carry every
//     earlier study's forgeries along and grow peak RSS. rsa_sign itself
//     stays unmemoised (ServerKeyExchange signatures cover fresh randoms).
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

#include "common/bytes.hpp"

namespace iotls::obs {
class Counter;
}  // namespace iotls::obs

namespace iotls::crypto {

/// Master switch. Defaults from IOTLS_CRYPTO_CACHE (unset/nonzero = on).
bool crypto_cache_enabled();
void set_crypto_cache_enabled(bool enabled);

/// Drop every cached entry (signature, chain, certificate, keypair). Tests
/// use this to exercise cold/warm behaviour; values re-derive identically
/// afterwards.
void crypto_caches_clear();

/// One cache's hit and miss counters in the iotls_crypto_cache_* families.
/// They are looked up in the metrics registry once, on the first count,
/// not on every lookup.
class CacheCounters {
 public:
  explicit CacheCounters(const char* cache_name) : name_(cache_name) {}

  /// Count a hit or a miss (no-op while obs::metrics_enabled() is off,
  /// matching the other instrumentation sites).
  void count(bool hit);

 private:
  const char* name_;
  std::once_flag resolved_;
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
};

/// The SHA-256 every digest-keyed memo table is addressed by.
using DigestKey = std::array<std::uint8_t, 32>;

/// A sharded digest -> Value memo table. Shard picked from a key byte not
/// used by the in-shard hash; each shard is generational — when it reaches
/// `max_per_shard` entries it is cleared rather than evicted entry-by-entry,
/// which keeps memory bounded on workloads with unbounded distinct keys
/// (e.g. the certificate chains of a long run of freshly issued server
/// identities). Instantiated for u64 verdicts and Bytes signatures.
template <typename Value>
class DigestCache {
 public:
  static constexpr std::size_t kShards = 16;

  DigestCache(const char* name, std::size_t max_per_shard)
      : counters_(name), max_per_shard_(max_per_shard) {}

  std::optional<Value> lookup(const DigestKey& key);
  void store(const DigestKey& key, const Value& value);
  void clear();
  /// Entries currently held, over all shards.
  [[nodiscard]] std::size_t size();
  [[nodiscard]] std::size_t max_per_shard() const { return max_per_shard_; }

 private:
  struct KeyHash {
    std::size_t operator()(const DigestKey& k) const {
      std::uint64_t v = 0;
      for (int i = 0; i < 8; ++i) v = (v << 8) | k[static_cast<std::size_t>(i)];
      return static_cast<std::size_t>(v);
    }
  };
  struct Shard {
    std::mutex mutex;
    std::unordered_map<DigestKey, Value, KeyHash> map;
  };

  Shard& shard(const DigestKey& key) { return shards_[key[8] % kShards]; }

  CacheCounters counters_;
  std::size_t max_per_shard_;
  std::array<Shard, kShards> shards_;
};

extern template class DigestCache<std::uint64_t>;
extern template class DigestCache<common::Bytes>;

/// The shared instances. Lookup/store already count hits/misses under the
/// instance's name; callers only gate on crypto_cache_enabled().
DigestCache<std::uint64_t>& sig_verify_cache();
DigestCache<std::uint64_t>& chain_verify_cache();
DigestCache<common::Bytes>& cert_sign_cache();

namespace detail {
/// Implemented in rsa.cpp (the keypair table's value type lives there);
/// called by crypto_caches_clear().
void keypair_cache_clear();
}  // namespace detail

}  // namespace iotls::crypto
