// Process-wide, seed-deterministic crypto memoisation.
//
// The study re-verifies the same certificate chains, re-signs the same
// certificates and re-generates the same deterministic keypairs thousands
// of times (per-device sandboxes each rebuild the cloud farm, whose keys
// and certificates are pure functions of the hostname; the passive
// generator walks 24 monthly snapshots over the same PKI; every
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
//     returns the bytes a fresh signature would, and pki issuance derives
//     each serial from the certificate's content, so a re-issued endpoint
//     certificate hits too. It holds at most 16 x 256 signatures (a cold
//     seed-42 study fills 2,007, universe roots included): a bound sized
//     like the verify caches would carry every earlier study's forgeries
//     along and grow peak RSS. rsa_sign itself stays unmemoised
//     (ServerKeyExchange signatures cover fresh randoms).
//   - keypair cache (rsa.cpp): keyed by the generator state + modulus bits;
//     a hit replays the generator's consumption exactly via Rng snapshots.
//
// Each is a common::Memo (common/memo.hpp): sharded, generational and
// single-flight, so workers that miss one key at once compute it once.
// Hit/miss counts export as iotls_crypto_cache_{hits,misses}_total{cache=...}
// through the metrics registry. The IOTLS_CRYPTO_CACHE env knob (strict
// parsing, 0 = disable) seeds the master switch; tests flip it with
// set_crypto_cache_enabled().
#pragma once

#include <array>
#include <cstdint>
#include <mutex>

#include "common/bytes.hpp"
#include "common/memo.hpp"
#include "common/rng.hpp"
#include "crypto/rsa.hpp"

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

/// Bytes 1..8 of the digest, big-endian: its low byte, key[8], picks the
/// shard.
struct DigestKeyHash {
  std::size_t operator()(const DigestKey& k) const {
    std::uint64_t v = 0;
    for (std::size_t i = 1; i <= 8; ++i) v = (v << 8) | k[i];
    return static_cast<std::size_t>(v);
  }
};

/// A crypto memo table: a common::Memo with its hit/miss counters, behind
/// the master switch.
template <typename Key, typename Value, typename Hash = DigestKeyHash>
class CryptoMemo {
 public:
  CryptoMemo(const char* name, std::size_t max_per_shard)
      : counters_(name), memo_(max_per_shard) {}

  /// `compute()` itself while the caches are off. Otherwise the value
  /// memoised for `key_of()`, computed on a miss; a caller that waits for
  /// another's computation counts a hit. `key_of` runs only while the
  /// caches are on, so the uncached path pays no key digest.
  template <typename KeyFn, typename Fn>
  Value get_or_compute(KeyFn&& key_of, Fn&& compute) {
    if (!crypto_cache_enabled()) return compute();
    bool computed = false;
    Value value = memo_.get_or_compute(key_of(), [&] {
      computed = true;
      return compute();
    });
    counters_.count(!computed);
    return value;
  }

  void clear() { memo_.clear(); }
  /// Entries currently held, over all shards.
  [[nodiscard]] std::size_t size() { return memo_.size(); }
  [[nodiscard]] std::size_t max_per_shard() const {
    return memo_.max_per_shard();
  }

 private:
  CacheCounters counters_;
  common::Memo<Key, Value, Hash> memo_;
};

/// The keypair memo's key: a generation is a pure function of the
/// generator state and the modulus size.
struct KeypairKey {
  common::Rng::State state;
  std::size_t bits;

  bool operator==(const KeypairKey& other) const = default;
};

struct KeypairKeyHash {
  std::size_t operator()(const KeypairKey& k) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::uint64_t word : k.state) {
      h = (h ^ word) * 0x100000001b3ULL;
    }
    h = (h ^ k.bits) * 0x100000001b3ULL;
    return static_cast<std::size_t>(h);
  }
};

/// A memoised generation: the pair and the generator state it left.
struct KeypairEntry {
  RsaKeyPair pair;
  common::Rng::State post_state;
};

/// The shared instances.
CryptoMemo<DigestKey, std::uint64_t>& sig_verify_cache();
CryptoMemo<DigestKey, std::uint64_t>& chain_verify_cache();
CryptoMemo<DigestKey, common::Bytes>& cert_sign_cache();
CryptoMemo<KeypairKey, KeypairEntry, KeypairKeyHash>& keypair_cache();

}  // namespace iotls::crypto
