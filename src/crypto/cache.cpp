#include "crypto/cache.hpp"

#include <atomic>

#include "common/env.hpp"
#include "obs/metrics.hpp"

namespace iotls::crypto {

namespace {

std::atomic<bool>& cache_switch() {
  static std::atomic<bool> enabled{
      common::strict_env_long("IOTLS_CRYPTO_CACHE", 1) != 0};
  return enabled;
}

}  // namespace

bool crypto_cache_enabled() {
  return cache_switch().load(std::memory_order_relaxed);
}

void set_crypto_cache_enabled(bool enabled) {
  cache_switch().store(enabled, std::memory_order_relaxed);
}

void CacheCounters::count(bool hit) {
  if (!obs::metrics_enabled()) return;
  std::call_once(resolved_, [this] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    hits_ = &reg.counter("iotls_crypto_cache_hits_total",
                         "Crypto memoisation hits by cache", "cache", name_);
    misses_ = &reg.counter("iotls_crypto_cache_misses_total",
                           "Crypto memoisation misses by cache", "cache",
                           name_);
  });
  (hit ? hits_ : misses_)->inc();
}

CryptoMemo<DigestKey, std::uint64_t>& sig_verify_cache() {
  static CryptoMemo<DigestKey, std::uint64_t> cache("sig_verify", 1 << 15);
  return cache;
}

CryptoMemo<DigestKey, std::uint64_t>& chain_verify_cache() {
  static CryptoMemo<DigestKey, std::uint64_t> cache("chain_verify", 1 << 15);
  return cache;
}

CryptoMemo<DigestKey, common::Bytes>& cert_sign_cache() {
  // Small on purpose; see the header.
  static CryptoMemo<DigestKey, common::Bytes> cache("cert_sign", 256);
  return cache;
}

CryptoMemo<KeypairKey, KeypairEntry, KeypairKeyHash>& keypair_cache() {
  static CryptoMemo<KeypairKey, KeypairEntry, KeypairKeyHash> cache(
      "keypair", 1 << 14);
  return cache;
}

void crypto_caches_clear() {
  sig_verify_cache().clear();
  chain_verify_cache().clear();
  cert_sign_cache().clear();
  keypair_cache().clear();
}

}  // namespace iotls::crypto
