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

void count_cache_hit(const char* cache_name) {
  if (!obs::metrics_enabled()) return;
  obs::MetricsRegistry::global()
      .counter("iotls_crypto_cache_hits_total",
               "Crypto memoisation hits by cache", "cache", cache_name)
      .inc();
}

void count_cache_miss(const char* cache_name) {
  if (!obs::metrics_enabled()) return;
  obs::MetricsRegistry::global()
      .counter("iotls_crypto_cache_misses_total",
               "Crypto memoisation misses by cache", "cache", cache_name)
      .inc();
}

template <typename Value>
std::optional<Value> DigestCache<Value>::lookup(const DigestKey& key) {
  Shard& s = shard(key);
  std::optional<Value> out;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    const auto it = s.map.find(key);
    if (it != s.map.end()) out = it->second;
  }
  if (out.has_value()) {
    count_cache_hit(name_);
  } else {
    count_cache_miss(name_);
  }
  return out;
}

template <typename Value>
void DigestCache<Value>::store(const DigestKey& key, const Value& value) {
  Shard& s = shard(key);
  std::lock_guard<std::mutex> lock(s.mutex);
  if (s.map.size() >= max_per_shard_) s.map.clear();
  s.map.emplace(key, value);
}

template <typename Value>
void DigestCache<Value>::clear() {
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    s.map.clear();
  }
}

template <typename Value>
std::size_t DigestCache<Value>::size() {
  std::size_t total = 0;
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    total += s.map.size();
  }
  return total;
}

template class DigestCache<std::uint64_t>;
template class DigestCache<common::Bytes>;

DigestCache<std::uint64_t>& sig_verify_cache() {
  static DigestCache<std::uint64_t> cache("sig_verify", 1 << 15);
  return cache;
}

DigestCache<std::uint64_t>& chain_verify_cache() {
  static DigestCache<std::uint64_t> cache("chain_verify", 1 << 15);
  return cache;
}

DigestCache<common::Bytes>& cert_sign_cache() {
  // Small on purpose; see the header.
  static DigestCache<common::Bytes> cache("cert_sign", 256);
  return cache;
}

void crypto_caches_clear() {
  sig_verify_cache().clear();
  chain_verify_cache().clear();
  cert_sign_cache().clear();
  detail::keypair_cache_clear();
}

}  // namespace iotls::crypto
