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

template <typename Value>
std::optional<Value> DigestCache<Value>::lookup(const DigestKey& key) {
  Shard& s = shard(key);
  std::optional<Value> out;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    const auto it = s.map.find(key);
    if (it != s.map.end()) out = it->second;
  }
  counters_.count(out.has_value());
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
