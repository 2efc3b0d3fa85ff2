// Deterministic pseudo-random generators.
//
// Everything in the simulation draws randomness through `Rng` so that every
// experiment is exactly reproducible from a seed — the repeatability property
// the paper's probing methodology depends on (§4.2: "devices will follow the
// same procedure every time they are rebooted").
//
// The generator is xoshiro256** seeded via SplitMix64. Not cryptographically
// secure by design: this is simulation randomness, while the crypto substrate
// derives its nonces from explicit key material.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "common/bytes.hpp"

namespace iotls::common {

/// SplitMix64 — used to expand a single seed into generator state.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();

 private:
  std::uint64_t state_;
};

/// xoshiro256** deterministic PRNG.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Derive an independent stream from this seed and a label. Used to give
  /// each device/instance its own reproducible stream.
  static Rng derive(std::uint64_t seed, std::string_view label);

  /// The full generator state. Snapshot/restore lets memoisation layers
  /// (the RSA keypair cache) replay a generator's consumption exactly: a
  /// cache hit restores the post-generation state, so downstream draws are
  /// byte-identical to a cache miss.
  using State = std::array<std::uint64_t, 4>;
  [[nodiscard]] State state() const { return s_; }
  void set_state(const State& state) { s_ = state; }

  std::uint64_t next_u64();

  /// Uniform in [0, bound) via rejection sampling; bound must be > 0.
  std::uint64_t uniform(std::uint64_t bound);

  /// Uniform in [lo, hi] inclusive; requires lo <= hi.
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool chance(double p);

  /// Fill a buffer of n random bytes.
  Bytes bytes(std::size_t n);

  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[uniform(i)]);
    }
  }

 private:
  std::array<std::uint64_t, 4> s_{};
};

/// Stable 64-bit FNV-1a hash of a string — used for label-derived seeds and
/// deterministic identifiers.
std::uint64_t fnv1a64(std::string_view text);

/// Stable child-seed derivation: split an independent stream off `parent`
/// for child `child` (an instance index, connection counter, …). Unlike the
/// xor folding `Rng::derive` uses for coarse per-experiment streams, both
/// inputs pass through SplitMix64 mixing, so sequential child ids (0, 1,
/// 2, …) land far apart and `split_seed(a, x) == split_seed(b, y)` requires
/// a full 64-bit collision — the property that makes fleet expansion
/// order-independent and shard-parallel safe: any worker can derive any
/// instance's stream from (parent, id) alone, in any order.
std::uint64_t split_seed(std::uint64_t parent, std::uint64_t child);

/// Label-keyed convenience overload: `split_seed(parent, fnv1a64(label))`.
std::uint64_t split_seed(std::uint64_t parent, std::string_view label);

}  // namespace iotls::common
