#include "common/rng.hpp"

namespace iotls::common {

std::uint64_t SplitMix64::next() {
  state_ += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
}

Rng Rng::derive(std::uint64_t seed, std::string_view label) {
  return Rng(seed ^ fnv1a64(label));
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::uniform(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("uniform(0)");
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return v % bound;
}

std::uint64_t Rng::range(std::uint64_t lo, std::uint64_t hi) {
  if (lo > hi) throw std::invalid_argument("range(lo > hi)");
  return lo + uniform(hi - lo + 1);
}

double Rng::uniform01() {
  // 53 random mantissa bits.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

Bytes Rng::bytes(std::size_t n) {
  Bytes out(n);
  std::size_t i = 0;
  while (i < n) {
    std::uint64_t word = next_u64();
    for (int b = 0; b < 8 && i < n; ++b, ++i) {
      out[i] = static_cast<std::uint8_t>(word >> (8 * b));
    }
  }
  return out;
}

std::uint64_t split_seed(std::uint64_t parent, std::uint64_t child) {
  // Two parent-derived keys sandwich the child through a second SplitMix64
  // pass: the child id is whitened before it ever meets the parent state,
  // so structured ids (sequential, bit-sparse) cannot produce structured
  // seeds.
  SplitMix64 base(parent);
  const std::uint64_t k0 = base.next();
  const std::uint64_t k1 = base.next();
  SplitMix64 mix(child ^ k0);
  return mix.next() ^ k1;
}

std::uint64_t split_seed(std::uint64_t parent, std::string_view label) {
  return split_seed(parent, fnv1a64(label));
}

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace iotls::common
