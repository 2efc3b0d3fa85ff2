#include "crypto/mont64.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "crypto/cache.hpp"

namespace iotls::crypto {

namespace {

using u128 = unsigned __int128;

// Per-thread warm contexts, most-recently-used first. The hot working set
// is tiny (a server key's two CRT primes plus the fixed DH group primes),
// so a linear scan with move-to-front beats any map.
constexpr std::size_t kMaxContexts = 32;

std::vector<std::unique_ptr<Mont64>>& contexts() {
  thread_local std::vector<std::unique_ptr<Mont64>> cache;
  return cache;
}

}  // namespace

Mont64::Mont64(const BigUint& modulus) : m_(modulus) {
  if (!m_.is_odd()) {
    throw common::CryptoError("Mont64: modulus must be odd");
  }

  // Pack the 32-bit BigUint limbs into 64-bit limbs.
  const auto& limbs32 = m_.limbs_;
  mlimbs_.assign((limbs32.size() + 1) / 2, 0);
  for (std::size_t i = 0; i < limbs32.size(); ++i) {
    mlimbs_[i / 2] |= static_cast<std::uint64_t>(limbs32[i]) << (32 * (i % 2));
  }

  // n0 = -m^-1 mod 2^64 by Newton iteration. x = m is correct mod 2^3 for
  // odd m; six doublings of precision reach >= 64 bits.
  std::uint64_t inv = mlimbs_[0];
  for (int i = 0; i < 6; ++i) {
    inv *= 2u - mlimbs_[0] * inv;
  }
  n0_ = ~inv + 1u;  // == -inv mod 2^64

  // R^2 mod m and R mod m with R = 2^(64n): two Algorithm-D divisions at
  // setup, amortised across the context cache's lifetime.
  const std::size_t n = mlimbs_.size();
  r2_ = pad(BigUint(1).shift_left(128 * n).mod(m_));
  one_ = pad(BigUint(1).shift_left(64 * n).mod(m_));

  // Steady-state exponentiation reuses these; pow performs no allocation
  // beyond the one pad() of its base.
  t_.assign(n + 2, 0);
  sq_.assign(2 * n + 2, 0);
  for (auto& entry : table_) entry.assign(n, 0);
  result_.assign(n, 0);
  one_plain_.assign(n, 0);
  one_plain_[0] = 1;
}

Mont64::Limbs Mont64::pad(const BigUint& a) const {
  const auto& limbs32 = a.limbs_;
  Limbs out(mlimbs_.size(), 0);
  for (std::size_t i = 0; i < limbs32.size(); ++i) {
    out[i / 2] |= static_cast<std::uint64_t>(limbs32[i]) << (32 * (i % 2));
  }
  return out;
}

BigUint Mont64::unpad(const Limbs& limbs) const {
  BigUint out;
  out.limbs_.assign(limbs.size() * 2, 0);
  for (std::size_t i = 0; i < limbs.size(); ++i) {
    out.limbs_[2 * i] = static_cast<std::uint32_t>(limbs[i]);
    out.limbs_[2 * i + 1] = static_cast<std::uint32_t>(limbs[i] >> 32);
  }
  out.trim();
  return out;
}

void Mont64::mont_mul(const Limbs& a, const Limbs& b, Limbs& out) const {
  // CIOS over 64-bit limbs: same interleaved multiply/reduce shape as the
  // 32-bit kernel, with an __int128 accumulator carrying the cross terms.
  const std::size_t n = mlimbs_.size();
  std::fill(t_.begin(), t_.end(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t ai = a[i];
    u128 carry = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const u128 cur = static_cast<u128>(t_[j]) +
                       static_cast<u128>(ai) * b[j] + carry;
      t_[j] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    u128 cur = static_cast<u128>(t_[n]) + carry;
    t_[n] = static_cast<std::uint64_t>(cur);
    t_[n + 1] = static_cast<std::uint64_t>(cur >> 64);

    const std::uint64_t u = t_[0] * n0_;  // t[0]*(-m^-1) mod 2^64
    cur = static_cast<u128>(t_[0]) + static_cast<u128>(u) * mlimbs_[0];
    carry = cur >> 64;
    for (std::size_t j = 1; j < n; ++j) {
      cur = static_cast<u128>(t_[j]) + static_cast<u128>(u) * mlimbs_[j] +
            carry;
      t_[j - 1] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    cur = static_cast<u128>(t_[n]) + carry;
    t_[n - 1] = static_cast<std::uint64_t>(cur);
    t_[n] = t_[n + 1] + static_cast<std::uint64_t>(cur >> 64);
    t_[n + 1] = 0;
  }

  // Result is t[0..n] < 2m; one conditional subtract normalizes to < m.
  bool ge = t_[n] != 0;
  if (!ge) {
    ge = true;
    for (std::size_t i = n; i-- > 0;) {
      if (t_[i] != mlimbs_[i]) {
        ge = t_[i] > mlimbs_[i];
        break;
      }
    }
  }
  out.resize(n);
  if (ge) {
    std::uint64_t borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t mi = mlimbs_[i];
      const std::uint64_t ti = t_[i];
      const std::uint64_t diff = ti - mi - borrow;
      borrow = (ti < mi || (borrow && ti == mi)) ? 1 : 0;
      out[i] = diff;
    }
  } else {
    std::copy(t_.begin(), t_.begin() + static_cast<std::ptrdiff_t>(n),
              out.begin());
  }
}

void Mont64::mont_sqr(const Limbs& a, Limbs& out) const {
  // SOS squaring: full double-width square (off-diagonal products once,
  // then doubled, then the diagonal), followed by a separated Montgomery
  // reduction. ~1.5n^2 limb products against mont_mul's 2n^2.
  const std::size_t n = mlimbs_.size();
  std::fill(sq_.begin(), sq_.end(), 0);

  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t ai = a[i];
    u128 carry = 0;
    for (std::size_t j = i + 1; j < n; ++j) {
      const u128 cur = static_cast<u128>(sq_[i + j]) +
                       static_cast<u128>(ai) * a[j] + carry;
      sq_[i + j] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    for (std::size_t k = i + n; carry != 0; ++k) {
      const u128 cur = static_cast<u128>(sq_[k]) + carry;
      sq_[k] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
  }
  std::uint64_t bit = 0;
  for (std::size_t k = 0; k < 2 * n + 1; ++k) {
    const std::uint64_t cur = sq_[k];
    sq_[k] = (cur << 1) | bit;
    bit = cur >> 63;
  }
  std::uint64_t carry1 = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const u128 prod = static_cast<u128>(a[i]) * a[i];
    const u128 lo = static_cast<u128>(sq_[2 * i]) +
                    static_cast<std::uint64_t>(prod) + carry1;
    sq_[2 * i] = static_cast<std::uint64_t>(lo);
    const u128 hi = static_cast<u128>(sq_[2 * i + 1]) +
                    static_cast<std::uint64_t>(prod >> 64) +
                    static_cast<std::uint64_t>(lo >> 64);
    sq_[2 * i + 1] = static_cast<std::uint64_t>(hi);
    carry1 = static_cast<std::uint64_t>(hi >> 64);
  }
  for (std::size_t k = 2 * n; carry1 != 0; ++k) {
    const u128 cur = static_cast<u128>(sq_[k]) + carry1;
    sq_[k] = static_cast<std::uint64_t>(cur);
    carry1 = static_cast<std::uint64_t>(cur >> 64);
  }

  // Separated REDC: clear one low limb per pass; the result lands in
  // sq_[n .. 2n] with at most one extra top limb.
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t u = sq_[i] * n0_;
    u128 carry = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const u128 cur = static_cast<u128>(sq_[i + j]) +
                       static_cast<u128>(u) * mlimbs_[j] + carry;
      sq_[i + j] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    for (std::size_t k = i + n; carry != 0; ++k) {
      const u128 cur = static_cast<u128>(sq_[k]) + carry;
      sq_[k] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
  }

  bool ge = sq_[2 * n] != 0;
  if (!ge) {
    ge = true;
    for (std::size_t i = n; i-- > 0;) {
      if (sq_[n + i] != mlimbs_[i]) {
        ge = sq_[n + i] > mlimbs_[i];
        break;
      }
    }
  }
  out.resize(n);
  if (ge) {
    std::uint64_t borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t mi = mlimbs_[i];
      const std::uint64_t ti = sq_[n + i];
      const std::uint64_t diff = ti - mi - borrow;
      borrow = (ti < mi || (borrow && ti == mi)) ? 1 : 0;
      out[i] = diff;
    }
  } else {
    std::copy(sq_.begin() + static_cast<std::ptrdiff_t>(n),
              sq_.begin() + static_cast<std::ptrdiff_t>(2 * n), out.begin());
  }
}

void Mont64::mont_dbl(Limbs& x) const {
  // x < m, so 2x < 2m: shift up one bit, then at most one subtraction.
  const std::size_t n = mlimbs_.size();
  std::uint64_t bit = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t cur = x[i];
    x[i] = (cur << 1) | bit;
    bit = cur >> 63;
  }

  bool ge = bit != 0;
  if (!ge) {
    ge = true;
    for (std::size_t i = n; i-- > 0;) {
      if (x[i] != mlimbs_[i]) {
        ge = x[i] > mlimbs_[i];
        break;
      }
    }
  }
  if (ge) {
    std::uint64_t borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t mi = mlimbs_[i];
      const std::uint64_t xi = x[i];
      const std::uint64_t diff = xi - mi - borrow;
      borrow = (xi < mi || (borrow && xi == mi)) ? 1 : 0;
      x[i] = diff;
    }
  }
}

BigUint Mont64::pow2(const BigUint& exp) const {
  const std::size_t nbits = exp.bit_length();
  if (nbits == 0) return BigUint(1).mod(m_);
  // Seed the ladder with mont(2) and consume the (set) top bit.
  result_ = one_;
  mont_dbl(result_);
  for (std::size_t i = nbits - 1; i-- > 0;) {
    mont_sqr(result_, result_);
    if (exp.bit(i)) mont_dbl(result_);
  }
  mont_mul(result_, one_plain_, result_);
  return unpad(result_);
}

BigUint Mont64::pow(const BigUint& base, const BigUint& exp) const {
  if (base.limbs_.size() == 1 && base.limbs_[0] == 2) return pow2(exp);
  const std::size_t nbits = exp.bit_length();
  if (nbits == 0) return BigUint(1).mod(m_);  // base^0 = 1 mod m

  // Fixed 4-bit windows: table[w] = base^w in Montgomery form.
  table_[0] = one_;
  mont_mul(pad(base.mod(m_)), r2_, table_[1]);  // to_mont(base)
  for (std::size_t w = 2; w < 16; ++w) {
    mont_mul(table_[w - 1], table_[1], table_[w]);
  }

  result_ = one_;
  const std::size_t windows = (nbits + 3) / 4;
  for (std::size_t w = windows; w-- > 0;) {
    if (w + 1 != windows) {
      for (int s = 0; s < 4; ++s) mont_sqr(result_, result_);
    }
    unsigned window = 0;
    for (int k = 3; k >= 0; --k) {
      window =
          (window << 1) |
          static_cast<unsigned>(exp.bit(4 * w + static_cast<std::size_t>(k)));
    }
    if (window != 0) mont_mul(result_, table_[window], result_);
  }

  // from_mont of the accumulator: multiply by plain 1.
  mont_mul(result_, one_plain_, result_);
  return unpad(result_);
}

BigUint mont64_modexp(const BigUint& base, const BigUint& exp,
                      const BigUint& m) {
  auto& cache = contexts();
  for (std::size_t i = 0; i < cache.size(); ++i) {
    if (cache[i]->modulus() == m) {
      const auto it = cache.begin() + static_cast<std::ptrdiff_t>(i);
      if (i != 0) std::rotate(cache.begin(), it, it + 1);
      count_cache_hit("mont64_context");
      return cache.front()->pow(base, exp);
    }
  }
  count_cache_miss("mont64_context");
  auto context = std::make_unique<Mont64>(m);
  BigUint result = context->pow(base, exp);
  cache.insert(cache.begin(), std::move(context));
  if (cache.size() > kMaxContexts) cache.pop_back();
  return result;
}

std::size_t mont64_context_count() { return contexts().size(); }

void mont64_contexts_clear() { contexts().clear(); }

}  // namespace iotls::crypto
