#include "crypto/mont64.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "crypto/cache.hpp"

namespace iotls::crypto {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

namespace {

// N == kRuntime instantiates the body over heap limbs whose count is the
// modulus's own, for moduli wider than kMont64MaxFixedLimbs.
constexpr std::size_t kRuntime = 0;

template <std::size_t N>
using Limbs =
    std::conditional_t<N == kRuntime, std::vector<u64>, std::array<u64, N>>;

// One multiply's or square's accumulator: 2n + 2 limbs covers both the
// CIOS multiply's n + 2 and the SOS square's 2n-limb product.
template <std::size_t N>
using Scratch = std::conditional_t<N == kRuntime, std::vector<u64>,
                                   std::array<u64, 2 * N + 2>>;

template <class L>
L zeroed(std::size_t size) {
  if constexpr (std::is_same_v<L, std::vector<u64>>) {
    return L(size, 0);
  } else {
    (void)size;
    return L{};
  }
}

/// `a`'s limbs, zero-padded to fill `out`; `a` must fit.
template <class L>
void copy_padded(const BigUint& a, L& out) {
  std::fill(std::copy(a.limbs().begin(), a.limbs().end(), out.begin()),
            out.end(), 0);
}

/// One cached modulus; the width lives in the derived kernel's type.
class Context {
 public:
  explicit Context(const BigUint& m) : m_(m) {}
  virtual ~Context() = default;
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  [[nodiscard]] const BigUint& modulus() const { return m_; }

  /// base^exp mod m, plain domain in and out.
  [[nodiscard]] virtual BigUint pow(const BigUint& base,
                                    const BigUint& exp) const = 0;

 protected:
  BigUint m_;
};

template <std::size_t N>
class Kernel final : public Context {
 public:
  using L = Limbs<N>;
  using S = Scratch<N>;

  /// `width` is the limb count the modulus is padded to (N when fixed).
  Kernel(const BigUint& m, std::size_t width)
      : Context(m), m64_(zeroed<L>(width)), r2_(m64_), one_(m64_) {
    copy_padded(m_, m64_);

    // n0 = -m^-1 mod 2^64 by Newton iteration. x = m is correct mod 2^3
    // for odd m; six doublings of precision reach >= 64 bits.
    u64 inv = m64_[0];
    for (int i = 0; i < 6; ++i) inv *= 2u - m64_[0] * inv;
    n0_ = ~inv + 1u;  // == -inv mod 2^64

    // R^2 mod m and R mod m with R = 2^(64 * width): two divisions at
    // setup, amortised across the context cache's lifetime.
    copy_padded(BigUint(1).shift_left(128 * width).mod(m_), r2_);
    copy_padded(BigUint(1).shift_left(64 * width).mod(m_), one_);
  }

  [[nodiscard]] BigUint pow(const BigUint& base,
                            const BigUint& exp) const override {
    if (base.limbs().size() == 1 && base.limbs()[0] == 2) return pow2(exp);
    const std::size_t nbits = exp.bit_length();
    if (nbits == 0) return BigUint(1).mod(m_);  // base^0 = 1 mod m

    S t = zeroed<S>(2 * n() + 2);
    L b = zeroed<L>(n());
    if (base < m_) {
      copy_padded(base, b);
    } else {
      copy_padded(base.mod(m_), b);
    }
    mul(b, r2_, b, t);  // to Montgomery form

    L acc = b;
    if (nbits < kMont64WindowBits) {
      // 1-bit ladder from the (set) top bit down: no table to build.
      for (std::size_t i = nbits - 1; i-- > 0;) {
        sqr(acc, acc, t);
        if (exp.bit(i)) mul(acc, b, acc, t);
      }
    } else {
      // Fixed 4-bit windows: table[w] = base^w in Montgomery form.
      std::array<L, 16> table{};
      table[1] = b;
      for (std::size_t w = 2; w < 16; ++w) {
        table[w] = zeroed<L>(n());
        mul(table[w - 1], b, table[w], t);
      }
      // Bits [4w, 4w + 4) of exp; a window never straddles a limb.
      const auto window_at = [&exp](std::size_t w) {
        return (exp.limbs()[w / 16] >> (4 * (w % 16))) & 15u;
      };
      const std::size_t windows = (nbits + 3) / 4;
      acc = table[window_at(windows - 1)];  // top one is set
      for (std::size_t w = windows - 1; w-- > 0;) {
        for (int s = 0; s < 4; ++s) sqr(acc, acc, t);
        const std::uint64_t window = window_at(w);
        if (window != 0) mul(acc, table[window], acc, t);
      }
    }
    from_mont(acc, t);
    return BigUint(acc.data(), acc.data() + n());
  }

 private:
  [[nodiscard]] std::size_t n() const {
    if constexpr (N == kRuntime) {
      return m64_.size();
    } else {
      return N;
    }
  }

  /// out = t + top * R - m if that is non-negative, else t (t < 2m, so
  /// the result is < m). Branch-free select; `out` must not alias `t`.
  void reduce(const u64* t, u64 top, L& out) const {
    u64 borrow = 0;
    for (std::size_t i = 0; i < n(); ++i) {
      const u128 diff = static_cast<u128>(t[i]) - m64_[i] - borrow;
      out[i] = static_cast<u64>(diff);
      borrow = static_cast<u64>(diff >> 64) & 1u;
    }
    const u64 keep_t = 0 - static_cast<u64>(borrow > top);
    for (std::size_t i = 0; i < n(); ++i) {
      out[i] = (out[i] & ~keep_t) | (t[i] & keep_t);
    }
  }

  /// CIOS multiply-reduce: out = a*b*R^-1 mod m. `out` may alias a or b.
  void mul(const L& a, const L& b, L& out, S& t) const {
    std::fill(t.begin(), t.begin() + static_cast<std::ptrdiff_t>(n() + 2), 0);
    for (std::size_t i = 0; i < n(); ++i) {
      const u64 ai = a[i];
      u128 carry = 0;
      for (std::size_t j = 0; j < n(); ++j) {
        const u128 cur = static_cast<u128>(t[j]) +
                         static_cast<u128>(ai) * b[j] + carry;
        t[j] = static_cast<u64>(cur);
        carry = cur >> 64;
      }
      u128 cur = static_cast<u128>(t[n()]) + carry;
      t[n()] = static_cast<u64>(cur);
      t[n() + 1] = static_cast<u64>(cur >> 64);

      const u64 u = t[0] * n0_;  // t[0] * (-m^-1) mod 2^64
      cur = static_cast<u128>(t[0]) + static_cast<u128>(u) * m64_[0];
      carry = cur >> 64;
      for (std::size_t j = 1; j < n(); ++j) {
        cur = static_cast<u128>(t[j]) + static_cast<u128>(u) * m64_[j] +
              carry;
        t[j - 1] = static_cast<u64>(cur);
        carry = cur >> 64;
      }
      cur = static_cast<u128>(t[n()]) + carry;
      t[n() - 1] = static_cast<u64>(cur);
      t[n()] = t[n() + 1] + static_cast<u64>(cur >> 64);
    }
    reduce(t.data(), t[n()], out);  // t[0..n] < 2m
  }

  /// SOS square: out = a*a*R^-1 mod m. The off-diagonal products are
  /// formed once and doubled, so a square costs ~1.5n^2 limb products
  /// against mul's 2n^2. `out` may alias `a`.
  void sqr(const L& a, L& out, S& t) const {
    std::fill(t.begin(), t.begin() + static_cast<std::ptrdiff_t>(2 * n()), 0);
    for (std::size_t i = 0; i < n(); ++i) {
      const u64 ai = a[i];
      u128 carry = 0;
      for (std::size_t j = i + 1; j < n(); ++j) {
        const u128 cur = static_cast<u128>(t[i + j]) +
                         static_cast<u128>(ai) * a[j] + carry;
        t[i + j] = static_cast<u64>(cur);
        carry = cur >> 64;
      }
      t[i + n()] = static_cast<u64>(carry);  // no earlier row reached it
    }
    // Double and add the diagonal in one pass (a^2 < R^2, so no bit leaves
    // the top limb and the last carry is zero).
    u64 bit = 0;
    u64 carry = 0;
    for (std::size_t i = 0; i < n(); ++i) {
      const u64 lo_in = t[2 * i];
      const u64 hi_in = t[2 * i + 1];
      const u128 prod = static_cast<u128>(a[i]) * a[i];
      const u128 lo = static_cast<u128>((lo_in << 1) | bit) +
                      static_cast<u64>(prod) + carry;
      const u128 hi = static_cast<u128>((hi_in << 1) | (lo_in >> 63)) +
                      static_cast<u64>(prod >> 64) +
                      static_cast<u64>(lo >> 64);
      t[2 * i] = static_cast<u64>(lo);
      t[2 * i + 1] = static_cast<u64>(hi);
      bit = hi_in >> 63;
      carry = static_cast<u64>(hi >> 64);
    }
    redc(t, out);
  }

  /// Separated REDC of the 2n-limb t: out = t*R^-1 mod m for t < m*R.
  /// Each pass clears one low limb; `top` carries the overflow of limb
  /// i + n into the next pass's top limb.
  void redc(S& t, L& out) const {
    u64 top = 0;
    for (std::size_t i = 0; i < n(); ++i) {
      const u64 u = t[i] * n0_;
      u128 carry = 0;
      for (std::size_t j = 0; j < n(); ++j) {
        const u128 cur = static_cast<u128>(t[i + j]) +
                         static_cast<u128>(u) * m64_[j] + carry;
        t[i + j] = static_cast<u64>(cur);
        carry = cur >> 64;
      }
      const u128 cur = static_cast<u128>(t[i + n()]) + carry + top;
      t[i + n()] = static_cast<u64>(cur);
      top = static_cast<u64>(cur >> 64);
    }
    reduce(t.data() + n(), top, out);
  }

  /// x = x*R^-1 mod m: leave the Montgomery domain.
  void from_mont(L& x, S& t) const {
    std::copy(x.begin(), x.end(), t.begin());
    std::fill(t.begin() + static_cast<std::ptrdiff_t>(n()),
              t.begin() + static_cast<std::ptrdiff_t>(2 * n()), 0);
    redc(t, x);
  }

  /// In-place modular doubling in the Montgomery domain: x = 2x mod m.
  void dbl(L& x, S& t) const {
    u64 bit = 0;
    for (std::size_t i = 0; i < n(); ++i) {
      t[i] = (x[i] << 1) | bit;
      bit = x[i] >> 63;
    }
    reduce(t.data(), bit, x);
  }

  /// 2^exp mod m via square-and-double: every ladder step is a sqr plus
  /// (on set bits) a near-free dbl; no table, no to-Montgomery multiply.
  /// Serves the fixed DH generator g = 2 (crypto/dh.cpp).
  [[nodiscard]] BigUint pow2(const BigUint& exp) const {
    const std::size_t nbits = exp.bit_length();
    if (nbits == 0) return BigUint(1).mod(m_);
    S t = zeroed<S>(2 * n() + 2);
    L acc = one_;
    dbl(acc, t);  // mont(2), consuming the (set) top bit
    for (std::size_t i = nbits - 1; i-- > 0;) {
      sqr(acc, acc, t);
      if (exp.bit(i)) dbl(acc, t);
    }
    from_mont(acc, t);
    return BigUint(acc.data(), acc.data() + n());
  }

  L m64_;        // modulus, zero-padded to n() limbs
  u64 n0_ = 0;   // -m^-1 mod 2^64
  L r2_;         // R^2 mod m
  L one_;        // R mod m (Montgomery form of 1)
};

/// The kernel for `m`, at the narrowest compiled width that holds it.
std::unique_ptr<Context> make_context(const BigUint& m) {
  if (!m.is_odd()) {
    throw common::CryptoError("mont64: modulus must be odd");
  }
  const std::size_t width = m.limbs().size();
  if (width <= 1) return std::make_unique<Kernel<1>>(m, 1);
  if (width <= 2) return std::make_unique<Kernel<2>>(m, 2);
  if (width <= 4) return std::make_unique<Kernel<4>>(m, 4);
  if (width <= 8) return std::make_unique<Kernel<8>>(m, 8);
  if (width <= 16) return std::make_unique<Kernel<16>>(m, 16);
  if (width <= kMont64MaxFixedLimbs) {
    return std::make_unique<Kernel<kMont64MaxFixedLimbs>>(
        m, kMont64MaxFixedLimbs);
  }
  return std::make_unique<Kernel<kRuntime>>(m, width);
}

// Per-thread warm contexts, most-recently-used first. The hot working set
// is tiny (a server key's two CRT primes plus the fixed DH group primes),
// so a linear scan with move-to-front beats any map.
constexpr std::size_t kMaxContexts = 32;

std::vector<std::unique_ptr<Context>>& contexts() {
  thread_local std::vector<std::unique_ptr<Context>> cache;
  return cache;
}

}  // namespace

BigUint mont64_modexp(const BigUint& base, const BigUint& exp,
                      const BigUint& m) {
  static CacheCounters counters("mont64_context");
  auto& cache = contexts();
  for (std::size_t i = 0; i < cache.size(); ++i) {
    if (cache[i]->modulus() == m) {
      const auto it = cache.begin() + static_cast<std::ptrdiff_t>(i);
      if (i != 0) std::rotate(cache.begin(), it, it + 1);
      counters.count(true);
      return cache.front()->pow(base, exp);
    }
  }
  auto context = make_context(m);
  counters.count(false);
  BigUint result = context->pow(base, exp);
  cache.insert(cache.begin(), std::move(context));
  if (cache.size() > kMaxContexts) cache.pop_back();
  return result;
}

std::size_t mont64_context_count() { return contexts().size(); }

void mont64_contexts_clear() { contexts().clear(); }

}  // namespace iotls::crypto
