// 64-bit-limb Montgomery kernel: the single odd-modulus modexp path.
//
// `BigUint::modexp` sends every odd modulus (every RSA and DH modulus, and
// each Miller-Rabin candidate during key generation) here through
// `mont64_modexp`, and keeps the schoolbook `modexp_plain` for even moduli
// and as the test oracle. The kernel:
//
//   - uses 64-bit limbs with an `unsigned __int128` accumulator: half the
//     limb count, a quarter of the multiply-accumulate steps per CIOS pass;
//   - is constructed once per modulus and cached per thread, so the
//     Newton-inverse and R^2 setup of a hot modulus (a server key's CRT
//     primes, the fixed DH group primes) amortises to zero;
//   - owns its scratch (accumulator, window table), sized at construction,
//     so steady-state exponentiation performs no allocation.
//
// The kernel computes exactly base^exp mod m, bit-identical to the
// schoolbook oracle, so the cache changes when setup work happens, never
// what is computed (the determinism contract).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/bignum.hpp"

namespace iotls::crypto {

/// Reusable reduction context for one odd modulus, 64-bit limbs.
/// Scratch buffers are member-owned, so a context is single-thread-use;
/// mont64_modexp caches contexts thread-locally.
class Mont64 {
 public:
  /// Throws CryptoError unless `modulus` is odd (and therefore nonzero).
  explicit Mont64(const BigUint& modulus);

  [[nodiscard]] const BigUint& modulus() const { return m_; }

  /// base^exp mod m (plain-domain in and out), fixed 4-bit windows.
  [[nodiscard]] BigUint pow(const BigUint& base, const BigUint& exp) const;

 private:
  using Limbs = std::vector<std::uint64_t>;

  /// CIOS multiply-reduce: out = a*b*R^-1 mod m over padded limb vectors.
  /// `out` may alias `a` or `b`.
  void mont_mul(const Limbs& a, const Limbs& b, Limbs& out) const;

  /// Squaring-specialised multiply-reduce: out = a*a*R^-1 mod m. A square
  /// needs only half the off-diagonal products (doubled), so the window
  /// ladder's square steps — ~80% of its multiplies — run ~25% cheaper.
  /// `out` may alias `a`.
  void mont_sqr(const Limbs& a, Limbs& out) const;

  /// In-place modular doubling in the Montgomery domain: x = 2x mod m.
  void mont_dbl(Limbs& x) const;

  /// 2^exp mod m via square-and-double: every ladder step is a mont_sqr
  /// plus (on set bits) a near-free mont_dbl — no window table, no
  /// to_mont. Serves the fixed DH generator g = 2 (crypto/dh.cpp).
  [[nodiscard]] BigUint pow2(const BigUint& exp) const;

  [[nodiscard]] Limbs pad(const BigUint& a) const;
  [[nodiscard]] BigUint unpad(const Limbs& limbs) const;

  BigUint m_;
  Limbs mlimbs_;           // modulus, 64-bit limbs, padded width n
  std::uint64_t n0_ = 0;   // -m^-1 mod 2^64
  Limbs r2_;               // R^2 mod m (R = 2^(64n)), padded
  Limbs one_;              // R mod m (Montgomery form of 1), padded
  mutable Limbs t_;        // CIOS accumulator, n+2 limbs
  mutable Limbs sq_;       // mont_sqr double-width accumulator, 2n+2 limbs
  mutable Limbs table_[16];  // window table scratch
  mutable Limbs result_;     // accumulator scratch for pow
  Limbs one_plain_;          // the plain value 1, padded (from_mont factor)
};

/// base^exp mod m through this thread's cache of Mont64 contexts. Requires
/// an odd modulus. The cache is move-to-front and holds at most 32
/// contexts: a key-generation loop builds one context per prime candidate,
/// and the bound keeps that churn from growing the cache without limit
/// while the few hot moduli stay at the front.
[[nodiscard]] BigUint mont64_modexp(const BigUint& base, const BigUint& exp,
                                    const BigUint& m);

/// Number of contexts currently cached on this thread (tests).
[[nodiscard]] std::size_t mont64_context_count();

/// Drop this thread's cached contexts (tests; values re-derive identically).
void mont64_contexts_clear();

}  // namespace iotls::crypto
