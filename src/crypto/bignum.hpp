// Arbitrary-precision unsigned integers for the RSA/DHE substrate.
//
// Schoolbook add/sub/mul/div over 64-bit limbs with 128-bit intermediates;
// modular exponentiation for odd moduli runs on the cached Montgomery kernel
// (crypto/mont64.hpp), which works on the same limbs, with the schoolbook
// square-and-multiply kept as the even-modulus fallback and cross-check
// oracle. `bench_crypto` and `bench_ablation_keysize` quantify
// the costs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"

namespace iotls::crypto {

/// Non-negative big integer, little-endian 64-bit limbs, canonical form
/// (no leading zero limbs; zero is the empty limb vector).
class BigUint {
 public:
  BigUint() = default;
  explicit BigUint(std::uint64_t value);
  /// From little-endian limbs [first, last); leading zero limbs allowed.
  BigUint(const std::uint64_t* first, const std::uint64_t* last);

  static BigUint from_hex(std::string_view hex);
  /// Big-endian byte import (leading zeros allowed).
  static BigUint from_bytes(common::BytesView data);

  [[nodiscard]] std::string to_hex() const;
  /// Big-endian byte export, zero-padded/truncation-checked to `width`
  /// (throws if the value does not fit). width==0 → minimal encoding.
  [[nodiscard]] common::Bytes to_bytes(std::size_t width = 0) const;

  /// The little-endian limbs, without leading zero limbs.
  [[nodiscard]] const std::vector<std::uint64_t>& limbs() const {
    return limbs_;
  }

  [[nodiscard]] bool is_zero() const { return limbs_.empty(); }
  [[nodiscard]] bool is_odd() const {
    return !limbs_.empty() && (limbs_[0] & 1);
  }
  [[nodiscard]] std::size_t bit_length() const;
  [[nodiscard]] bool bit(std::size_t i) const;

  [[nodiscard]] int compare(const BigUint& other) const;
  bool operator==(const BigUint& other) const { return compare(other) == 0; }
  bool operator!=(const BigUint& other) const { return compare(other) != 0; }
  bool operator<(const BigUint& other) const { return compare(other) < 0; }
  bool operator<=(const BigUint& other) const { return compare(other) <= 0; }
  bool operator>(const BigUint& other) const { return compare(other) > 0; }
  bool operator>=(const BigUint& other) const { return compare(other) >= 0; }

  [[nodiscard]] BigUint add(const BigUint& other) const;
  /// Requires *this >= other.
  [[nodiscard]] BigUint sub(const BigUint& other) const;
  [[nodiscard]] BigUint mul(const BigUint& other) const;
  /// Quotient and remainder; divisor must be nonzero.
  [[nodiscard]] std::pair<BigUint, BigUint> divmod(const BigUint& divisor) const;
  [[nodiscard]] BigUint mod(const BigUint& m) const { return divmod(m).second; }

  [[nodiscard]] BigUint shift_left(std::size_t bits) const;
  [[nodiscard]] BigUint shift_right(std::size_t bits) const;

  /// Modular exponentiation: this^exp mod m (m > 0). Odd moduli (every
  /// RSA/DH modulus) go to the fixed-width Montgomery kernel and its
  /// per-thread context cache (crypto/mont64.hpp); even moduli fall back to
  /// the schoolbook path below.
  [[nodiscard]] BigUint modexp(const BigUint& exp, const BigUint& m) const;

  /// Schoolbook square-and-multiply with a full division per step — the
  /// fallback for even moduli and the cross-check oracle for the
  /// Montgomery kernel (tests, bench_crypto baselines).
  [[nodiscard]] BigUint modexp_plain(const BigUint& exp, const BigUint& m) const;

  /// Greatest common divisor.
  static BigUint gcd(BigUint a, BigUint b);
  /// Modular inverse of a mod m; throws CryptoError if gcd(a,m) != 1.
  static BigUint modinv(const BigUint& a, const BigUint& m);

  /// Uniform value in [0, bound).
  static BigUint random_below(common::Rng& rng, const BigUint& bound);
  /// Random value with exactly `bits` bits (MSB set).
  static BigUint random_bits(common::Rng& rng, std::size_t bits);

  /// Probable-prime test. Exact below 1024; above, a value with a factor
  /// below 1024 is rejected without drawing from `rng`, and the rest run
  /// Miller-Rabin with `rounds` random bases.
  [[nodiscard]] bool is_probable_prime(common::Rng& rng,
                                       int rounds = 20) const;

  /// Generate a random probable prime with exactly `bits` bits. Draws one
  /// word of `rng` for the Miller-Rabin seed, then ceil(bits / 64) words
  /// per candidate; each candidate's bases come from its own derived
  /// stream.
  static BigUint generate_prime(common::Rng& rng, std::size_t bits);

  [[nodiscard]] std::uint64_t low_u64() const;

 private:
  void trim();

  std::vector<std::uint64_t> limbs_;
};

}  // namespace iotls::crypto
