#include "crypto/bignum.hpp"

#include <algorithm>
#include <bit>

#include "common/hex.hpp"
#include "crypto/mont64.hpp"
#include "obs/profile.hpp"

namespace iotls::crypto {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

}  // namespace

void BigUint::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUint::BigUint(std::uint64_t value) {
  if (value != 0) limbs_.push_back(value);
}

BigUint::BigUint(const std::uint64_t* first, const std::uint64_t* last)
    : limbs_(first, last) {
  trim();
}

BigUint BigUint::from_hex(std::string_view hex) {
  std::string padded(hex);
  if (padded.size() % 2 != 0) padded.insert(padded.begin(), '0');
  return from_bytes(common::hex_decode(padded));
}

BigUint BigUint::from_bytes(common::BytesView data) {
  BigUint out;
  // Big-endian bytes → little-endian limbs.
  const std::size_t n = data.size();
  out.limbs_.resize((n + 7) / 8, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t byte = data[n - 1 - i];
    out.limbs_[i / 8] |= static_cast<u64>(byte) << (8 * (i % 8));
  }
  out.trim();
  return out;
}

std::string BigUint::to_hex() const {
  if (is_zero()) return "0";
  std::string out = common::hex_encode(to_bytes());
  // Strip leading zero nibble if present.
  std::size_t i = 0;
  while (i + 1 < out.size() && out[i] == '0') ++i;
  return out.substr(i);
}

common::Bytes BigUint::to_bytes(std::size_t width) const {
  common::Bytes out;
  const std::size_t byte_len = (bit_length() + 7) / 8;
  const std::size_t n = width == 0 ? std::max<std::size_t>(byte_len, 1) : width;
  if (width != 0 && byte_len > width) {
    throw common::CryptoError("BigUint::to_bytes: value does not fit width");
  }
  out.resize(n, 0);
  for (std::size_t i = 0; i < byte_len; ++i) {
    out[n - 1 - i] = static_cast<std::uint8_t>(limbs_[i / 8] >> (8 * (i % 8)));
  }
  return out;
}

std::size_t BigUint::bit_length() const {
  if (limbs_.empty()) return 0;
  return (limbs_.size() - 1) * 64 +
         static_cast<std::size_t>(std::bit_width(limbs_.back()));
}

bool BigUint::bit(std::size_t i) const {
  const std::size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

int BigUint::compare(const BigUint& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() < other.limbs_.size() ? -1 : 1;
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) {
      return limbs_[i] < other.limbs_[i] ? -1 : 1;
    }
  }
  return 0;
}

BigUint BigUint::add(const BigUint& other) const {
  BigUint out;
  const std::size_t n = std::max(limbs_.size(), other.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  u64 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    u128 sum = carry;
    if (i < limbs_.size()) sum += limbs_[i];
    if (i < other.limbs_.size()) sum += other.limbs_[i];
    out.limbs_[i] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> 64);
  }
  out.limbs_[n] = carry;
  out.trim();
  return out;
}

BigUint BigUint::sub(const BigUint& other) const {
  if (*this < other) throw common::CryptoError("BigUint::sub underflow");
  BigUint out;
  out.limbs_.resize(limbs_.size(), 0);
  u64 borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    u128 diff = static_cast<u128>(limbs_[i]) - borrow;
    if (i < other.limbs_.size()) diff -= other.limbs_[i];
    out.limbs_[i] = static_cast<u64>(diff);
    borrow = static_cast<u64>(diff >> 64) & 1;  // the high half wraps to ~0
  }
  out.trim();
  return out;
}

BigUint BigUint::mul(const BigUint& other) const {
  if (is_zero() || other.is_zero()) return BigUint();
  BigUint out;
  out.limbs_.assign(limbs_.size() + other.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    u64 carry = 0;
    const u64 a = limbs_[i];
    for (std::size_t j = 0; j < other.limbs_.size(); ++j) {
      const u128 cur = static_cast<u128>(a) * other.limbs_[j] +
                       out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    out.limbs_[i + other.limbs_.size()] = carry;  // no earlier row reached it
  }
  out.trim();
  return out;
}

BigUint BigUint::shift_left(std::size_t bits) const {
  if (is_zero()) return BigUint();
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  BigUint out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
    if (bit_shift != 0) {
      out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
    }
  }
  out.trim();
  return out;
}

BigUint BigUint::shift_right(std::size_t bits) const {
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  if (limb_shift >= limbs_.size()) return BigUint();
  BigUint out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      out.limbs_[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
  }
  out.trim();
  return out;
}

std::pair<BigUint, BigUint> BigUint::divmod(const BigUint& divisor) const {
  if (divisor.is_zero()) throw common::CryptoError("BigUint divide by zero");
  if (*this < divisor) return {BigUint(), *this};

  // Short division for single-limb divisors.
  if (divisor.limbs_.size() == 1) {
    const u64 d = divisor.limbs_[0];
    BigUint quotient;
    quotient.limbs_.assign(limbs_.size(), 0);
    u64 rem = 0;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
      const u128 cur = (static_cast<u128>(rem) << 64) | limbs_[i];
      quotient.limbs_[i] = static_cast<u64>(cur / d);
      rem = static_cast<u64>(cur % d);
    }
    quotient.trim();
    return {quotient, BigUint(rem)};
  }

  // Knuth TAOCP vol. 2, Algorithm D (multi-limb division).
  const std::size_t n = divisor.limbs_.size();
  const std::size_t m = limbs_.size() - n;

  // D1: normalize so the divisor's top limb has its MSB set.
  const auto shift =
      static_cast<std::size_t>(std::countl_zero(divisor.limbs_.back()));
  std::vector<u64> u = shift_left(shift).limbs_;
  u.resize(limbs_.size() + 1, 0);
  const std::vector<u64> v = divisor.shift_left(shift).limbs_;

  BigUint quotient;
  quotient.limbs_.assign(m + 1, 0);

  for (std::size_t j = m + 1; j-- > 0;) {
    // D3: estimate qhat. The product is formed only once qhat < 2^64, and
    // the shift only while rhat < 2^64, so neither overflows 128 bits.
    const u128 num = (static_cast<u128>(u[j + n]) << 64) | u[j + n - 1];
    u128 qhat = num / v[n - 1];
    u128 rhat = num % v[n - 1];
    while (qhat > UINT64_MAX ||
           qhat * v[n - 2] > ((rhat << 64) | u[j + n - 2])) {
      --qhat;
      rhat += v[n - 1];
      if (rhat > UINT64_MAX) break;
    }

    // D4: multiply-subtract u[j..j+n] -= qhat * v.
    u64 borrow = 0;
    u64 carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const u128 prod = qhat * v[i] + carry;
      carry = static_cast<u64>(prod >> 64);
      const u128 diff =
          static_cast<u128>(u[i + j]) - static_cast<u64>(prod) - borrow;
      u[i + j] = static_cast<u64>(diff);
      borrow = static_cast<u64>(diff >> 64) & 1;
    }
    const u128 diff = static_cast<u128>(u[j + n]) - carry - borrow;
    u[j + n] = static_cast<u64>(diff);
    borrow = static_cast<u64>(diff >> 64) & 1;

    // D5/D6: if we subtracted too much, add back one divisor.
    if (borrow != 0) {
      --qhat;
      u64 c = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const u128 sum = static_cast<u128>(u[i + j]) + v[i] + c;
        u[i + j] = static_cast<u64>(sum);
        c = static_cast<u64>(sum >> 64);
      }
      u[j + n] += c;
    }

    quotient.limbs_[j] = static_cast<u64>(qhat);
  }

  quotient.trim();
  return {quotient, BigUint(u.data(), u.data() + n).shift_right(shift)};
}

BigUint BigUint::modexp(const BigUint& exp, const BigUint& m) const {
  const obs::ProfileZone zone("crypto/modexp");
  if (m.is_zero()) throw common::CryptoError("modexp: zero modulus");
  if (m.is_odd()) return mont64_modexp(*this, exp, m);
  return modexp_plain(exp, m);
}

BigUint BigUint::modexp_plain(const BigUint& exp, const BigUint& m) const {
  if (m.is_zero()) throw common::CryptoError("modexp: zero modulus");
  BigUint result(1);
  result = result.mod(m);
  BigUint base = mod(m);
  const std::size_t nbits = exp.bit_length();
  for (std::size_t i = 0; i < nbits; ++i) {
    if (exp.bit(i)) result = result.mul(base).mod(m);
    base = base.mul(base).mod(m);
  }
  return result;
}

BigUint BigUint::gcd(BigUint a, BigUint b) {
  while (!b.is_zero()) {
    BigUint r = a.mod(b);
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigUint BigUint::modinv(const BigUint& a, const BigUint& m) {
  // Extended Euclid tracking coefficients as (sign, magnitude) pairs.
  BigUint old_r = a.mod(m), r = m;
  BigUint old_s(1), s(0);
  bool old_s_neg = false, s_neg = false;

  while (!r.is_zero()) {
    auto [q, rem] = old_r.divmod(r);
    old_r = std::move(r);
    r = std::move(rem);

    // new_s = old_s - q*s  (signed arithmetic on magnitudes).
    BigUint qs = q.mul(s);
    BigUint new_s;
    bool new_s_neg;
    if (old_s_neg == s_neg) {
      if (old_s >= qs) {
        new_s = old_s.sub(qs);
        new_s_neg = old_s_neg;
      } else {
        new_s = qs.sub(old_s);
        new_s_neg = !old_s_neg;
      }
    } else {
      new_s = old_s.add(qs);
      new_s_neg = old_s_neg;
    }
    old_s = std::move(s);
    old_s_neg = s_neg;
    s = std::move(new_s);
    s_neg = new_s_neg;
  }

  if (old_r != BigUint(1)) {
    throw common::CryptoError("modinv: not invertible");
  }
  if (old_s_neg) return m.sub(old_s.mod(m));
  return old_s.mod(m);
}

BigUint BigUint::random_below(common::Rng& rng, const BigUint& bound) {
  if (bound.is_zero()) throw common::CryptoError("random_below(0)");
  const std::size_t bits = bound.bit_length();
  const std::size_t bytes = (bits + 7) / 8;
  while (true) {
    common::Bytes buf = rng.bytes(bytes);
    // Mask excess top bits.
    const std::size_t excess = bytes * 8 - bits;
    if (excess) buf[0] &= static_cast<std::uint8_t>(0xFF >> excess);
    BigUint candidate = from_bytes(buf);
    if (candidate < bound) return candidate;
  }
}

BigUint BigUint::random_bits(common::Rng& rng, std::size_t bits) {
  if (bits == 0) return BigUint();
  const std::size_t bytes = (bits + 7) / 8;
  common::Bytes buf = rng.bytes(bytes);
  const std::size_t excess = bytes * 8 - bits;
  buf[0] &= static_cast<std::uint8_t>(0xFF >> excess);
  buf[0] |= static_cast<std::uint8_t>(0x80 >> excess);  // force MSB
  return from_bytes(buf);
}

namespace {

/// The odd primes below 1024, packed greedily into groups whose product
/// fits in a uint32_t: one u64 remainder pass over a candidate's limbs per
/// group, then a cheap 32-bit remainder per prime.
struct SmallPrimeGroup {
  std::uint32_t product = 1;
  std::vector<std::uint32_t> primes;
};

const std::vector<SmallPrimeGroup>& small_prime_groups() {
  static const std::vector<SmallPrimeGroup> kGroups = [] {
    constexpr std::uint32_t kLimit = 1024;
    std::vector<bool> composite(kLimit, false);
    std::vector<SmallPrimeGroup> groups(1);
    for (std::uint32_t p = 3; p < kLimit; p += 2) {
      if (composite[p]) continue;
      for (std::uint32_t m = p * p; m < kLimit; m += 2 * p) composite[m] = true;
      if (static_cast<std::uint64_t>(groups.back().product) * p > UINT32_MAX) {
        groups.emplace_back();
      }
      groups.back().product *= p;
      groups.back().primes.push_back(p);
    }
    return groups;
  }();
  return kGroups;
}

/// True when some odd prime below 1024 divides the little-endian limbs. Each
/// limb enters as two 32-bit halves, so the remainder stays within 64 bits.
bool has_small_factor(const std::vector<std::uint64_t>& limbs) {
  for (const SmallPrimeGroup& group : small_prime_groups()) {
    std::uint64_t rem = 0;
    for (auto limb = limbs.rbegin(); limb != limbs.rend(); ++limb) {
      rem = ((rem << 32) | (*limb >> 32)) % group.product;
      rem = ((rem << 32) | (*limb & UINT32_MAX)) % group.product;
    }
    for (const std::uint32_t p : group.primes) {
      if (rem % p == 0) return true;
    }
  }
  return false;
}

}  // namespace

bool BigUint::is_probable_prime(common::Rng& rng, int rounds) const {
  if (bit_length() <= 10) {
    // Below 1024 trial division is exact, and the sieve below would
    // reject a small prime as its own factor.
    const std::uint64_t v = low_u64();
    if (v < 2) return false;
    for (std::uint64_t p = 2; p * p <= v; ++p) {
      if (v % p == 0) return false;
    }
    return true;
  }
  if (!is_odd() || has_small_factor(limbs_)) return false;

  // Write n-1 = d * 2^r.
  const BigUint one(1);
  const BigUint two(2);
  const BigUint n_minus_1 = sub(one);
  BigUint d = n_minus_1;
  std::size_t r = 0;
  while (!d.is_odd()) {
    d = d.shift_right(1);
    ++r;
  }

  for (int round = 0; round < rounds; ++round) {
    const BigUint a = two.add(random_below(rng, n_minus_1.sub(two)));
    BigUint x = a.modexp(d, *this);
    if (x == one || x == n_minus_1) continue;
    bool composite = true;
    for (std::size_t i = 0; i + 1 < r; ++i) {
      x = x.mul(x).mod(*this);
      if (x == n_minus_1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

BigUint BigUint::generate_prime(common::Rng& rng, std::size_t bits) {
  if (bits < 8) throw common::CryptoError("generate_prime: too few bits");
  // Candidate k's Miller-Rabin bases come from Rng(split_seed(mr_seed, k)),
  // not from `rng`: the caller's stream advances by exactly
  // 1 + k * ceil(bits / 64) words, and since the small-prime sieve in
  // is_probable_prime rejects only composites without drawing a base, the
  // sieve depth moves no key.
  const std::uint64_t mr_seed = rng.next_u64();
  for (std::uint64_t k = 1;; ++k) {
    BigUint candidate = random_bits(rng, bits);
    if (!candidate.is_odd()) candidate = candidate.add(BigUint(1));
    common::Rng mr_rng(common::split_seed(mr_seed, k));
    if (candidate.is_probable_prime(mr_rng, 12)) return candidate;
  }
}

std::uint64_t BigUint::low_u64() const {
  return limbs_.empty() ? 0 : limbs_[0];
}

}  // namespace iotls::crypto
