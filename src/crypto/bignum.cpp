#include "crypto/bignum.hpp"

#include <algorithm>

#include "common/hex.hpp"
#include "crypto/mont64.hpp"
#include "obs/profile.hpp"

namespace iotls::crypto {

void BigUint::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUint::BigUint(std::uint64_t value) {
  if (value != 0) {
    limbs_.push_back(static_cast<std::uint32_t>(value));
    if (value >> 32) limbs_.push_back(static_cast<std::uint32_t>(value >> 32));
  }
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
  out.limbs_.resize((n + 3) / 4, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t byte = data[n - 1 - i];
    out.limbs_[i / 4] |= static_cast<std::uint32_t>(byte) << (8 * (i % 4));
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
    out[n - 1 - i] = static_cast<std::uint8_t>(
        limbs_[i / 4] >> (8 * (i % 4)));
  }
  return out;
}

std::size_t BigUint::bit_length() const {
  if (limbs_.empty()) return 0;
  std::size_t bits = (limbs_.size() - 1) * 32;
  std::uint32_t top = limbs_.back();
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigUint::bit(std::size_t i) const {
  const std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
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
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t sum = carry;
    if (i < limbs_.size()) sum += limbs_[i];
    if (i < other.limbs_.size()) sum += other.limbs_[i];
    out.limbs_[i] = static_cast<std::uint32_t>(sum);
    carry = sum >> 32;
  }
  out.limbs_[n] = static_cast<std::uint32_t>(carry);
  out.trim();
  return out;
}

BigUint BigUint::sub(const BigUint& other) const {
  if (*this < other) throw common::CryptoError("BigUint::sub underflow");
  BigUint out;
  out.limbs_.resize(limbs_.size(), 0);
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(limbs_[i]) - borrow;
    if (i < other.limbs_.size()) diff -= other.limbs_[i];
    if (diff < 0) {
      diff += (std::int64_t{1} << 32);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<std::uint32_t>(diff);
  }
  out.trim();
  return out;
}

BigUint BigUint::mul(const BigUint& other) const {
  if (is_zero() || other.is_zero()) return BigUint();
  BigUint out;
  out.limbs_.assign(limbs_.size() + other.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    const std::uint64_t a = limbs_[i];
    for (std::size_t j = 0; j < other.limbs_.size(); ++j) {
      std::uint64_t cur =
          out.limbs_[i + j] + a * other.limbs_[j] + carry;
      out.limbs_[i + j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    std::size_t k = i + other.limbs_.size();
    while (carry) {
      std::uint64_t cur = out.limbs_[k] + carry;
      out.limbs_[k] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  out.trim();
  return out;
}

BigUint BigUint::shift_left(std::size_t bits) const {
  if (is_zero()) return BigUint();
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  BigUint out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const std::uint64_t v = static_cast<std::uint64_t>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<std::uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<std::uint32_t>(v >> 32);
  }
  out.trim();
  return out;
}

BigUint BigUint::shift_right(std::size_t bits) const {
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  if (limb_shift >= limbs_.size()) return BigUint();
  BigUint out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    std::uint64_t v = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<std::uint64_t>(limbs_[i + limb_shift + 1])
           << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<std::uint32_t>(v);
  }
  out.trim();
  return out;
}

std::pair<BigUint, BigUint> BigUint::divmod(const BigUint& divisor) const {
  if (divisor.is_zero()) throw common::CryptoError("BigUint divide by zero");
  if (*this < divisor) return {BigUint(), *this};

  // Short division for single-limb divisors.
  if (divisor.limbs_.size() == 1) {
    const std::uint64_t d = divisor.limbs_[0];
    BigUint quotient;
    quotient.limbs_.assign(limbs_.size(), 0);
    std::uint64_t rem = 0;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
      const std::uint64_t cur = (rem << 32) | limbs_[i];
      quotient.limbs_[i] = static_cast<std::uint32_t>(cur / d);
      rem = cur % d;
    }
    quotient.trim();
    return {quotient, BigUint(rem)};
  }

  // Knuth TAOCP vol. 2, Algorithm D (multi-limb division).
  const std::size_t n = divisor.limbs_.size();
  const std::size_t m = limbs_.size() - n;

  // D1: normalize so the divisor's top limb has its MSB set.
  int shift = 0;
  {
    std::uint32_t top = divisor.limbs_.back();
    while ((top & 0x80000000u) == 0) {
      top <<= 1;
      ++shift;
    }
  }
  const BigUint u_norm = shift_left(static_cast<std::size_t>(shift));
  const BigUint v_norm = divisor.shift_left(static_cast<std::size_t>(shift));
  std::vector<std::uint32_t> u = u_norm.limbs_;
  u.resize(limbs_.size() + 1, 0);
  const std::vector<std::uint32_t>& v = v_norm.limbs_;

  BigUint quotient;
  quotient.limbs_.assign(m + 1, 0);

  for (std::size_t j = m + 1; j-- > 0;) {
    // D3: estimate qhat.
    const std::uint64_t num =
        (static_cast<std::uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    std::uint64_t qhat = num / v[n - 1];
    std::uint64_t rhat = num % v[n - 1];
    while (qhat > 0xFFFFFFFFULL ||
           qhat * v[n - 2] > ((rhat << 32) | u[j + n - 2])) {
      --qhat;
      rhat += v[n - 1];
      if (rhat > 0xFFFFFFFFULL) break;
    }

    // D4: multiply-subtract u[j..j+n] -= qhat * v.
    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t prod = qhat * v[i] + carry;
      carry = prod >> 32;
      const std::int64_t diff = static_cast<std::int64_t>(u[i + j]) -
                                static_cast<std::int64_t>(prod & 0xFFFFFFFF) +
                                borrow;
      u[i + j] = static_cast<std::uint32_t>(diff);
      borrow = diff >> 32;  // arithmetic shift: 0 or -1
    }
    const std::int64_t diff = static_cast<std::int64_t>(u[j + n]) -
                              static_cast<std::int64_t>(carry) + borrow;
    u[j + n] = static_cast<std::uint32_t>(diff);
    borrow = diff >> 32;

    // D5/D6: if we subtracted too much, add back one divisor.
    if (borrow != 0) {
      --qhat;
      std::uint64_t c = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t sum =
            static_cast<std::uint64_t>(u[i + j]) + v[i] + c;
        u[i + j] = static_cast<std::uint32_t>(sum);
        c = sum >> 32;
      }
      u[j + n] += static_cast<std::uint32_t>(c);
    }

    quotient.limbs_[j] = static_cast<std::uint32_t>(qhat);
  }

  quotient.trim();

  BigUint remainder;
  remainder.limbs_.assign(u.begin(), u.begin() + static_cast<std::ptrdiff_t>(n));
  remainder.trim();
  remainder = remainder.shift_right(static_cast<std::size_t>(shift));
  return {quotient, remainder};
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

/// True when some odd prime below 1024 divides the little-endian limbs.
bool has_small_factor(const std::vector<std::uint32_t>& limbs) {
  for (const SmallPrimeGroup& group : small_prime_groups()) {
    std::uint64_t rem = 0;
    for (auto limb = limbs.rbegin(); limb != limbs.rend(); ++limb) {
      rem = ((rem << 32) | *limb) % group.product;
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
  std::uint64_t v = 0;
  if (!limbs_.empty()) v = limbs_[0];
  if (limbs_.size() > 1) v |= static_cast<std::uint64_t>(limbs_[1]) << 32;
  return v;
}

}  // namespace iotls::crypto
