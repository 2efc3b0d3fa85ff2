// 64-bit-limb Montgomery kernel: the single odd-modulus modexp path.
//
// `BigUint::modexp` sends every odd modulus (every RSA and DH modulus, and
// each Miller-Rabin candidate during key generation) here through
// `mont64_modexp`, and keeps the schoolbook `modexp_plain` for even moduli
// and as the test oracle. The kernel:
//
//   - works on `BigUint`'s own 64-bit limbs: it copies the modulus and base
//     into zero-padded arrays, reads exponent bits and 4-bit windows as
//     stored, and builds its result from its limbs, with no repacking;
//   - is one body, a template over the limb count N, compiled at
//     N = 1, 2, 4, 8, 16 and 32. Operands and scratch are `std::array`s on
//     the stack, so the CIOS multiply, the SOS square and the doubling step
//     of the g = 2 ladder run fixed-trip loops the compiler unrolls. The
//     study's moduli are all 4 limbs (the 512-bit keys' CRT primes, the DH
//     groups, the Miller-Rabin candidates) or 8 limbs (RSA public ops);
//   - zero-pads a modulus up to the next compiled width. R = 2^(64N) still
//     exceeds m, so every result is exactly base^exp mod m;
//   - runs moduli above 2048 bits (only a hostile certificate key reaches
//     them) through the same body at a runtime width, over heap limbs;
//   - picks the exponent schedule from the exponent's length: a 1-bit
//     ladder below `kMont64WindowBits` bits (e = 65537 builds no table),
//     fixed 4-bit windows from there up;
//   - is constructed once per modulus and cached per thread, so the
//     Newton-inverse and R^2 setup of a hot modulus (a server key's CRT
//     primes, the fixed DH group primes) amortises to zero.
//
// The kernel computes exactly base^exp mod m, bit-identical to the
// schoolbook oracle, so neither the width nor the cache changes what is
// computed (the determinism contract).
#pragma once

#include <cstddef>

#include "crypto/bignum.hpp"

namespace iotls::crypto {

/// Widest compiled limb count; wider moduli run the body at runtime width.
inline constexpr std::size_t kMont64MaxFixedLimbs = 32;

/// Exponents of at least this many bits use 4-bit windows; shorter ones
/// use the 1-bit ladder. At about this length the 14 multiplies that
/// build the window table are paid back by the multiplies they save.
inline constexpr std::size_t kMont64WindowBits = 64;

/// base^exp mod m through this thread's cache of kernel contexts. Throws
/// CryptoError unless `m` is odd. The cache is move-to-front and holds at
/// most 32 contexts: a key-generation loop builds one context per prime
/// candidate, and the bound keeps that churn from growing the cache
/// without limit while the few hot moduli stay at the front.
[[nodiscard]] BigUint mont64_modexp(const BigUint& base, const BigUint& exp,
                                    const BigUint& m);

/// Number of contexts currently cached on this thread (tests).
[[nodiscard]] std::size_t mont64_context_count();

/// Drop this thread's cached contexts (tests; values re-derive identically).
void mont64_contexts_clear();

}  // namespace iotls::crypto
