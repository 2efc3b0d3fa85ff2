// RSA key generation, PKCS#1-v1.5-style signing/verification and raw
// encryption for the RSA key-exchange ciphersuites.
//
// Signatures are what make the paper's root-store side channel *real*: a
// spoofed CA certificate carries the genuine subject/issuer/serial of a root
// but is signed with a different key, so verification fails with a true
// signature error rather than an unknown-issuer error.
#pragma once

#include <optional>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/bignum.hpp"

namespace iotls::crypto {

/// Default simulation modulus size. Large enough that signature forgery is
/// not accidental, small enough that generating ~250 CA keys stays fast.
inline constexpr std::size_t kDefaultRsaBits = 512;

struct RsaPublicKey {
  BigUint n;  // modulus
  BigUint e;  // public exponent

  [[nodiscard]] std::size_t modulus_bytes() const {
    return (n.bit_length() + 7) / 8;
  }
  [[nodiscard]] common::Bytes serialize() const;
  /// Inverse of serialize(). Only canonical integers are accepted: an
  /// empty field or a leading zero byte throws ParseError.
  static RsaPublicKey parse(common::BytesView data);
  bool operator==(const RsaPublicKey& other) const = default;
};

struct RsaPrivateKey {
  BigUint n;
  BigUint e;
  BigUint d;

  // CRT components (populated by rsa_generate; empty on keys parsed from a
  // legacy n||e||d serialization). With them, private-key operations run as
  // two half-size Montgomery exponentiations recombined by Garner's formula
  // — ~4x fewer limb multiplies than a full-width exponentiation.
  BigUint p;     // first prime factor
  BigUint q;     // second prime factor
  BigUint dp;    // d mod (p-1)
  BigUint dq;    // d mod (q-1)
  BigUint qinv;  // q^-1 mod p

  [[nodiscard]] bool has_crt() const { return !p.is_zero() && !q.is_zero(); }
  [[nodiscard]] RsaPublicKey public_key() const { return {n, e}; }

  /// n||e||d (each 2-byte length prefixed) followed, when present, by the
  /// five CRT components. parse() accepts both forms, so fixtures written
  /// before the CRT extension still load (has_crt() is then false and
  /// private ops fall back to the plain d-exponent path).
  [[nodiscard]] common::Bytes serialize() const;
  static RsaPrivateKey parse(common::BytesView data);
  bool operator==(const RsaPrivateKey& other) const = default;
};

struct RsaKeyPair {
  RsaPrivateKey priv;
  RsaPublicKey pub;
};

/// Generate an RSA keypair with the given modulus size. Memoised through
/// the process-wide keypair cache (crypto/cache.hpp): results are keyed by
/// the generator's state, so repeated constructions from the same derived
/// seed (per-device sandbox rebuilds, repeated CA universes in tests) reuse
/// one generation while consuming `rng` exactly as an uncached call would.
RsaKeyPair rsa_generate(common::Rng& rng, std::size_t bits = kDefaultRsaBits);

/// The RSA private-key primitive c^d mod n, via CRT when the key carries
/// its factorisation (Garner recombination) and the plain d-exponent path
/// otherwise. Exposed for bench_crypto and the CRT-vs-plain tests.
BigUint rsa_private_op(const RsaPrivateKey& key, const BigUint& c);

/// Sign SHA-256(message) with EMSA-PKCS1-v1_5-style padding.
common::Bytes rsa_sign(const RsaPrivateKey& key, common::BytesView message);

/// Verify a signature produced by rsa_sign. Verdicts are memoised in the
/// signature-verification cache (crypto/cache.hpp), which pays off for the
/// certificate signatures every chain validation re-checks.
bool rsa_verify(const RsaPublicKey& key, common::BytesView message,
                common::BytesView signature);

/// rsa_verify without the memo, for signatures over fresh per-connection
/// data: a ServerKeyExchange signs both hello randoms, so its verdict can
/// never be looked up again and caching it would only grow the cache.
bool rsa_verify_uncached(const RsaPublicKey& key, common::BytesView message,
                         common::BytesView signature);

/// Raw RSA encryption of a short secret (for the RSA key exchange).
/// Pads with random nonzero bytes, PKCS#1-v1.5 type 2 style.
common::Bytes rsa_encrypt(const RsaPublicKey& key, common::Rng& rng,
                          common::BytesView plaintext);

/// Decrypt; returns nullopt if padding is malformed.
std::optional<common::Bytes> rsa_decrypt(const RsaPrivateKey& key,
                                         common::BytesView ciphertext);

}  // namespace iotls::crypto
