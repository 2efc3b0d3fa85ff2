#include "crypto/rsa.hpp"

#include "common/rng.hpp"
#include "crypto/cache.hpp"
#include "crypto/sha256.hpp"
#include "obs/profile.hpp"

namespace iotls::crypto {

common::Bytes RsaPublicKey::serialize() const {
  common::ByteWriter w;
  w.vec(n.to_bytes(), 2);
  w.vec(e.to_bytes(), 2);
  return w.take();
}

namespace {

/// A public-key integer: non-empty, with no leading zero byte, so every
/// accepted key re-serializes to the bytes it was parsed from (a
/// certificate is verified over its re-serialized TBS).
BigUint parse_canonical(common::ByteReader& r, const char* field) {
  const common::Bytes bytes = r.vec(2);
  if (bytes.empty() || bytes.front() == 0) {
    throw common::ParseError(std::string("RsaPublicKey: non-canonical ") +
                             field);
  }
  return BigUint::from_bytes(bytes);
}

}  // namespace

RsaPublicKey RsaPublicKey::parse(common::BytesView data) {
  common::ByteReader r(data);
  RsaPublicKey key;
  key.n = parse_canonical(r, "modulus");
  key.e = parse_canonical(r, "exponent");
  r.expect_end("RsaPublicKey");
  return key;
}

namespace {

RsaKeyPair rsa_generate_impl(common::Rng& rng, std::size_t bits) {
  const BigUint e(65537);
  const BigUint one(1);
  while (true) {
    const BigUint p = BigUint::generate_prime(rng, bits / 2);
    const BigUint q = BigUint::generate_prime(rng, bits - bits / 2);
    if (p == q) continue;
    const BigUint n = p.mul(q);
    const BigUint p1 = p.sub(one);
    const BigUint q1 = q.sub(one);
    const BigUint phi = p1.mul(q1);
    if (BigUint::gcd(e, phi) != one) continue;
    const BigUint d = BigUint::modinv(e, phi);
    RsaKeyPair pair;
    pair.priv = RsaPrivateKey{n, e, d, p, q, d.mod(p1), d.mod(q1),
                              BigUint::modinv(q, p)};
    pair.pub = RsaPublicKey{n, e};
    return pair;
  }
}

}  // namespace

RsaKeyPair rsa_generate(common::Rng& rng, std::size_t bits) {
  if (bits < 128) throw common::CryptoError("rsa_generate: modulus too small");
  // The generation is a pure function of (generator state, bits), so a hit
  // returns the memoised pair and fast-forwards the generator to the state
  // the generation left: downstream draws (a CA's serial prefix, a
  // server's next key) are byte-identical either way.
  KeypairEntry entry = keypair_cache().get_or_compute(
      [&] { return KeypairKey{rng.state(), bits}; },
      [&] {
        RsaKeyPair pair = rsa_generate_impl(rng, bits);
        return KeypairEntry{std::move(pair), rng.state()};
      });
  rng.set_state(entry.post_state);
  return std::move(entry.pair);
}

BigUint rsa_private_op(const RsaPrivateKey& key, const BigUint& c) {
  const obs::ProfileZone zone("crypto/rsa_private_op");
  if (!key.has_crt()) return c.modexp(key.d, key.n);
  // Garner: m1 = c^dp mod p, m2 = c^dq mod q,
  //         m  = m2 + q * (qinv * (m1 - m2) mod p).
  const BigUint m1 = c.modexp(key.dp, key.p);
  const BigUint m2 = c.modexp(key.dq, key.q);
  const BigUint m2p = m2.mod(key.p);
  const BigUint diff =
      m1 >= m2p ? m1.sub(m2p) : m1.add(key.p).sub(m2p);
  const BigUint h = key.qinv.mul(diff).mod(key.p);
  return m2.add(h.mul(key.q));
}

namespace {

// EMSA-PKCS1-v1_5-style encoding: 0x00 0x01 FF..FF 0x00 || sha256-label || digest
common::Bytes emsa_encode(common::BytesView message, std::size_t em_len) {
  static constexpr std::uint8_t kDigestLabel[] = {'s', 'h', 'a', '2', '5', '6'};
  const Sha256Digest digest = Sha256::digest(message);
  const std::size_t t_len = sizeof(kDigestLabel) + digest.size();
  if (em_len < t_len + 11) {
    throw common::CryptoError("rsa: modulus too small for digest encoding");
  }
  common::Bytes em(em_len, 0xFF);
  em[0] = 0x00;
  em[1] = 0x01;
  em[em_len - t_len - 1] = 0x00;
  std::copy(std::begin(kDigestLabel), std::end(kDigestLabel),
            em.end() - static_cast<std::ptrdiff_t>(t_len));
  std::copy(digest.begin(), digest.end(),
            em.end() - static_cast<std::ptrdiff_t>(digest.size()));
  return em;
}

bool rsa_verify_impl(const RsaPublicKey& key, common::BytesView message,
                     common::BytesView signature, std::size_t k) {
  const BigUint s = BigUint::from_bytes(signature);
  if (s >= key.n) return false;
  const BigUint m = s.modexp(key.e, key.n);
  common::Bytes em;
  try {
    em = m.to_bytes(k);
  } catch (const common::CryptoError&) {
    return false;
  }
  const common::Bytes expected = emsa_encode(message, k);
  return common::constant_time_equal(em, expected);
}

}  // namespace

common::Bytes rsa_sign(const RsaPrivateKey& key, common::BytesView message) {
  const std::size_t k = (key.n.bit_length() + 7) / 8;
  const common::Bytes em = emsa_encode(message, k);
  const BigUint m = BigUint::from_bytes(em);
  const BigUint s = rsa_private_op(key, m);
  return s.to_bytes(k);
}

bool rsa_verify(const RsaPublicKey& key, common::BytesView message,
                common::BytesView signature) {
  // Signatures are exactly k bytes (rsa_sign zero-pads to the modulus
  // width, so a leading zero byte is legitimate); any other length —
  // including a non-minimal k+1-byte encoding with an extra leading zero —
  // is rejected before touching the bignum layer. For the accepted width,
  // BigUint::from_bytes ∘ to_bytes(k) round-trips the buffer bit-for-bit,
  // so the cache key below and the modexp below see the same canonical
  // value regardless of leading zeros.
  const std::size_t k = (key.n.bit_length() + 7) / 8;
  if (signature.size() != k) return false;

  const auto cache_key = [&] {
    Sha256 h;
    common::ByteWriter prefix;
    prefix.vec(key.n.to_bytes(), 2);
    prefix.vec(key.e.to_bytes(), 2);
    h.update(prefix.bytes());
    h.update(Sha256::digest(message));
    h.update(Sha256::digest(signature));
    return h.finish();
  };
  return sig_verify_cache().get_or_compute(cache_key, [&] {
           return std::uint64_t{
               rsa_verify_impl(key, message, signature, k) ? 1U : 0U};
         }) != 0;
}

bool rsa_verify_uncached(const RsaPublicKey& key, common::BytesView message,
                         common::BytesView signature) {
  const std::size_t k = (key.n.bit_length() + 7) / 8;
  if (signature.size() != k) return false;
  return rsa_verify_impl(key, message, signature, k);
}

common::Bytes rsa_encrypt(const RsaPublicKey& key, common::Rng& rng,
                          common::BytesView plaintext) {
  const std::size_t k = key.modulus_bytes();
  if (plaintext.size() + 11 > k) {
    throw common::CryptoError("rsa_encrypt: message too long");
  }
  common::Bytes em(k, 0);
  em[0] = 0x00;
  em[1] = 0x02;
  const std::size_t pad_len = k - 3 - plaintext.size();
  for (std::size_t i = 0; i < pad_len; ++i) {
    std::uint8_t b = 0;
    while (b == 0) b = static_cast<std::uint8_t>(rng.range(1, 255));
    em[2 + i] = b;
  }
  em[2 + pad_len] = 0x00;
  std::copy(plaintext.begin(), plaintext.end(),
            em.begin() + static_cast<std::ptrdiff_t>(3 + pad_len));
  const BigUint m = BigUint::from_bytes(em);
  return m.modexp(key.e, key.n).to_bytes(k);
}

std::optional<common::Bytes> rsa_decrypt(const RsaPrivateKey& key,
                                         common::BytesView ciphertext) {
  const std::size_t k = (key.n.bit_length() + 7) / 8;
  if (ciphertext.size() != k) return std::nullopt;
  const BigUint c = BigUint::from_bytes(ciphertext);
  if (c >= key.n) return std::nullopt;
  common::Bytes em;
  try {
    em = rsa_private_op(key, c).to_bytes(k);
  } catch (const common::CryptoError&) {
    return std::nullopt;
  }
  if (em.size() < 11 || em[0] != 0x00 || em[1] != 0x02) return std::nullopt;
  std::size_t sep = 2;
  while (sep < em.size() && em[sep] != 0x00) ++sep;
  if (sep == em.size() || sep < 10) return std::nullopt;
  return common::Bytes(em.begin() + static_cast<std::ptrdiff_t>(sep + 1),
                       em.end());
}

}  // namespace iotls::crypto
