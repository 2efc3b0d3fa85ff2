#include "crypto/rsa.hpp"

#include <array>
#include <mutex>
#include <unordered_map>

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

RsaPublicKey RsaPublicKey::parse(common::BytesView data) {
  common::ByteReader r(data);
  RsaPublicKey key;
  key.n = BigUint::from_bytes(r.vec(2));
  key.e = BigUint::from_bytes(r.vec(2));
  r.expect_end("RsaPublicKey");
  return key;
}

common::Bytes RsaPrivateKey::serialize() const {
  common::ByteWriter w;
  w.vec(n.to_bytes(), 2);
  w.vec(e.to_bytes(), 2);
  w.vec(d.to_bytes(), 2);
  if (has_crt()) {
    w.vec(p.to_bytes(), 2);
    w.vec(q.to_bytes(), 2);
    w.vec(dp.to_bytes(), 2);
    w.vec(dq.to_bytes(), 2);
    w.vec(qinv.to_bytes(), 2);
  }
  return w.take();
}

RsaPrivateKey RsaPrivateKey::parse(common::BytesView data) {
  common::ByteReader r(data);
  RsaPrivateKey key;
  key.n = BigUint::from_bytes(r.vec(2));
  key.e = BigUint::from_bytes(r.vec(2));
  key.d = BigUint::from_bytes(r.vec(2));
  if (!r.empty()) {  // CRT extension; absent in legacy fixtures
    key.p = BigUint::from_bytes(r.vec(2));
    key.q = BigUint::from_bytes(r.vec(2));
    key.dp = BigUint::from_bytes(r.vec(2));
    key.dq = BigUint::from_bytes(r.vec(2));
    key.qinv = BigUint::from_bytes(r.vec(2));
  }
  r.expect_end("RsaPrivateKey");
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

// ---- keypair cache ----
//
// Keyed by (generator state, modulus bits): the generation is a pure
// function of those, so a hit can return the memoised pair and fast-forward
// the generator to the memoised post-generation state — downstream draws
// (a CA's serial prefix, a server's next key) are byte-identical either
// way. Sharded + mutex-guarded: the CA universe and sandboxes generate
// concurrently.

struct KeypairKey {
  common::Rng::State state;
  std::size_t bits;

  bool operator==(const KeypairKey& other) const = default;
};

struct KeypairKeyHash {
  std::size_t operator()(const KeypairKey& k) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::uint64_t word : k.state) {
      h = (h ^ word) * 0x100000001b3ULL;
    }
    h = (h ^ k.bits) * 0x100000001b3ULL;
    return static_cast<std::size_t>(h);
  }
};

struct KeypairEntry {
  RsaKeyPair pair;
  common::Rng::State post_state;
};

struct KeypairShard {
  std::mutex mutex;
  std::unordered_map<KeypairKey, KeypairEntry, KeypairKeyHash> map;
};

constexpr std::size_t kKeypairShards = 16;
constexpr std::size_t kKeypairMaxPerShard = 1 << 14;

std::array<KeypairShard, kKeypairShards>& keypair_shards() {
  static std::array<KeypairShard, kKeypairShards> shards;
  return shards;
}

KeypairShard& keypair_shard(const KeypairKey& key) {
  return keypair_shards()[KeypairKeyHash{}(key) % kKeypairShards];
}

}  // namespace

namespace detail {
void keypair_cache_clear() {
  for (KeypairShard& shard : keypair_shards()) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.map.clear();
  }
}
}  // namespace detail

RsaKeyPair rsa_generate(common::Rng& rng, std::size_t bits) {
  if (bits < 128) throw common::CryptoError("rsa_generate: modulus too small");
  if (!crypto_cache_enabled()) return rsa_generate_impl(rng, bits);

  const KeypairKey key{rng.state(), bits};
  KeypairShard& shard = keypair_shard(key);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      rng.set_state(it->second.post_state);
      count_cache_hit("keypair");
      return it->second.pair;
    }
  }
  count_cache_miss("keypair");
  RsaKeyPair pair = rsa_generate_impl(rng, bits);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.map.size() >= kKeypairMaxPerShard) shard.map.clear();
    shard.map.emplace(key, KeypairEntry{pair, rng.state()});
  }
  return pair;
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

  if (!crypto_cache_enabled()) {
    return rsa_verify_impl(key, message, signature, k);
  }

  Sha256 h;
  common::ByteWriter prefix;
  prefix.vec(key.n.to_bytes(), 2);
  prefix.vec(key.e.to_bytes(), 2);
  h.update(prefix.bytes());
  const Sha256Digest msg_digest = Sha256::digest(message);
  const Sha256Digest sig_digest = Sha256::digest(signature);
  h.update(msg_digest);
  h.update(sig_digest);
  const DigestCache::Key cache_key = h.finish();

  if (const auto cached = sig_verify_cache().lookup(cache_key)) {
    return *cached != 0;
  }
  const bool ok = rsa_verify_impl(key, message, signature, k);
  sig_verify_cache().store(cache_key, ok ? 1 : 0);
  return ok;
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
