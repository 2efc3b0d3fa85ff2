#include "tls/secrets.hpp"

#include "crypto/aes128.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/hmac.hpp"
#include "crypto/kdf.hpp"

namespace iotls::tls {

SessionKeys derive_session_keys(common::BytesView premaster,
                                const Random32& client_random,
                                const Random32& server_random,
                                std::uint16_t cipher_suite) {
  common::ByteWriter salt;
  salt.raw(common::BytesView(client_random.data(), client_random.size()));
  salt.raw(common::BytesView(server_random.data(), server_random.size()));
  salt.u16(cipher_suite);

  SessionKeys keys;
  keys.master_secret = crypto::hkdf(salt.bytes(), premaster,
                                    "minitls master secret", 48);

  const common::Bytes prk =
      crypto::hkdf_extract(salt.bytes(), keys.master_secret);
  auto expand = [&](std::string_view label, std::size_t len) {
    return crypto::hkdf_expand(prk, common::to_bytes(label), len);
  };
  keys.client_key = expand("client key", 32);
  keys.server_key = expand("server key", 32);
  keys.client_mac_key = expand("client mac", 32);
  keys.server_mac_key = expand("server mac", 32);
  keys.client_nonce = expand("client nonce", 12);
  keys.server_nonce = expand("server nonce", 12);
  return keys;
}

SessionKeys derive_resumed_keys(common::BytesView master_secret,
                                const Random32& client_random,
                                const Random32& server_random,
                                std::uint16_t cipher_suite) {
  common::ByteWriter salt;
  salt.raw(common::BytesView(client_random.data(), client_random.size()));
  salt.raw(common::BytesView(server_random.data(), server_random.size()));
  salt.u16(cipher_suite);

  SessionKeys keys;
  keys.master_secret.assign(master_secret.begin(), master_secret.end());
  const common::Bytes prk =
      crypto::hkdf_extract(salt.bytes(), keys.master_secret);
  auto expand = [&](std::string_view label, std::size_t len) {
    return crypto::hkdf_expand(prk, common::to_bytes(label), len);
  };
  keys.client_key = expand("client key", 32);
  keys.server_key = expand("server key", 32);
  keys.client_mac_key = expand("client mac", 32);
  keys.server_mac_key = expand("server mac", 32);
  keys.client_nonce = expand("client nonce", 12);
  keys.server_nonce = expand("server nonce", 12);
  return keys;
}

common::Bytes seal_ticket(common::BytesView ticket_key,
                          std::uint16_t cipher_suite,
                          common::BytesView master_secret,
                          std::uint32_t issued_epoch) {
  common::ByteWriter pt;
  pt.u16(cipher_suite);
  pt.vec(master_secret, 2);
  pt.u32(issued_epoch);

  const common::Bytes enc_key = crypto::hkdf({}, ticket_key, "ticket enc", 32);
  const common::Bytes mac_key = crypto::hkdf({}, ticket_key, "ticket mac", 32);
  // Deterministic per-content nonce: unique per (suite, master).
  common::Bytes nonce = crypto::hmac_sha256(mac_key, pt.bytes());
  nonce.resize(12);
  const common::Bytes ct = crypto::chacha20_xor(enc_key, nonce, 0, pt.bytes());

  common::ByteWriter out;
  out.raw(nonce);
  out.vec(ct, 2);
  crypto::HmacSha256 mac(mac_key);
  mac.update(out.bytes());
  out.raw(mac.finish());
  return out.take();
}

std::optional<TicketContents> unseal_ticket(common::BytesView ticket_key,
                                            common::BytesView ticket) {
  try {
    const common::Bytes mac_key =
        crypto::hkdf({}, ticket_key, "ticket mac", 32);
    common::ByteReader r(ticket);
    const common::Bytes nonce = r.raw(12);
    const common::Bytes ct = r.vec(2);
    const common::Bytes tag = r.raw(crypto::kSha256DigestSize);
    r.expect_end("ticket");

    common::ByteWriter authed;
    authed.raw(nonce);
    authed.vec(ct, 2);
    crypto::HmacSha256 mac(mac_key);
    mac.update(authed.bytes());
    if (!common::constant_time_equal(mac.finish(), tag)) return std::nullopt;

    const common::Bytes enc_key =
        crypto::hkdf({}, ticket_key, "ticket enc", 32);
    const common::Bytes pt = crypto::chacha20_xor(enc_key, nonce, 0, ct);
    common::ByteReader pr(pt);
    TicketContents contents;
    contents.cipher_suite = pr.u16();
    contents.master_secret = pr.vec(2);
    contents.issued_epoch = pr.u32();
    pr.expect_end("ticket contents");
    return contents;
  } catch (const common::ParseError&) {
    return std::nullopt;
  }
}

common::Bytes compute_verify_data(common::BytesView master_secret,
                                  bool from_client,
                                  common::BytesView transcript_hash) {
  crypto::HmacSha256 mac(master_secret);
  mac.update(common::to_bytes(from_client ? "client finished"
                                          : "server finished"));
  mac.update(transcript_hash);
  common::Bytes out = mac.finish();
  out.resize(12);  // TLS Finished verify_data length
  return out;
}

RecordProtection::RecordProtection(std::uint16_t cipher_suite,
                                   common::Bytes key, common::Bytes mac_key,
                                   common::Bytes nonce)
    : suite_(cipher_suite),
      key_(std::move(key)),
      mac_key_(std::move(mac_key)),
      nonce_(std::move(nonce)) {
  const CipherSuiteInfo* info = suite_info(cipher_suite);
  cipher_ = info != nullptr ? info->cipher : BulkCipher::Aes128;
  if (nonce_.size() != 12) {
    throw common::CryptoError("record protection nonce must be 12 bytes");
  }
  if (cipher_ == BulkCipher::Rc4) rc4_.emplace(key_);
}

common::Bytes RecordProtection::keystream_xor(common::BytesView data,
                                              std::uint64_t seq) {
  // Per-record nonce: nonce XOR seq into the trailing 8 bytes.
  common::Bytes rec_nonce = nonce_;
  for (int i = 0; i < 8; ++i) {
    rec_nonce[4 + i] ^= static_cast<std::uint8_t>(seq >> (8 * (7 - i)));
  }

  switch (cipher_) {
    case BulkCipher::Null:
      return common::Bytes(data.begin(), data.end());
    case BulkCipher::ChaCha20:
      return crypto::chacha20_xor(key_, rec_nonce, 0, data);
    case BulkCipher::Rc4:
      return rc4_->apply(data);
    case BulkCipher::Aes128:
    case BulkCipher::Aes256:
    case BulkCipher::Des:
    case BulkCipher::TripleDes: {
      // AES-256 and DES/3DES run AES-128 on an HKDF-condensed key (see
      // header); suite identity is preserved via the derivation label.
      const char* label = cipher_ == BulkCipher::Aes256  ? "aes256"
                          : cipher_ == BulkCipher::Des   ? "des"
                          : cipher_ == BulkCipher::TripleDes ? "3des"
                                                            : "aes128";
      const common::Bytes aes_key =
          crypto::hkdf({}, key_, label, crypto::kAes128KeySize);
      return crypto::Aes128(aes_key).ctr_xor(rec_nonce, 0, data);
    }
  }
  throw common::CryptoError("unsupported bulk cipher");
}

common::Bytes RecordProtection::protect(common::BytesView plaintext) {
  const std::uint64_t seq = send_seq_++;
  common::Bytes ct = keystream_xor(plaintext, seq);

  crypto::HmacSha256 mac(mac_key_);
  common::ByteWriter aad;
  aad.u64(seq);
  aad.u16(suite_);
  mac.update(aad.bytes());
  mac.update(ct);
  const common::Bytes tag = mac.finish();

  ct.insert(ct.end(), tag.begin(), tag.end());
  return ct;
}

common::Bytes RecordProtection::unprotect(common::BytesView protected_data) {
  if (protected_data.size() < crypto::kSha256DigestSize) {
    throw common::CryptoError("protected record too short");
  }
  const std::uint64_t seq = recv_seq_++;
  const std::size_t ct_len =
      protected_data.size() - crypto::kSha256DigestSize;
  const common::BytesView ct = protected_data.first(ct_len);
  const common::BytesView tag = protected_data.subspan(ct_len);

  crypto::HmacSha256 mac(mac_key_);
  common::ByteWriter aad;
  aad.u64(seq);
  aad.u16(suite_);
  mac.update(aad.bytes());
  mac.update(ct);
  const common::Bytes expected = mac.finish();
  if (!common::constant_time_equal(expected, tag)) {
    throw common::CryptoError("record MAC verification failed");
  }
  return keystream_xor(ct, seq);
}

}  // namespace iotls::tls
