// minitls key schedule and record protection.
//
// All versions derive master/record secrets through HKDF (DESIGN.md notes
// this simplification vs the TLS<=1.2 PRF). Record protection is
// encrypt-then-HMAC with the suite's bulk cipher:
//   AES_128/AES_256 → AES-128-CTR (AES-256 keys are HKDF-condensed to 128),
//   CHACHA20        → ChaCha20,
//   RC4             → RC4 (real): one keystream per direction, keyed by the
//                     32-byte record key and continued across records as
//                     in TLS, so no two records share keystream bytes and
//                     the first record's bytes are plain RC4 under the key,
//   DES/3DES        → AES-128-CTR with a "des"/"3des" key label (substitute),
//   NULL            → plaintext.
#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.hpp"
#include "tls/ciphersuite.hpp"
#include "tls/messages.hpp"
#include "tls/rc4.hpp"

namespace iotls::tls {

struct SessionKeys {
  common::Bytes client_key;
  common::Bytes server_key;
  common::Bytes client_mac_key;
  common::Bytes server_mac_key;
  common::Bytes client_nonce;  // 12 bytes
  common::Bytes server_nonce;  // 12 bytes
  common::Bytes master_secret;
};

/// Derive the full key block from the premaster secret and both randoms.
SessionKeys derive_session_keys(common::BytesView premaster,
                                const Random32& client_random,
                                const Random32& server_random,
                                std::uint16_t cipher_suite);

/// Resumption (RFC 5077): derive fresh record keys from an *existing*
/// master secret and the new connection's randoms.
SessionKeys derive_resumed_keys(common::BytesView master_secret,
                                const Random32& client_random,
                                const Random32& server_random,
                                std::uint16_t cipher_suite);

/// Stateless session tickets: the server seals {suite, master secret,
/// issue epoch} under its ticket key; only the holder of the ticket key
/// can recover or forge ticket contents (authenticated encryption).
/// `issued_epoch` is the server's coarse ticket clock at issue time — the
/// lifetime policy (RFC 5077 §4's ticket_lifetime_hint, modeled as whole
/// epochs) compares it against the clock at resumption time.
common::Bytes seal_ticket(common::BytesView ticket_key,
                          std::uint16_t cipher_suite,
                          common::BytesView master_secret,
                          std::uint32_t issued_epoch = 0);

struct TicketContents {
  std::uint16_t cipher_suite = 0;
  common::Bytes master_secret;
  std::uint32_t issued_epoch = 0;
};

/// nullopt on MAC failure or malformed ticket.
std::optional<TicketContents> unseal_ticket(common::BytesView ticket_key,
                                            common::BytesView ticket);

/// Finished verify_data = HMAC(master, label || transcript_hash).
common::Bytes compute_verify_data(common::BytesView master_secret,
                                  bool from_client,
                                  common::BytesView transcript_hash);

/// Stateful one-direction record protector (sequence-numbered). Records
/// must pass through in sequence order; an RC4 protector's keystream
/// advances with each record it seals or accepts.
class RecordProtection {
 public:
  RecordProtection(std::uint16_t cipher_suite, common::Bytes key,
                   common::Bytes mac_key, common::Bytes nonce);

  /// Encrypt-then-MAC; output = ciphertext || 32-byte tag.
  common::Bytes protect(common::BytesView plaintext);
  /// Verify MAC and decrypt; throws CryptoError on tag mismatch.
  common::Bytes unprotect(common::BytesView protected_data);

 private:
  common::Bytes keystream_xor(common::BytesView data, std::uint64_t seq);

  std::uint16_t suite_;
  BulkCipher cipher_;
  common::Bytes key_;
  common::Bytes mac_key_;
  common::Bytes nonce_;
  std::optional<Rc4> rc4_;  // the direction's keystream, RC4 suites only
  std::uint64_t send_seq_ = 0;
  std::uint64_t recv_seq_ = 0;
};

}  // namespace iotls::tls
