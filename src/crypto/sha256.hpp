// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for certificate digests (signatures are RSA over SHA-256 of the TBS
// bytes), TLS transcript hashes, fingerprint hashes, and the HMAC and HKDF
// of every handshake's key schedule, Finished and record MACs.
//
// Every block goes through one compression entry point. On x86-64 CPUs
// with the SHA extensions and SSE4.1 it runs a SHA-NI body; everywhere
// else it runs the portable body. The CPU decides once per process; there
// is no knob, because both bodies compute the same function. The portable
// body is also the oracle the tests hold the SHA-NI body to.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace iotls::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;
inline constexpr std::size_t kSha256BlockSize = 64;

using Sha256Digest = std::array<std::uint8_t, kSha256DigestSize>;

/// Incremental SHA-256.
class Sha256 {
 public:
  Sha256();

  void update(common::BytesView data);
  /// Finalize; the object must not be updated afterwards.
  [[nodiscard]] Sha256Digest finish();

  /// One-shot convenience.
  static Sha256Digest digest(common::BytesView data);
  static common::Bytes digest_bytes(common::BytesView data);

 private:
  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, kSha256BlockSize> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_bytes_ = 0;
  bool finished_ = false;
};

namespace detail {

/// A compression body: folds `nblocks` consecutive 64-byte blocks at
/// `data` into `state`. Exposed for the tests and the bench lane; Sha256
/// picks its body itself.
using Sha256Body = void (*)(std::array<std::uint32_t, 8>& state,
                            const std::uint8_t* data, std::size_t nblocks);

/// The portable FIPS 180-4 body: the fallback and the tests' oracle.
void sha256_compress_portable(std::array<std::uint32_t, 8>& state,
                              const std::uint8_t* data, std::size_t nblocks);

/// The SHA-NI body when this is an x86-64 build on a CPU with SHA and
/// SSE4.1, nullptr otherwise. Sha256 runs it whenever it is non-null.
[[nodiscard]] Sha256Body sha256_accelerated_body();

}  // namespace detail

}  // namespace iotls::crypto
