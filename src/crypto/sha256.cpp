#include "crypto/sha256.hpp"

#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "obs/profile.hpp"

namespace iotls::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

void portable_block(std::array<std::uint32_t, 8>& state,
                    const std::uint8_t* block) {
  std::array<std::uint32_t, 64> w{};
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(__x86_64__)
// The standard SHA-NI schedule. sha256rnds2 keeps the working variables as
// {A,B,E,F} and {C,D,G,H}, so the state is shuffled into that order on
// entry and back on exit. Each of the 16 groups runs four rounds; groups 4
// to 15 first extend the message schedule in place with sha256msg1/msg2.
__attribute__((target("sha,sse4.1"))) void shani_compress(
    std::array<std::uint32_t, 8>& state, const std::uint8_t* data,
    std::size_t nblocks) {
  const __m128i byteswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0])), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4])), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; nblocks > 0; --nblocks, data += kSha256BlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];  // w[g % 4] holds schedule words 4g .. 4g+3
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& cur = w[g % 4];
      if (g < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            byteswap);
      } else {
        const __m128i& prev = w[(g + 3) % 4];
        cur = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(cur, w[(g + 1) % 4]),
                          _mm_alignr_epi8(prev, w[(g + 2) % 4], 4)),
            prev);
      }
      const __m128i wk = _mm_add_epi32(
          cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * g])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(dchg, feba, 8));
}
#endif

/// The one compression entry point. The body is chosen once per process,
/// from the CPU, never from a setting: both compute the same function.
void compress(std::array<std::uint32_t, 8>& state, const std::uint8_t* data,
              std::size_t nblocks) {
  static const detail::Sha256Body body = [] {
    const detail::Sha256Body accelerated = detail::sha256_accelerated_body();
    return accelerated != nullptr ? accelerated
                                  : &detail::sha256_compress_portable;
  }();
  body(state, data, nblocks);
}

}  // namespace

namespace detail {

void sha256_compress_portable(std::array<std::uint32_t, 8>& state,
                              const std::uint8_t* data, std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, data += kSha256BlockSize) {
    portable_block(state, data);
  }
}

Sha256Body sha256_accelerated_body() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")) {
    return &shani_compress;
  }
#endif
  return nullptr;
}

}  // namespace detail

Sha256::Sha256() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
}

void Sha256::update(common::BytesView data) {
  if (finished_) throw common::CryptoError("Sha256::update after finish");
  // An empty view may carry a null data(); memcpy(dst, nullptr, 0) is UB.
  if (data.empty()) return;
  total_bytes_ += data.size();
  std::size_t offset = 0;

  // Top up a partial block first; everything after compresses straight from
  // the caller's span — no re-buffering of whole blocks. Hot in transcript
  // hashing, where every handshake message streams through one context.
  if (buffer_len_ > 0) {
    const std::size_t take =
        std::min(kSha256BlockSize - buffer_len_, data.size());
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == kSha256BlockSize) {
      compress(state_, buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }

  const std::size_t whole_blocks =
      (data.size() - offset) / kSha256BlockSize;
  if (whole_blocks > 0) {
    compress(state_, data.data() + offset, whole_blocks);
    offset += whole_blocks * kSha256BlockSize;
  }

  if (offset < data.size()) {
    buffer_len_ = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, buffer_len_);
  }
}

Sha256Digest Sha256::finish() {
  if (finished_) throw common::CryptoError("Sha256::finish twice");
  finished_ = true;

  // Pad on the stack (one or two blocks) instead of round-tripping a heap
  // buffer through update(): buffer_len_ == total_bytes_ % 64 holds here.
  const std::uint64_t bit_len = total_bytes_ * 8;
  std::uint8_t tail[kSha256BlockSize * 2] = {};
  std::memcpy(tail, buffer_.data(), buffer_len_);
  tail[buffer_len_] = 0x80;
  const std::size_t tail_len =
      buffer_len_ < 56 ? kSha256BlockSize : kSha256BlockSize * 2;
  for (int i = 0; i < 8; ++i) {
    tail[tail_len - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
  }
  compress(state_, tail, tail_len / kSha256BlockSize);

  Sha256Digest out{};
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Sha256Digest Sha256::digest(common::BytesView data) {
  const obs::ProfileZone zone("crypto/sha256_digest");
  Sha256 h;
  h.update(data);
  return h.finish();
}

common::Bytes Sha256::digest_bytes(common::BytesView data) {
  const Sha256Digest d = digest(data);
  return common::Bytes(d.begin(), d.end());
}

}  // namespace iotls::crypto
