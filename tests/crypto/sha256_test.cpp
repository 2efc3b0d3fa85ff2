#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include "common/hex.hpp"
#include "common/rng.hpp"

namespace iotls::crypto {
namespace {

using common::hex_encode;
using common::to_bytes;

std::string digest_hex(std::string_view msg) {
  const auto d = Sha256::digest(to_bytes(msg));
  return hex_encode(common::BytesView(d.data(), d.size()));
}

// NIST / FIPS 180-4 test vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(digest_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(digest_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(digest_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const common::Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  const auto d = h.finish();
  EXPECT_EQ(hex_encode(common::BytesView(d.data(), d.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const common::Bytes msg = to_bytes("the quick brown fox jumps over the lazy dog");
  for (std::size_t cut = 0; cut <= msg.size(); ++cut) {
    Sha256 h;
    h.update(common::BytesView(msg.data(), cut));
    h.update(common::BytesView(msg.data() + cut, msg.size() - cut));
    EXPECT_EQ(h.finish(), Sha256::digest(msg)) << "cut=" << cut;
  }
}

TEST(Sha256, BoundaryLengths) {
  // Exercise the padding edge cases around the 56-byte boundary.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const common::Bytes msg(len, 0x5a);
    Sha256 h;
    h.update(msg);
    EXPECT_EQ(h.finish(), Sha256::digest(msg)) << "len=" << len;
  }
}

TEST(Sha256, EmptyUpdateWithPartialBlockBuffered) {
  // Regression (UBSan): an empty view may carry a null data() pointer, and
  // update() used to memcpy from it when a partial block was buffered.
  Sha256 h;
  h.update(to_bytes("abc"));
  h.update(common::BytesView());
  h.update(common::Bytes{});
  EXPECT_EQ(h.finish(), Sha256::digest(to_bytes("abc")));
}

TEST(Sha256, UpdateAfterFinishThrows) {
  Sha256 h;
  h.update(to_bytes("x"));
  (void)h.finish();
  EXPECT_THROW(h.update(to_bytes("y")), common::CryptoError);
  EXPECT_THROW((void)h.finish(), common::CryptoError);
}

TEST(Sha256, IncrementalEqualsOneShotAcrossChunkings) {
  // The streaming path compresses whole blocks straight from the caller's
  // span; every way of slicing the input must land on the one-shot digest.
  common::Bytes data(1024 + 17, 0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  const Sha256Digest expected = Sha256::digest(data);

  for (const std::size_t chunk : {1UL, 63UL, 64UL, 65UL, 128UL, 1000UL}) {
    Sha256 h;
    for (std::size_t off = 0; off < data.size(); off += chunk) {
      const std::size_t take = std::min(chunk, data.size() - off);
      h.update(common::BytesView(data.data() + off, take));
    }
    EXPECT_EQ(h.finish(), expected) << "chunk=" << chunk;
  }

  // Random splits, including empty updates.
  common::Rng rng(0x5A);
  for (int trial = 0; trial < 50; ++trial) {
    Sha256 h;
    std::size_t off = 0;
    while (off < data.size()) {
      const std::size_t take =
          std::min<std::size_t>(rng.next_u64() % 200, data.size() - off);
      h.update(common::BytesView(data.data() + off, take));
      off += take;
    }
    ASSERT_EQ(h.finish(), expected) << "trial=" << trial;
  }
}

TEST(Sha256, IncrementalBoundaryLengths) {
  // Exact padding boundaries: 55/56/63/64 bytes straddle the one-vs-two
  // tail-block split in finish().
  for (const std::size_t len : {0UL, 1UL, 55UL, 56UL, 57UL, 63UL, 64UL,
                                65UL, 119UL, 120UL, 127UL, 128UL}) {
    const common::Bytes data(len, 0xAB);
    Sha256 h;
    for (const std::uint8_t b : data) h.update(common::BytesView(&b, 1));
    EXPECT_EQ(h.finish(), Sha256::digest(data)) << "len=" << len;
  }
}

TEST(Sha256, DigestBytesMatchesDigest) {
  const auto arr = Sha256::digest(to_bytes("abc"));
  const auto vec = Sha256::digest_bytes(to_bytes("abc"));
  EXPECT_TRUE(std::equal(arr.begin(), arr.end(), vec.begin(), vec.end()));
}

// --- The two compression bodies, driven directly. On a SHA-NI host the
// dispatching Sha256 never reaches the portable body, so the known answers
// run through each body explicitly, with padding done here rather than by
// Sha256::finish.

using detail::Sha256Body;
using State = std::array<std::uint32_t, 8>;

std::string digest_with(Sha256Body body, common::BytesView msg) {
  common::Bytes padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % kSha256BlockSize != 56) padded.push_back(0);
  const std::uint64_t bit_len = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<std::uint8_t>(bit_len >> (8 * i)));
  }
  State state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  body(state, padded.data(), padded.size() / kSha256BlockSize);
  common::Bytes out;
  for (const std::uint32_t word : state) {
    for (int i = 3; i >= 0; --i) {
      out.push_back(static_cast<std::uint8_t>(word >> (8 * i)));
    }
  }
  return hex_encode(out);
}

void expect_fips_vectors(Sha256Body body) {
  EXPECT_EQ(digest_with(body, {}),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(digest_with(body, to_bytes("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      digest_with(body, to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmn"
                                 "lmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(digest_with(body, common::Bytes(1000000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

constexpr const char* kNoShaNi =
    "no SHA-NI body: not an x86-64 build, or the CPU lacks SHA or SSE4.1";

TEST(Sha256Bodies, PortableBodyKnownAnswers) {
  expect_fips_vectors(&detail::sha256_compress_portable);
}

TEST(Sha256Bodies, AcceleratedBodyKnownAnswers) {
  const Sha256Body accelerated = detail::sha256_accelerated_body();
  if (accelerated == nullptr) GTEST_SKIP() << kNoShaNi;
  expect_fips_vectors(accelerated);
}

TEST(Sha256Bodies, AcceleratedMatchesPortableOnRandomStates) {
  const Sha256Body accelerated = detail::sha256_accelerated_body();
  if (accelerated == nullptr) GTEST_SKIP() << kNoShaNi;
  common::Rng rng(0x5A256);
  for (int trial = 0; trial < 200; ++trial) {
    State start{};
    for (auto& word : start) word = static_cast<std::uint32_t>(rng.next_u64());
    const std::size_t nblocks = 1 + static_cast<std::size_t>(trial % 8);
    common::Bytes data(nblocks * kSha256BlockSize);
    for (auto& byte : data) byte = static_cast<std::uint8_t>(rng.next_u64());

    State portable = start;
    State fast = start;
    detail::sha256_compress_portable(portable, data.data(), nblocks);
    accelerated(fast, data.data(), nblocks);
    ASSERT_EQ(fast, portable) << "trial=" << trial << " blocks=" << nblocks;
  }
}

TEST(Sha256Bodies, ChunkedDigestsMatchPortableOracle) {
  // Sha256 runs whichever body the CPU selects; every message length from
  // 0 to 300 and every chunking must land on the portable body's digest.
  common::Bytes data(300);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const common::BytesView msg(data.data(), len);
    const std::string expected =
        digest_with(&detail::sha256_compress_portable, msg);
    for (const std::size_t chunk : {1UL, 7UL, 63UL, 64UL, 65UL, 300UL}) {
      Sha256 h;
      for (std::size_t off = 0; off < len; off += chunk) {
        h.update(msg.subspan(off, std::min(chunk, len - off)));
      }
      const Sha256Digest d = h.finish();
      ASSERT_EQ(hex_encode(common::BytesView(d.data(), d.size())), expected)
          << "len=" << len << " chunk=" << chunk;
    }
  }
}

}  // namespace
}  // namespace iotls::crypto
