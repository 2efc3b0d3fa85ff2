#include "crypto/kdf.hpp"

#include <gtest/gtest.h>

#include "common/hex.hpp"

namespace iotls::crypto {
namespace {

using common::hex_decode;
using common::hex_encode;

// RFC 5869 test case 1.
TEST(Hkdf, Rfc5869Case1) {
  const auto ikm = hex_decode("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b");
  const auto salt = hex_decode("000102030405060708090a0b0c");
  const auto info = hex_decode("f0f1f2f3f4f5f6f7f8f9");

  const auto prk = hkdf_extract(salt, ikm);
  EXPECT_EQ(hex_encode(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");

  const auto okm = hkdf_expand(prk, info, 42);
  EXPECT_EQ(hex_encode(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

// RFC 5869 test case 2: 80-byte inputs. The salt is longer than a block,
// so HMAC hashes it first (as with minitls's 66-byte randoms-and-suite
// salt), and L = 82 takes three expand counters.
TEST(Hkdf, Rfc5869Case2) {
  common::Bytes ikm, salt, info;
  for (int i = 0; i < 80; ++i) {
    ikm.push_back(static_cast<std::uint8_t>(i));
    salt.push_back(static_cast<std::uint8_t>(0x60 + i));
    info.push_back(static_cast<std::uint8_t>(0xb0 + i));
  }

  const auto prk = hkdf_extract(salt, ikm);
  EXPECT_EQ(hex_encode(prk),
            "06a6b88c5853361a06104c9ceb35b45cef760014904671014a193f40c15fc244");

  const auto okm = hkdf_expand(prk, info, 82);
  EXPECT_EQ(hex_encode(okm),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c"
            "59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71"
            "cc30c58179ec3e87c14c01d5c1f3434f1d87");
}

// RFC 5869 test case 3 (zero-length salt and info).
TEST(Hkdf, Rfc5869Case3) {
  const auto ikm = hex_decode("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b");
  const auto prk = hkdf_extract({}, ikm);
  const auto okm = hkdf_expand(prk, {}, 42);
  EXPECT_EQ(hex_encode(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(Hkdf, ExpandLengthExact) {
  const auto prk = hkdf_extract(common::to_bytes("s"), common::to_bytes("k"));
  EXPECT_EQ(hkdf_expand(prk, {}, 1).size(), 1u);
  EXPECT_EQ(hkdf_expand(prk, {}, 32).size(), 32u);
  EXPECT_EQ(hkdf_expand(prk, {}, 33).size(), 33u);
  EXPECT_EQ(hkdf_expand(prk, {}, 100).size(), 100u);
}

TEST(Hkdf, ExpandTooLongThrows) {
  const auto prk = hkdf_extract(common::to_bytes("s"), common::to_bytes("k"));
  EXPECT_THROW(hkdf_expand(prk, {}, 255 * 32 + 1), common::CryptoError);
}

TEST(Hkdf, LabelSeparation) {
  const auto a = hkdf(common::to_bytes("salt"), common::to_bytes("ikm"),
                      "label-a", 32);
  const auto b = hkdf(common::to_bytes("salt"), common::to_bytes("ikm"),
                      "label-b", 32);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace iotls::crypto
