#include "crypto/hmac.hpp"

#include <gtest/gtest.h>

#include "common/hex.hpp"

namespace iotls::crypto {
namespace {

using common::hex_decode;
using common::hex_encode;
using common::to_bytes;

// RFC 4231 test vectors.
TEST(Hmac, Rfc4231Case1) {
  const common::Bytes key(20, 0x0b);
  const auto mac = hmac_sha256(key, to_bytes("Hi There"));
  EXPECT_EQ(hex_encode(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const auto mac = hmac_sha256(to_bytes("Jefe"),
                               to_bytes("what do ya want for nothing?"));
  EXPECT_EQ(hex_encode(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const common::Bytes key(20, 0xaa);
  const common::Bytes msg(50, 0xdd);
  const auto mac = hmac_sha256(key, msg);
  EXPECT_EQ(hex_encode(mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case4) {
  const auto key =
      hex_decode("0102030405060708090a0b0c0d0e0f10111213141516171819");
  const common::Bytes msg(50, 0xcd);
  EXPECT_EQ(hex_encode(hmac_sha256(key, msg)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(Hmac, Rfc4231Case5Truncated) {
  const common::Bytes key(20, 0x0c);
  common::Bytes mac = hmac_sha256(key, to_bytes("Test With Truncation"));
  mac.resize(16);  // the RFC lists only the first 128 bits
  EXPECT_EQ(hex_encode(mac), "a3b6167473100ee06e0c796c2955552b");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  const common::Bytes key(131, 0xaa);
  const auto mac = hmac_sha256(
      key, to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(hex_encode(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, Rfc4231Case7LongKeyLongMessage) {
  // A key longer than a block (hashed first) and a message of several
  // blocks: the shape of minitls's key schedule.
  const common::Bytes key(131, 0xaa);
  const auto mac = hmac_sha256(
      key, to_bytes("This is a test using a larger than block-size key and a "
                    "larger than block-size data. The key needs to be hashed "
                    "before being used by the HMAC algorithm."));
  EXPECT_EQ(hex_encode(mac),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(Hmac, IncrementalMatchesOneShot) {
  const common::Bytes key = to_bytes("key");
  const common::Bytes msg = to_bytes("some longer message for mac");
  HmacSha256 mac(key);
  mac.update(common::BytesView(msg.data(), 4));
  mac.update(common::BytesView(msg.data() + 4, msg.size() - 4));
  EXPECT_EQ(mac.finish(), hmac_sha256(key, msg));
}

TEST(Hmac, DifferentKeysDifferentMacs) {
  const common::Bytes msg = to_bytes("m");
  EXPECT_NE(hmac_sha256(to_bytes("k1"), msg), hmac_sha256(to_bytes("k2"), msg));
}

}  // namespace
}  // namespace iotls::crypto
