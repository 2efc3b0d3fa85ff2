// Record-layer framing: round-trips, the 2^14 payload bound, streamed
// (fragmented) parsing — plus RC4 keystream vectors, since RC4 records are
// the study's canonical weak-ciphersuite traffic.
#include "tls/record.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/hex.hpp"
#include "tls/rc4.hpp"

namespace iotls::tls {
namespace {

TEST(TlsRecord, SerializeParseRoundTrip) {
  TlsRecord rec;
  rec.type = ContentType::ApplicationData;
  rec.version = ProtocolVersion::Tls1_2;
  rec.payload = common::to_bytes("GET /status HTTP/1.1");

  const auto wire = rec.serialize();
  ASSERT_EQ(wire.size(), 5 + rec.payload.size());
  EXPECT_EQ(wire[0], 23);  // application_data
  EXPECT_EQ(wire[1], 0x03);
  EXPECT_EQ(wire[2], 0x03);  // TLS 1.2 on the wire
  EXPECT_EQ(wire[3], 0x00);
  EXPECT_EQ(wire[4], rec.payload.size());
  EXPECT_EQ(TlsRecord::parse(wire), rec);
}

TEST(TlsRecord, EmptyAndMaxPayloadsRoundTrip) {
  TlsRecord empty;
  empty.payload.clear();
  EXPECT_EQ(TlsRecord::parse(empty.serialize()), empty);

  TlsRecord full;
  full.payload.assign(kMaxRecordPayload, 0xAB);
  EXPECT_EQ(TlsRecord::parse(full.serialize()), full);
}

TEST(TlsRecord, OversizePayloadIsRejectedBothWays) {
  TlsRecord rec;
  rec.payload.assign(kMaxRecordPayload + 1, 0);
  EXPECT_THROW((void)rec.serialize(), common::ProtocolError);
}

TEST(TlsRecord, ParseRejectsMalformedInput) {
  // Unknown content type (19 is below change_cipher_spec).
  EXPECT_THROW(TlsRecord::parse(common::Bytes{19, 3, 3, 0, 0}),
               common::ParseError);
  // Truncated: length prefix promises more than the buffer holds.
  EXPECT_THROW(TlsRecord::parse(common::Bytes{22, 3, 3, 0, 4, 1, 2}),
               common::ParseError);
  // Trailing garbage after a complete record.
  EXPECT_THROW(TlsRecord::parse(common::Bytes{22, 3, 3, 0, 1, 0xFF, 0xEE}),
               common::ParseError);
}

// A handshake flight split across several records in one stream: the
// ByteReader overload must consume each frame exactly and stop cleanly.
TEST(TlsRecord, StreamedParsingReassemblesFragments) {
  const common::Bytes message = common::to_bytes(
      "certificate bytes that do not fit in one artificial tiny record");
  const std::size_t fragment = 10;

  common::Bytes stream;
  std::size_t offset = 0;
  while (offset < message.size()) {
    TlsRecord rec;
    rec.type = ContentType::Handshake;
    rec.version = ProtocolVersion::Tls1_0;
    const std::size_t len = std::min(fragment, message.size() - offset);
    rec.payload.assign(message.begin() + offset,
                       message.begin() + offset + len);
    const auto wire = rec.serialize();
    stream.insert(stream.end(), wire.begin(), wire.end());
    offset += len;
  }

  common::ByteReader reader(stream);
  common::Bytes reassembled;
  std::size_t records = 0;
  while (!reader.empty()) {
    const TlsRecord rec = TlsRecord::parse(reader);
    EXPECT_EQ(rec.type, ContentType::Handshake);
    EXPECT_LE(rec.payload.size(), fragment);
    reassembled.insert(reassembled.end(), rec.payload.begin(),
                       rec.payload.end());
    ++records;
  }
  EXPECT_EQ(records, (message.size() + fragment - 1) / fragment);
  EXPECT_EQ(reassembled, message);
}

TEST(TlsRecord, ContentTypeNames) {
  EXPECT_EQ(content_type_name(ContentType::ChangeCipherSpec),
            "change_cipher_spec");
  EXPECT_EQ(content_type_name(ContentType::Alert), "alert");
  EXPECT_EQ(content_type_name(ContentType::Handshake), "handshake");
  EXPECT_EQ(content_type_name(ContentType::ApplicationData),
            "application_data");
}

// Classic published RC4 vectors (Schneier / RFC 6229 companions).
TEST(Rc4, MatchesKnownKeystreamVectors) {
  const auto check = [](const std::string& key, const std::string& plain,
                        const std::string& cipher_hex) {
    const auto out = Rc4(common::to_bytes(key)).apply(common::to_bytes(plain));
    EXPECT_EQ(common::hex_encode(out), cipher_hex) << "key=" << key;
  };
  check("Key", "Plaintext", "bbf316e8d940af0ad3");
  check("Wiki", "pedia", "1021bf0420");
  check("Secret", "Attack at dawn", "45a01f645fc35b383552544b9bf5");
}

TEST(Rc4, XorIsItsOwnInverse) {
  const auto key = common::to_bytes("session-key");
  const auto plain = common::to_bytes("telemetry payload 1234");
  const auto cipher = Rc4(key).apply(plain);
  EXPECT_NE(cipher, plain);
  EXPECT_EQ(Rc4(key).apply(cipher), plain);
}

}  // namespace
}  // namespace iotls::tls
