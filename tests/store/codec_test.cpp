// Codec hardening: varint edge cases, dictionary behavior, and a
// seed-driven property sweep (>1000 cases) proving encode→decode is the
// identity and encoding is byte-deterministic.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "store/codec.hpp"
#include "store/format.hpp"
#include "testdata.hpp"

namespace {

using iotls::common::Bytes;
using iotls::common::BytesView;
using iotls::store::BlockEncoder;
using iotls::store::CodecReader;
using iotls::store::decode_block;
using iotls::store::ShardHeader;
using iotls::store::StoreFormatError;
using iotls::store::StringDictionary;
using iotls::testbed::PassiveConnectionGroup;

TEST(Varint, RoundTripsEdgeValues) {
  const std::uint64_t cases[] = {0,
                                 1,
                                 127,
                                 128,
                                 16383,
                                 16384,
                                 (1ull << 32) - 1,
                                 1ull << 32,
                                 (1ull << 63),
                                 std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t value : cases) {
    Bytes buf;
    iotls::store::put_varint(&buf, value);
    EXPECT_LE(buf.size(), 10u);
    CodecReader reader{BytesView(buf)};
    EXPECT_EQ(reader.varint(), value);
    EXPECT_TRUE(reader.empty());
  }
}

TEST(Varint, SignedRoundTripsEdgeValues) {
  const std::int64_t cases[] = {0,
                                -1,
                                1,
                                -64,
                                63,
                                std::numeric_limits<std::int64_t>::min(),
                                std::numeric_limits<std::int64_t>::max()};
  for (const std::int64_t value : cases) {
    Bytes buf;
    iotls::store::put_svarint(&buf, value);
    CodecReader reader{BytesView(buf)};
    EXPECT_EQ(reader.svarint(), value);
    EXPECT_TRUE(reader.empty());
  }
}

TEST(Varint, RejectsTruncationAndOverflow) {
  // A continuation byte with no terminator: truncated.
  const Bytes truncated = {0x80};
  CodecReader r1{BytesView(truncated)};
  EXPECT_THROW((void)r1.varint(), StoreFormatError);

  // Eleven continuation bytes: longer than any u64 encoding.
  const Bytes overlong(11, 0x80);
  CodecReader r2{BytesView(overlong)};
  EXPECT_THROW((void)r2.varint(), StoreFormatError);

  // Ten bytes whose final byte overflows past 64 bits.
  Bytes overflow(9, 0xFF);
  overflow.push_back(0x7F);
  CodecReader r3{BytesView(overflow)};
  EXPECT_THROW((void)r3.varint(), StoreFormatError);
}

/// Bytewise reflected CRC-32, bit by bit: the definition the frame
/// checksum must agree with.
std::uint32_t reference_crc32(BytesView data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, KnownAnswer) {
  const std::string check = "123456789";
  const Bytes bytes(check.begin(), check.end());
  EXPECT_EQ(iotls::store::crc32(bytes), 0xCBF43926u);  // CRC-32/ISO-HDLC
  EXPECT_EQ(iotls::store::crc32(Bytes{}), 0u);
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  Bytes buffer(64 + 8);
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<std::uint8_t>(i * 151 + 7);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const BytesView slice(buffer.data() + offset, len);
      EXPECT_EQ(iotls::store::crc32(slice), reference_crc32(slice))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Dictionary, InternAssignsStableIdsAndRejectsBadLookups) {
  StringDictionary dict;
  EXPECT_EQ(dict.intern("alpha"), 0u);
  EXPECT_EQ(dict.intern("beta"), 1u);
  EXPECT_EQ(dict.intern("alpha"), 0u);
  const auto pending = dict.take_pending();
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0], "alpha");
  EXPECT_EQ(pending[1], "beta");
  EXPECT_TRUE(dict.take_pending().empty());
  EXPECT_EQ(dict.at(1), "beta");
  EXPECT_THROW((void)dict.at(2), StoreFormatError);
}

TEST(Codec, BlockRoundTripProperty) {
  // >1000 seed-driven cases; each packs 1..8 fully random groups through a
  // fresh encoder and expects byte-identical field recovery.
  for (int c = 0; c < 1200; ++c) {
    iotls::common::Rng rng(0xC0DEC000u + static_cast<std::uint64_t>(c));
    ShardHeader header;
    header.seed = static_cast<std::uint64_t>(c);

    std::vector<PassiveConnectionGroup> in;
    StringDictionary write_dict;
    BlockEncoder encoder(header.first);
    const std::size_t n = 1 + rng.uniform(8);
    for (std::size_t i = 0; i < n; ++i) {
      in.push_back(iotls::storetest::random_group(rng));
      encoder.add(in.back(), &write_dict);
    }
    const Bytes payload = encoder.finish(&write_dict);

    StringDictionary read_dict;
    std::vector<PassiveConnectionGroup> out;
    decode_block(BytesView(payload), header, &read_dict, &out);
    ASSERT_EQ(out.size(), in.size()) << "case " << c;
    for (std::size_t i = 0; i < n; ++i) {
      SCOPED_TRACE("case " + std::to_string(c) + " group " +
                   std::to_string(i));
      iotls::storetest::expect_group_eq(out[i], in[i]);
    }
  }
}

TEST(Codec, EncodingIsByteDeterministic) {
  auto encode_once = [](std::uint64_t seed) {
    iotls::common::Rng rng(seed);
    StringDictionary dict;
    BlockEncoder encoder(iotls::common::kStudyStart);
    for (int i = 0; i < 32; ++i) {
      encoder.add(iotls::storetest::random_group(rng), &dict);
    }
    return encoder.finish(&dict);
  };
  EXPECT_EQ(encode_once(77), encode_once(77));
  EXPECT_NE(encode_once(77), encode_once(78));
}

TEST(Codec, DictionaryCarriesAcrossBlocks) {
  // Strings interned in block 1 must not be re-shipped in block 2, and the
  // reader must resolve block-2 ids against its accumulated table.
  iotls::common::Rng rng(4242);
  ShardHeader header;
  StringDictionary write_dict;
  BlockEncoder encoder(header.first);

  std::vector<PassiveConnectionGroup> first, second;
  for (int i = 0; i < 8; ++i) {
    first.push_back(iotls::storetest::random_group(rng));
    encoder.add(first.back(), &write_dict);
  }
  const Bytes block1 = encoder.finish(&write_dict);
  for (const auto& group : first) {  // same strings again: no new entries
    second.push_back(group);
    encoder.add(group, &write_dict);
  }
  const Bytes block2 = encoder.finish(&write_dict);
  EXPECT_LT(block2.size(), block1.size());

  StringDictionary read_dict;
  std::vector<PassiveConnectionGroup> out;
  decode_block(BytesView(block1), header, &read_dict, &out);
  decode_block(BytesView(block2), header, &read_dict, &out);
  ASSERT_EQ(out.size(), first.size() + second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    iotls::storetest::expect_group_eq(out[i], first[i]);
    iotls::storetest::expect_group_eq(out[first.size() + i], second[i]);
  }
}

TEST(Codec, DecodeRejectsTrailingBytes) {
  iotls::common::Rng rng(99);
  ShardHeader header;
  StringDictionary write_dict;
  BlockEncoder encoder(header.first);
  encoder.add(iotls::storetest::random_group(rng), &write_dict);
  Bytes payload = encoder.finish(&write_dict);
  payload.push_back(0x00);

  StringDictionary read_dict;
  std::vector<PassiveConnectionGroup> out;
  EXPECT_THROW(decode_block(BytesView(payload), header, &read_dict, &out),
               StoreFormatError);
}

}  // namespace
