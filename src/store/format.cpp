#include "store/format.hpp"

namespace iotls::store {

namespace {

/// Slice-by-8 tables for the reflected polynomial 0xEDB88320: entries[0]
/// is the classic bytewise table, and entries[k][b] is the CRC of byte b
/// followed by k zero bytes, so eight table lookups fold eight input bytes.
struct Crc32Table {
  std::array<std::array<std::uint32_t, 256>, 8> entries;
  Crc32Table() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      entries[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = entries[k - 1][i];
        entries[k][i] = entries[0][prev & 0xFFu] ^ (prev >> 8);
      }
    }
  }
};

/// Little-endian 32-bit load from four bytes.
std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

common::Month read_month(common::ByteReader& reader) {
  common::Month m;
  m.year = static_cast<int>(reader.u16());
  m.month = static_cast<int>(reader.u8());
  if (m.month < 1 || m.month > 12) {
    throw StoreFormatError("shard header: month out of range: " +
                           std::to_string(m.month));
  }
  return m;
}

void write_month(common::ByteWriter& writer, common::Month m) {
  writer.u16(static_cast<std::uint16_t>(m.year));
  writer.u8(static_cast<std::uint8_t>(m.month));
}

}  // namespace

std::uint32_t crc32(common::BytesView data) {
  static const Crc32Table table;
  const auto& t = table.entries;
  std::uint32_t crc = 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ crc;
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

common::Bytes encode_shard_header(const ShardHeader& header) {
  common::ByteWriter writer;
  writer.u16(kFormatVersion);
  writer.u64(header.seed);
  write_month(writer, header.first);
  write_month(writer, header.last);
  writer.u32(header.shard_index);
  writer.u32(header.shard_count);
  writer.str(header.label, 2);
  return writer.take();
}

ShardHeader decode_shard_header(common::BytesView payload) {
  try {
    common::ByteReader reader(payload);
    const std::uint16_t version = reader.u16();
    if (version != kFormatVersion) {
      throw StoreFormatError("unsupported shard format version " +
                             std::to_string(version) + " (expected " +
                             std::to_string(kFormatVersion) + ")");
    }
    ShardHeader header;
    header.seed = reader.u64();
    header.first = read_month(reader);
    header.last = read_month(reader);
    header.shard_index = reader.u32();
    header.shard_count = reader.u32();
    header.label = reader.str(2);
    reader.expect_end("shard header");
    return header;
  } catch (const common::ParseError& e) {
    throw StoreFormatError(std::string("shard header: ") + e.what());
  }
}

}  // namespace iotls::store
