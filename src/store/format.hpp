// Durable capture store — on-disk format constants and typed errors.
//
// A *store* is a directory of append-only *shard* files holding
// `PassiveConnectionGroup` streams. Every shard is self-describing and
// self-checking so corruption and truncation are detected, never silently
// read (DESIGN.md §11):
//
//   [magic "IOTLSSHD"] [header payload] [header crc32]
//   [block]*                      framed: type, payload length, payload crc
//   [footer block]                group/connection totals; doubles as the
//                                 end-of-shard marker (EOF before the footer
//                                 means the tail was truncated)
//
// Block payloads are codec-compressed (varint + delta + per-shard string
// interning, src/store/codec.hpp). All fixed-width header/frame integers are
// big-endian via common::ByteWriter.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/bytes.hpp"
#include "common/simtime.hpp"

namespace iotls::store {

/// Root of the store error hierarchy. Every failure the store can produce
/// is a subclass — callers (the CLI, the analyses) can rely on catching
/// `StoreError` and never seeing a raw std::runtime_error or a crash.
class StoreError : public std::runtime_error {
 public:
  explicit StoreError(const std::string& what) : std::runtime_error(what) {}
};

/// Operating-system I/O failure: open/create/read/write/flush errors.
class StoreIoError : public StoreError {
 public:
  explicit StoreIoError(const std::string& what) : StoreError(what) {}
};

/// Structurally invalid data: wrong magic, unsupported format version,
/// malformed codec payload, unknown block type, out-of-range dictionary id.
class StoreFormatError : public StoreError {
 public:
  explicit StoreFormatError(const std::string& what) : StoreError(what) {}
};

/// Damaged data that was once valid: CRC mismatch, truncated tail block,
/// missing footer, footer totals disagreeing with the blocks read.
class StoreCorruptionError : public StoreError {
 public:
  explicit StoreCorruptionError(const std::string& what) : StoreError(what) {}
};

/// Shard file magic: 8 bytes, never versioned (the version is a header
/// field so mismatches produce a typed error, not a failed magic check).
inline constexpr std::array<std::uint8_t, 8> kShardMagic = {
    'I', 'O', 'T', 'L', 'S', 'S', 'H', 'D'};

/// Bumped on any incompatible layout/codec change.
inline constexpr std::uint16_t kFormatVersion = 1;

/// Shard filename suffix; a store directory is scanned for these.
inline constexpr const char* kShardSuffix = ".iotshard";

// Block frame types.
inline constexpr std::uint8_t kBlockGroups = 0x01;
inline constexpr std::uint8_t kBlockFooter = 0xFE;

/// Upper bound on a block payload — a sanity check that turns a corrupted
/// length field into a typed error instead of a giant allocation.
inline constexpr std::uint32_t kMaxBlockPayload = 64u << 20;  // 64 MiB

/// Self-describing shard header (everything after the magic, CRC-protected).
struct ShardHeader {
  /// Seed of the generator run the dataset came from (provenance metadata).
  std::uint64_t seed = 0;
  /// Study window; `first` is also the month-delta baseline for each block.
  common::Month first = common::kStudyStart;
  common::Month last = common::kStudyEnd;
  /// Position of this shard within its store.
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  /// Shard label: the device name under the per-device layout, "" otherwise.
  std::string label;

  bool operator==(const ShardHeader&) const = default;
};

/// Serialize / parse the header payload (the bytes between magic and the
/// header CRC). Parsing throws StoreFormatError on malformed input.
common::Bytes encode_shard_header(const ShardHeader& header);
ShardHeader decode_shard_header(common::BytesView payload);

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the per-frame
/// checksum; computed slice-by-8, eight bytes per step.
std::uint32_t crc32(common::BytesView data);

}  // namespace iotls::store
