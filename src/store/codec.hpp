// Compact record codec for the capture store.
//
// Groups are packed with LEB128 varints, zigzag deltas (months relative to
// the previous group in the block, u16 id lists relative to the previous
// entry) and a per-shard string-interning dictionary: device/destination
// names appear once per shard, groups carry small integer ids. New
// dictionary entries ride in the block that first uses them, so a shard is
// decodable in one forward streaming pass — the reader never needs more
// than one block in memory. The shard footer repeats the whole dictionary
// next to per-block column summaries, so the scan path can also fetch and
// decode any single block on its own.
//
// Block payload layout (framed and CRC'd by writer/reader, format.hpp):
//   varint new_dict_entries; [varint len, bytes]*   strings, id = next slot
//   varint group_count; [encoded group]*            month delta base resets
//                                                   to header.first per block
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "store/format.hpp"
#include "testbed/longitudinal.hpp"

namespace iotls::store {

// ---------------------------------------------------------------------------
// Varint primitives (exposed for the codec property tests)
// ---------------------------------------------------------------------------

/// Append an LEB128-encoded unsigned varint.
void put_varint(common::Bytes* out, std::uint64_t value);

/// Zigzag-map a signed value and append it as a varint.
void put_svarint(common::Bytes* out, std::int64_t value);

/// Bounds-checked varint decoder over a borrowed buffer; throws
/// StoreFormatError on overrun or a non-minimal > 10-byte encoding.
class CodecReader {
 public:
  explicit CodecReader(common::BytesView data) : data_(data) {}

  [[nodiscard]] std::uint64_t varint();
  [[nodiscard]] std::int64_t svarint();
  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::string str(std::size_t len);
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool empty() const { return remaining() == 0; }

 private:
  common::BytesView data_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Per-shard dictionary
// ---------------------------------------------------------------------------

/// Append-only string interner. Writer and reader grow identical tables:
/// the writer assigns ids in order of first use, the reader replays the
/// dictionary sections block by block.
class StringDictionary {
 public:
  /// Writer side: id of `text`, interning it (and recording it as pending
  /// for the current block) on first use.
  std::uint32_t intern(const std::string& text);

  /// New entries interned since the last `take_pending()`, in id order.
  [[nodiscard]] std::vector<std::string> take_pending();

  /// Reader side: append the next entry (ids are assigned sequentially).
  void append(std::string text);

  /// Lookup; throws StoreFormatError for an out-of-range id.
  [[nodiscard]] const std::string& at(std::uint32_t id) const;

  [[nodiscard]] std::size_t size() const { return by_id_.size(); }

  /// Every entry in id order (the shard footer persists this).
  [[nodiscard]] const std::vector<std::string>& entries() const {
    return by_id_;
  }

 private:
  std::vector<std::string> by_id_;
  std::vector<std::string> pending_;
  // Hashed lookup: fleet-scale shards intern one label per *instance*
  // (hundreds of thousands of distinct strings, nearly every intern a
  // miss), where a flat sorted vector's O(n) insert turns quadratic. Ids
  // are assigned in first-use order either way, so the container choice
  // never reaches the wire format.
  std::unordered_map<std::string, std::uint32_t> ids_;
};

// ---------------------------------------------------------------------------
// Per-block column summaries (shard footer, DESIGN.md §12)
// ---------------------------------------------------------------------------

/// Bit for a protocol version in the stats masks: wire code - 0x0300.
std::uint8_t version_stats_bit(tls::ProtocolVersion v);

/// Min/max + occurrence summaries of one group block's columns, written to
/// the shard footer so the query layer can skip whole blocks
/// without reading their payloads. Every field is a *conservative union*
/// over the block's rows: a predicate that cannot match the summary cannot
/// match any row.
struct BlockStats {
  std::uint64_t groups = 0;
  /// Dictionary ids of the lexicographically smallest / largest device and
  /// destination strings in the block.
  std::uint32_t device_min_id = 0, device_max_id = 0;
  std::uint32_t dest_min_id = 0, dest_max_id = 0;
  /// Month::index() range.
  std::uint32_t month_min = 0, month_max = 0;
  std::uint64_t count_min = 0, count_max = 0;
  /// Union of advertised versions (bit = version_stats_bit).
  std::uint8_t adv_version_mask = 0;
  /// Established-version/suite occurrence: bits 0-4 = version present,
  /// kEstNoneBit = a row without an established version, kEstSuiteBit = a
  /// row with an established suite, kEstNoSuiteBit = a row without one.
  std::uint8_t est_version_mask = 0;
  std::uint16_t est_suite_min = 0xFFFF, est_suite_max = 0;
  /// Boolean-column occurrence, one (true-seen, false-seen) bit pair per
  /// column: complete 0-1, appdata 2-3, sni 4-5, staple 6-7.
  std::uint8_t bool_mask = 0;
  /// AlertDirection values present (bit = enum value, 0-2).
  std::uint8_t alert_dir_mask = 0;
  /// Bloom mask of advertised suite ids (bit = id % 64).
  std::uint64_t suite_bloom = 0;

  static constexpr std::uint8_t kEstNoneBit = 1u << 5;
  static constexpr std::uint8_t kEstSuiteBit = 1u << 6;
  static constexpr std::uint8_t kEstNoSuiteBit = 1u << 7;

  bool operator==(const BlockStats&) const = default;
};

// ---------------------------------------------------------------------------
// Block codec
// ---------------------------------------------------------------------------

/// Streaming encoder state for one block: the dictionary persists across
/// blocks, the month-delta baseline resets each block. The encoder also
/// accumulates the block's column summaries for the shard footer.
class BlockEncoder {
 public:
  explicit BlockEncoder(common::Month delta_base) : delta_base_(delta_base) {}

  /// Append one group to the pending block.
  void add(const testbed::PassiveConnectionGroup& group,
           StringDictionary* dict);

  /// Assemble the block payload (dictionary section + group section) and
  /// reset for the next block.
  [[nodiscard]] common::Bytes finish(StringDictionary* dict);

  /// Column summaries of the block just `finish()`ed.
  [[nodiscard]] const BlockStats& last_stats() const { return last_stats_; }

  [[nodiscard]] std::size_t pending_groups() const { return count_; }
  /// Encoded size of the group section so far (flush heuristic).
  [[nodiscard]] std::size_t pending_bytes() const { return body_.size(); }

 private:
  common::Month delta_base_;
  int prev_month_index_;
  common::Bytes body_;
  std::size_t count_ = 0;
  bool fresh_ = true;
  BlockStats last_stats_;
  // Min/max tracking for the pending block (compared as strings, stored as
  // dictionary ids).
  BlockStats pending_stats_;
  std::string device_min_, device_max_, dest_min_, dest_max_;
};

/// Decode a whole block payload, appending groups to `out`. The dictionary
/// is extended with the block's new entries first, so blocks must be
/// decoded in shard order. Throws StoreFormatError on any structural
/// violation (the frame CRC has already been checked, so a failure here
/// means an encoder bug or a forged frame).
///
/// This is the naive decode-everything path — the full-scan oracle the
/// differential query suite measures `ProjectedBlockCursor` against. Keep
/// the two implementations independent.
void decode_block(common::BytesView payload, const ShardHeader& header,
                  StringDictionary* dict,
                  std::vector<testbed::PassiveConnectionGroup>* out);

// ---------------------------------------------------------------------------
// Shard footer
// ---------------------------------------------------------------------------

/// Footer payload: the three totals, then a version byte, one BlockStats
/// record per group block and the shard's full dictionary (so any block
/// can be decoded without replaying the ones before it).
struct ShardFooter {
  std::uint64_t groups = 0;
  std::uint64_t blocks = 0;
  std::uint64_t dict_entries = 0;
  std::vector<BlockStats> block_stats;   // size == blocks
  std::vector<std::string> dictionary;   // size == dict_entries
};

/// Version byte that follows the footer totals.
inline constexpr std::uint8_t kFooterStatsVersion = 1;

common::Bytes encode_shard_footer(const ShardFooter& footer);

/// Parse a footer; throws StoreFormatError on malformed input, internally
/// inconsistent counts, or a footer that stops after the totals (the
/// stats-less form no shard carries any more).
ShardFooter decode_shard_footer(common::BytesView payload);

// ---------------------------------------------------------------------------
// Projected row cursor (the query scan path)
// ---------------------------------------------------------------------------

/// Which list columns `ProjectedBlockCursor` materializes. Every other
/// field of the row walk is scalar-cheap and always decoded; unselected
/// lists are length-walked without building vectors — that skipped
/// allocation is where column projection wins over `decode_block`.
enum ProjectedFields : std::uint32_t {
  kFieldAdvVersions = 1u << 0,
  kFieldAdvSuites = 1u << 1,
  kFieldExtensions = 1u << 2,
  kFieldAdvGroups = 1u << 3,
  kFieldAdvSigalgs = 1u << 4,
  kFieldAllLists = 0x1F,
};

/// One decoded row, vectors reused across `next()` calls. Strings stay as
/// dictionary ids; the scan resolves them only when a query touches them.
struct ProjectedRow {
  std::uint32_t device_id = 0;
  std::uint32_t dest_id = 0;
  common::Month month;
  std::uint64_t count = 0;
  bool requested_ocsp_staple = false;
  bool sent_sni = false;
  bool handshake_complete = false;
  bool application_data_seen = false;
  net::HandshakeRecord::AlertDirection alert_direction =
      net::HandshakeRecord::AlertDirection::None;
  int alert_ordinal = -1;
  std::optional<tls::ProtocolVersion> established_version;
  std::optional<std::uint16_t> established_suite;
  std::optional<tls::Alert> client_alert, server_alert;
  // Materialized only when the matching ProjectedFields bit is set.
  std::vector<tls::ProtocolVersion> advertised_versions;
  std::vector<std::uint16_t> advertised_suites;
  std::vector<std::uint16_t> extension_types;
  std::vector<std::uint16_t> advertised_groups;
  std::vector<std::uint16_t> advertised_sigalgs;
};

/// Streaming decoder for one block payload that materializes only the
/// requested fields. Ids resolve against `dict`, the shard's full footer
/// dictionary, so any block decodes standalone; the block's own dictionary
/// section is only walked past. Throws StoreFormatError on any structural
/// violation. `payload` and `dict` must outlive the cursor.
class ProjectedBlockCursor {
 public:
  ProjectedBlockCursor(common::BytesView payload, const ShardHeader& header,
                       std::uint32_t fields, const StringDictionary& dict);

  /// Decode the next row into `*row` (reusing its buffers); false at end of
  /// block. The cursor verifies the payload is fully consumed on the last
  /// row.
  [[nodiscard]] bool next(ProjectedRow* row);

  [[nodiscard]] std::uint64_t rows_total() const { return rows_total_; }

 private:
  void skip_u16_list();
  void read_u16_list(std::vector<std::uint16_t>* out);

  CodecReader reader_;
  const StringDictionary* dict_;
  std::uint32_t fields_;
  std::uint64_t rows_total_ = 0;
  std::uint64_t rows_done_ = 0;
  int prev_month_index_;
};

}  // namespace iotls::store
