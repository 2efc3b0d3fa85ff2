// Streaming readers for the capture store.
//
// `ShardReader` walks one shard file block by block — at most one decoded
// block is resident — verifying the magic, the header CRC, every block CRC
// and the footer (totals, per-block counts, dictionary) as it goes. Any
// violation raises a typed StoreError; a shard can never be silently read
// as partial data. It decodes every column of every block: the reference
// path the query oracle and `read_store` use.
//
// `scan_shard_rows` is the projected path: random-access blocks decoded
// through ProjectedBlockCursor against the footer dictionary. The query
// scan and the analysis fold both read shards through it.
//
// `DatasetCursor` strings sorted shards into one logical group stream;
// per-shard access (`shard_paths()`) is the unit of parallel folding.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "store/codec.hpp"
#include "store/format.hpp"
#include "store/io.hpp"
#include "testbed/longitudinal.hpp"

namespace iotls::store {

class ShardReader {
 public:
  /// Open and validate magic + header. Throws StoreFormatError (bad magic,
  /// bad version), StoreCorruptionError (header CRC/truncation) or
  /// StoreIoError (cannot open).
  explicit ShardReader(const std::string& path);

  [[nodiscard]] const ShardHeader& header() const { return header_; }
  [[nodiscard]] const std::string& path() const { return file_.path(); }

  /// Decode the next group block into `out` (replacing its contents).
  /// Returns false once the footer has been reached and verified. Throws a
  /// typed StoreError on any corruption — including EOF before the footer
  /// and trailing bytes after it.
  [[nodiscard]] bool next(std::vector<testbed::PassiveConnectionGroup>* out);

  [[nodiscard]] std::uint64_t groups_read() const { return groups_; }
  [[nodiscard]] std::uint64_t blocks_read() const { return blocks_; }
  [[nodiscard]] bool finished() const { return finished_; }

  /// The parsed footer; valid only once `next()` has returned false.
  [[nodiscard]] const ShardFooter& footer() const { return footer_; }

 private:
  common::Bytes read_block(std::uint8_t* type_out);

  CheckedFile file_;
  ShardHeader header_;
  StringDictionary dict_;
  ShardFooter footer_;
  std::vector<std::uint64_t> block_groups_;  // per-block counts, vs stats
  std::uint64_t groups_ = 0;
  std::uint64_t blocks_ = 0;
  bool finished_ = false;
};

// ---------------------------------------------------------------------------
// Random-access shard index (the query layer's entry point)
// ---------------------------------------------------------------------------

/// Location of one framed group block inside a shard file. `offset` points
/// at the frame's type byte; `length` is the payload length (the frame adds
/// the 9-byte type+length+CRC prelude).
struct BlockRef {
  std::uint64_t offset = 0;
  std::uint32_t length = 0;
};

/// Everything needed to fetch and decode any block of a shard standalone:
/// header, footer (with per-block stats and the full dictionary) and the
/// byte offsets of every group block.
struct ShardIndex {
  std::string path;
  ShardHeader header;
  ShardFooter footer;
  std::vector<BlockRef> blocks;
};

/// Build a shard's index by walking frame headers only — each block's
/// payload is seeked over, not read, so indexing costs O(blocks) small
/// reads regardless of shard size. Verifies magic, header CRC, the footer
/// CRC and the footer totals against the walked frames. Block payload CRCs
/// are NOT checked here (BlockFetcher checks each block it actually reads).
ShardIndex read_shard_index(const std::string& path);

/// Random-access reads of individual group blocks, seek + CRC-check per
/// fetch. Keeps its own file handle; not thread-safe (use one per worker).
class BlockFetcher {
 public:
  explicit BlockFetcher(const ShardIndex& index);

  /// Read and CRC-check block `i`'s payload. Throws StoreCorruptionError on
  /// checksum mismatch or truncation, std::out_of_range on a bad index.
  [[nodiscard]] common::Bytes fetch(std::size_t i);

 private:
  const ShardIndex& index_;
  CheckedFile file_;
};

/// Block test for `scan_shard_rows`: false skips the block unread.
using BlockFilter =
    std::function<bool(const BlockStats& stats, const StringDictionary& dict)>;
/// Row sink for `scan_shard_rows`; ids in `row` resolve against `dict`.
using RowVisitor =
    std::function<void(const ProjectedRow& row, const StringDictionary& dict)>;

/// The projected walk over one shard, shared by the query scan and the
/// analysis fold: index the shard, preload the footer dictionary, then for
/// every block `keep` accepts (all of them when `keep` is empty) fetch and
/// CRC-check it, check its row count against the footer's per-block count
/// (StoreCorruptionError on a mismatch) and hand each row to `visit` with
/// only the `fields` list columns materialized. Returns the shard's block
/// count.
std::size_t scan_shard_rows(const std::string& path, std::uint32_t fields,
                            const BlockFilter& keep, const RowVisitor& visit);

/// Sorted shard paths of a store directory. Throws StoreIoError if the
/// directory cannot be read, or — unless `allow_empty` — if it holds no
/// shards (merge/compact tolerate shard-less inputs; readers do not).
std::vector<std::string> list_shards(const std::string& dir,
                                     bool allow_empty = false);

/// A read-only view over a store: iterate every group in shard order
/// without ever holding a whole shard in memory. Cheap to copy; `for_each`
/// opens its own readers, so a cursor can be consumed repeatedly and
/// concurrently.
class DatasetCursor {
 public:
  explicit DatasetCursor(std::vector<std::string> shard_paths);

  /// Cursor over `list_shards(dir)`.
  static DatasetCursor open(const std::string& dir);

  [[nodiscard]] const std::vector<std::string>& shard_paths() const {
    return shard_paths_;
  }

  /// Visit every group of every shard, in shard order then block order.
  void for_each(
      const std::function<void(const testbed::PassiveConnectionGroup&)>& fn)
      const;

 private:
  std::vector<std::string> shard_paths_;
};

/// Full validation result for one shard or a whole store.
struct ValidateReport {
  std::uint64_t shards = 0;
  std::uint64_t groups = 0;
  std::uint64_t blocks = 0;
  std::uint64_t bytes = 0;
};

/// Stream a shard end to end, checking every frame. Throws on any defect.
ValidateReport validate_shard(const std::string& path);

/// Validate every shard of a store (parallel over shards; 0 = hardware
/// concurrency). Also checks that shard_index/shard_count fields are
/// mutually consistent. Throws on the first defect (lowest shard index).
ValidateReport validate_store(const std::string& dir, std::size_t threads = 0);

/// Materialize a store into memory (the bridge back to the in-memory
/// analyses and the TSV release format).
testbed::PassiveDataset read_store(const std::string& dir);

}  // namespace iotls::store
