// Sharded append-only writers for the capture store.
//
// A shard file is: 8-byte magic, a CRC'd header frame, CRC'd group blocks,
// and a CRC'd footer frame carrying the shard's totals, per-block column
// summaries and full dictionary (the footer doubles as the truncation
// detector — a shard that ends without one is corrupt).
//
// `write_store` fans a dataset out over shards (one file, one per device,
// or fixed-size slices) using `common::parallel_map`; every shard file is
// encoded independently from an ordered slice of the dataset, so the bytes
// on disk are identical at any thread count.
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

/// Default flush threshold for a block's encoded group section.
inline constexpr std::size_t kDefaultBlockBytes = 64u * 1024;

/// Totals for one written shard.
struct ShardInfo {
  std::string path;
  ShardHeader header;
  std::uint64_t groups = 0;
  std::uint64_t blocks = 0;
  std::uint64_t bytes = 0;
};

/// Streaming writer for one shard file. `add()` groups, then `close()`
/// (mandatory — it writes the footer; an unclosed shard reads as truncated).
class ShardWriter {
 public:
  ShardWriter(const std::string& path, ShardHeader header,
              std::size_t block_bytes = kDefaultBlockBytes);

  ShardWriter(ShardWriter&&) = default;
  ShardWriter& operator=(ShardWriter&&) = delete;

  void add(const testbed::PassiveConnectionGroup& group);

  /// Flush the pending block, write the footer and close the file.
  ShardInfo close();

 private:
  void flush_block();

  CheckedFile file_;
  ShardHeader header_;
  std::size_t block_bytes_;
  StringDictionary dict_;
  BlockEncoder encoder_;
  std::vector<BlockStats> stats_;
  std::uint64_t groups_ = 0;
  std::uint64_t blocks_ = 0;
  bool closed_ = false;
};

/// How `write_store` partitions a dataset into shard files.
enum class ShardLayout {
  Single,    ///< one shard, dataset order
  PerDevice, ///< one shard per device (sorted names), label = device
  FixedSize, ///< dataset-order slices of `groups_per_shard`
};

struct StoreOptions {
  ShardLayout layout = ShardLayout::Single;
  std::size_t groups_per_shard = 4096;  // FixedSize only
  /// Worker threads for the shard fan-out (0 = hardware concurrency,
  /// 1 = serial). Output bytes are identical for every value.
  std::size_t threads = 0;
  std::size_t block_bytes = kDefaultBlockBytes;
  /// Recorded in every shard header (self-description, not re-generation).
  std::uint64_t seed = 0;
  common::Month first = common::kStudyStart;
  common::Month last = common::kStudyEnd;
  /// Names the file for shard `index`. Null (the default) uses
  /// shard_filename ("shard-NNNN.iotshard") — byte-for-byte the historical
  /// layout. A custom name must keep the `.iotshard` suffix so list_shards
  /// discovers it, and must sort in index order if validate_store is to
  /// accept the result; write_store enforces the suffix. Shard *contents*
  /// are independent of the name, so renaming never changes stored bytes.
  std::function<std::string(std::uint32_t)> shard_namer;
};

struct StoreWriteReport {
  std::vector<ShardInfo> shards;

  [[nodiscard]] std::uint64_t total_groups() const;
  [[nodiscard]] std::uint64_t total_blocks() const;
  [[nodiscard]] std::uint64_t total_bytes() const;
};

/// Write `dataset` into `dir` (created if missing) as shard-NNNN files.
/// Pre-existing shards in `dir` are an error — shards are append-only
/// artifacts, never silently overwritten.
StoreWriteReport write_store(const testbed::PassiveDataset& dataset,
                             const std::string& dir,
                             const StoreOptions& options = StoreOptions{});

/// "shard-0007.iotshard"
std::string shard_filename(std::uint32_t index);

}  // namespace iotls::store
