#include "store/reader.hpp"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "common/pool.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"

namespace iotls::store {

namespace {

void count_metric(const char* name, const char* help, std::uint64_t n) {
  if (!obs::metrics_enabled() || n == 0) return;
  obs::MetricsRegistry::global().counter(name, help).inc(n);
}

std::uint32_t read_u32(CheckedFile* file, const std::string& context) {
  std::uint8_t raw[4];
  file->read_exact(raw, sizeof(raw), context);
  return (static_cast<std::uint32_t>(raw[0]) << 24) |
         (static_cast<std::uint32_t>(raw[1]) << 16) |
         (static_cast<std::uint32_t>(raw[2]) << 8) |
         static_cast<std::uint32_t>(raw[3]);
}

/// Read a length+CRC framed payload; validates the length cap and the CRC.
common::Bytes read_framed_payload(CheckedFile* file,
                                  const std::string& context) {
  const obs::ProfileZone zone("store/read_frame");
  const std::uint32_t len = read_u32(file, context + " length");
  const std::uint32_t expected_crc = read_u32(file, context + " checksum");
  if (len > kMaxBlockPayload) {
    throw StoreFormatError(file->path() + ": " + context + " length " +
                           std::to_string(len) + " exceeds the format cap");
  }
  common::Bytes payload(len);
  if (len != 0) file->read_exact(payload.data(), len, context + " payload");
  if (crc32(payload) != expected_crc) {
    count_metric("iotls_store_crc_failures_total",
                 "Capture-store frames rejected by checksum", 1);
    throw StoreCorruptionError(file->path() + ": " + context +
                               " checksum mismatch");
  }
  return payload;
}

}  // namespace

ShardReader::ShardReader(const std::string& path)
    : file_(CheckedFile::open_read(path)) {
  std::array<std::uint8_t, kShardMagic.size()> magic{};
  file_.read_exact(magic.data(), magic.size(), "shard magic");
  if (magic != kShardMagic) {
    throw StoreFormatError(path + ": bad shard magic (not a capture-store "
                           "shard file)");
  }
  try {
    header_ = decode_shard_header(read_framed_payload(&file_, "shard header"));
  } catch (const StoreFormatError& e) {
    throw StoreFormatError(path + ": " + e.what());
  }
}

bool ShardReader::next(std::vector<testbed::PassiveConnectionGroup>* out) {
  out->clear();
  if (finished_) return false;

  std::uint8_t type = 0;
  if (file_.read(&type, 1) != 1) {
    throw StoreCorruptionError(file_.path() +
                               ": shard truncated before footer");
  }
  if (type == kBlockGroups) {
    const common::Bytes payload = read_framed_payload(&file_, "group block");
    try {
      decode_block(payload, header_, &dict_, out);
    } catch (const StoreFormatError& e) {
      throw StoreFormatError(file_.path() + ": " + e.what());
    }
    ++blocks_;
    block_groups_.push_back(out->size());
    groups_ += out->size();
    count_metric("iotls_store_blocks_read_total",
                 "Capture-store blocks decoded", 1);
    return true;
  }
  if (type == kBlockFooter) {
    const common::Bytes payload = read_framed_payload(&file_, "shard footer");
    try {
      footer_ = decode_shard_footer(payload);
    } catch (const StoreFormatError& e) {
      throw StoreFormatError(file_.path() + ": footer: " + e.what());
    }
    if (footer_.groups != groups_ || footer_.blocks != blocks_ ||
        footer_.dict_entries != dict_.size()) {
      throw StoreCorruptionError(
          file_.path() + ": footer totals disagree with blocks read (footer " +
          std::to_string(footer_.groups) + " groups / " +
          std::to_string(footer_.blocks) + " blocks / " +
          std::to_string(footer_.dict_entries) + " dict entries; read " +
          std::to_string(groups_) + " / " + std::to_string(blocks_) + " / " +
          std::to_string(dict_.size()) + ")");
    }
    for (std::size_t i = 0; i < block_groups_.size(); ++i) {
      if (footer_.block_stats[i].groups != block_groups_[i]) {
        throw StoreCorruptionError(
            file_.path() + ": footer stats claim " +
            std::to_string(footer_.block_stats[i].groups) +
            " groups in block " + std::to_string(i) + " but it decoded " +
            std::to_string(block_groups_[i]));
      }
    }
    if (footer_.dictionary != dict_.entries()) {
      throw StoreCorruptionError(
          file_.path() +
          ": footer dictionary disagrees with the in-block entries");
    }
    std::uint8_t extra = 0;
    if (file_.read(&extra, 1) != 0) {
      throw StoreCorruptionError(file_.path() +
                                 ": trailing bytes after the shard footer");
    }
    count_metric("iotls_store_blocks_read_total",
                 "Capture-store blocks decoded", 1);
    finished_ = true;
    return false;
  }
  throw StoreFormatError(file_.path() + ": unknown block type " +
                         std::to_string(type));
}

ShardIndex read_shard_index(const std::string& path) {
  ShardIndex index;
  index.path = path;
  CheckedFile file = CheckedFile::open_read(path);
  std::array<std::uint8_t, kShardMagic.size()> magic{};
  file.read_exact(magic.data(), magic.size(), "shard magic");
  if (magic != kShardMagic) {
    throw StoreFormatError(path + ": bad shard magic (not a capture-store "
                           "shard file)");
  }
  try {
    index.header =
        decode_shard_header(read_framed_payload(&file, "shard header"));
  } catch (const StoreFormatError& e) {
    throw StoreFormatError(path + ": " + e.what());
  }
  for (;;) {
    const std::uint64_t frame_offset = file.tell();
    std::uint8_t type = 0;
    if (file.read(&type, 1) != 1) {
      throw StoreCorruptionError(path + ": shard truncated before footer");
    }
    if (type == kBlockGroups) {
      const std::uint32_t len = read_u32(&file, "group block length");
      (void)read_u32(&file, "group block checksum");
      if (len > kMaxBlockPayload) {
        throw StoreFormatError(path + ": group block length " +
                               std::to_string(len) +
                               " exceeds the format cap");
      }
      // Seek over the payload instead of reading it — BlockFetcher CRC-
      // checks the blocks a scan actually touches.
      file.seek(file.tell() + len);
      index.blocks.push_back(BlockRef{frame_offset, len});
      continue;
    }
    if (type == kBlockFooter) {
      const common::Bytes payload = read_framed_payload(&file, "shard footer");
      try {
        index.footer = decode_shard_footer(payload);
      } catch (const StoreFormatError& e) {
        throw StoreFormatError(path + ": footer: " + e.what());
      }
      if (index.footer.blocks != index.blocks.size()) {
        throw StoreCorruptionError(
            path + ": footer counts " + std::to_string(index.footer.blocks) +
            " blocks but the shard frames " +
            std::to_string(index.blocks.size()));
      }
      std::uint8_t extra = 0;
      if (file.read(&extra, 1) != 0) {
        throw StoreCorruptionError(path +
                                   ": trailing bytes after the shard footer");
      }
      return index;
    }
    throw StoreFormatError(path + ": unknown block type " +
                           std::to_string(type));
  }
}

BlockFetcher::BlockFetcher(const ShardIndex& index)
    : index_(index), file_(CheckedFile::open_read(index.path)) {}

common::Bytes BlockFetcher::fetch(std::size_t i) {
  const BlockRef& ref = index_.blocks.at(i);
  file_.seek(ref.offset);
  std::uint8_t type = 0;
  file_.read_exact(&type, 1, "group block type");
  if (type != kBlockGroups) {
    throw StoreCorruptionError(file_.path() + ": block " + std::to_string(i) +
                               " frame type changed under the index");
  }
  common::Bytes payload = read_framed_payload(&file_, "group block");
  if (payload.size() != ref.length) {
    throw StoreCorruptionError(file_.path() + ": block " + std::to_string(i) +
                               " length changed under the index");
  }
  return payload;
}

std::size_t scan_shard_rows(const std::string& path, std::uint32_t fields,
                            const BlockFilter& keep,
                            const RowVisitor& visit) {
  const ShardIndex index = read_shard_index(path);
  StringDictionary dict;
  for (const std::string& entry : index.footer.dictionary) dict.append(entry);

  BlockFetcher fetcher(index);
  ProjectedRow row;
  for (std::size_t i = 0; i < index.blocks.size(); ++i) {
    const BlockStats& stats = index.footer.block_stats[i];
    if (keep && !keep(stats, dict)) continue;
    const common::Bytes payload = fetcher.fetch(i);
    ProjectedBlockCursor cursor(payload, index.header, fields, dict);
    if (cursor.rows_total() != stats.groups) {
      throw StoreCorruptionError(
          path + ": block " + std::to_string(i) + " holds " +
          std::to_string(cursor.rows_total()) +
          " groups but the footer stats claim " +
          std::to_string(stats.groups));
    }
    while (cursor.next(&row)) visit(row, dict);
  }
  return index.blocks.size();
}

std::vector<std::string> list_shards(const std::string& dir,
                                     bool allow_empty) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    throw StoreIoError("cannot read store directory " + dir + ": " +
                       ec.message());
  }
  std::vector<std::string> paths;
  for (const auto& entry : it) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() >= std::string(kShardSuffix).size() &&
        name.ends_with(kShardSuffix)) {
      paths.push_back(entry.path().string());
    }
  }
  if (paths.empty() && !allow_empty) {
    throw StoreIoError("no " + std::string(kShardSuffix) + " shards in " +
                       dir);
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

DatasetCursor::DatasetCursor(std::vector<std::string> shard_paths)
    : shard_paths_(std::move(shard_paths)) {}

DatasetCursor DatasetCursor::open(const std::string& dir) {
  return DatasetCursor(list_shards(dir));
}

void DatasetCursor::for_each(
    const std::function<void(const testbed::PassiveConnectionGroup&)>& fn)
    const {
  std::vector<testbed::PassiveConnectionGroup> block;
  for (const auto& path : shard_paths_) {
    ShardReader reader(path);
    while (reader.next(&block)) {
      for (const auto& group : block) fn(group);
    }
  }
}

ValidateReport validate_shard(const std::string& path) {
  ShardReader reader(path);
  std::vector<testbed::PassiveConnectionGroup> block;
  while (reader.next(&block)) {
  }
  ValidateReport report;
  report.shards = 1;
  report.groups = reader.groups_read();
  report.blocks = reader.blocks_read();
  report.bytes = file_size(path);
  return report;
}

ValidateReport validate_store(const std::string& dir, std::size_t threads) {
  const std::vector<std::string> paths = list_shards(dir);
  struct ShardCheck {
    ValidateReport report;
    ShardHeader header;
  };
  const auto checks =
      common::parallel_map(threads, paths, [](const std::string& path) {
        ShardCheck check;
        check.header = ShardReader(path).header();
        check.report = validate_shard(path);
        return check;
      });

  ValidateReport total;
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const auto& header = checks[i].header;
    if (header.shard_count != checks.size()) {
      throw StoreFormatError(
          paths[i] + ": header claims " + std::to_string(header.shard_count) +
          " shards but the store has " + std::to_string(checks.size()));
    }
    if (header.shard_index != i) {
      throw StoreFormatError(paths[i] + ": header shard_index " +
                             std::to_string(header.shard_index) +
                             " does not match its position " +
                             std::to_string(i));
    }
    if (header.seed != checks[0].header.seed ||
        header.first != checks[0].header.first ||
        header.last != checks[0].header.last) {
      throw StoreFormatError(paths[i] +
                             ": header seed/window disagrees with shard 0");
    }
    total.shards += 1;
    total.groups += checks[i].report.groups;
    total.blocks += checks[i].report.blocks;
    total.bytes += checks[i].report.bytes;
  }
  return total;
}

testbed::PassiveDataset read_store(const std::string& dir) {
  testbed::PassiveDataset dataset;
  DatasetCursor::open(dir).for_each(
      [&](const testbed::PassiveConnectionGroup& group) {
        dataset.add(group);
      });
  return dataset;
}

}  // namespace iotls::store
