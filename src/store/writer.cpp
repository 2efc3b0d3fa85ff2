#include "store/writer.hpp"

#include <algorithm>
#include <cstdio>  // snprintf for shard names (not raw file I/O)
#include <filesystem>
#include <utility>

#include "common/pool.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"

namespace iotls::store {

namespace {

void count_blocks(std::uint64_t n) {
  if (!obs::metrics_enabled() || n == 0) return;
  obs::MetricsRegistry::global()
      .counter("iotls_store_blocks_written_total",
               "Capture-store blocks framed and written")
      .inc(n);
}

void write_frame(CheckedFile* file, std::uint8_t type,
                 common::BytesView payload) {
  if (payload.size() > kMaxBlockPayload) {
    throw StoreFormatError("block payload of " +
                           std::to_string(payload.size()) +
                           " bytes exceeds the format cap");
  }
  common::ByteWriter frame;
  frame.u8(type);
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.u32(crc32(payload));
  file->write(frame.bytes());
  file->write(payload);
}

}  // namespace

ShardWriter::ShardWriter(const std::string& path, ShardHeader header,
                         std::size_t block_bytes)
    : file_(CheckedFile::create(path)),
      header_(std::move(header)),
      block_bytes_(block_bytes == 0 ? kDefaultBlockBytes : block_bytes),
      encoder_(header_.first) {
  file_.write(common::BytesView(kShardMagic.data(), kShardMagic.size()));
  const common::Bytes head = encode_shard_header(header_);
  common::ByteWriter frame;
  frame.u32(static_cast<std::uint32_t>(head.size()));
  frame.u32(crc32(head));
  file_.write(frame.bytes());
  file_.write(head);
}

void ShardWriter::add(const testbed::PassiveConnectionGroup& group) {
  encoder_.add(group, &dict_);
  ++groups_;
  if (encoder_.pending_bytes() >= block_bytes_) flush_block();
}

void ShardWriter::flush_block() {
  if (encoder_.pending_groups() == 0) return;
  const obs::ProfileZone zone("store/flush_block");
  const common::Bytes payload = encoder_.finish(&dict_);
  write_frame(&file_, kBlockGroups, payload);
  stats_.push_back(encoder_.last_stats());
  ++blocks_;
}

ShardInfo ShardWriter::close() {
  if (closed_) throw StoreIoError("shard " + file_.path() + " already closed");
  closed_ = true;
  flush_block();
  ShardFooter footer;
  footer.groups = groups_;
  footer.blocks = blocks_;
  footer.dict_entries = dict_.size();
  footer.block_stats = stats_;
  footer.dictionary = dict_.entries();
  write_frame(&file_, kBlockFooter, encode_shard_footer(footer));
  count_blocks(blocks_ + 1);
  ShardInfo info;
  info.path = file_.path();
  info.header = header_;
  info.groups = groups_;
  info.blocks = blocks_;
  info.bytes = file_.bytes_written();
  file_.close();
  return info;
}

std::uint64_t StoreWriteReport::total_groups() const {
  std::uint64_t n = 0;
  for (const auto& s : shards) n += s.groups;
  return n;
}

std::uint64_t StoreWriteReport::total_blocks() const {
  std::uint64_t n = 0;
  for (const auto& s : shards) n += s.blocks;
  return n;
}

std::uint64_t StoreWriteReport::total_bytes() const {
  std::uint64_t n = 0;
  for (const auto& s : shards) n += s.bytes;
  return n;
}

std::string shard_filename(std::uint32_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard-%04u%s", index, kShardSuffix);
  return name;
}

StoreWriteReport write_store(const testbed::PassiveDataset& dataset,
                             const std::string& dir,
                             const StoreOptions& options) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    throw StoreIoError("cannot create store directory " + dir + ": " +
                       ec.message());
  }

  // One work item per shard: an ordered list of groups plus a label.
  struct ShardPlan {
    std::vector<const testbed::PassiveConnectionGroup*> groups;
    std::string label;
  };
  const auto& groups = dataset.groups();
  std::vector<ShardPlan> plans;
  switch (options.layout) {
    case ShardLayout::Single: {
      ShardPlan plan;
      plan.groups.reserve(groups.size());
      for (const auto& group : groups) plan.groups.push_back(&group);
      plans.push_back(std::move(plan));
      break;
    }
    case ShardLayout::PerDevice: {
      for (const auto& device : dataset.devices()) {
        ShardPlan plan;
        plan.label = device;
        plan.groups = dataset.for_device(device);
        plans.push_back(std::move(plan));
      }
      break;
    }
    case ShardLayout::FixedSize: {
      const std::size_t per_shard =
          std::max<std::size_t>(options.groups_per_shard, 1);
      for (std::size_t begin = 0; begin < groups.size(); begin += per_shard) {
        ShardPlan plan;
        const std::size_t end = std::min(groups.size(), begin + per_shard);
        for (std::size_t i = begin; i < end; ++i) {
          plan.groups.push_back(&groups[i]);
        }
        plans.push_back(std::move(plan));
      }
      break;
    }
  }
  if (plans.empty()) plans.emplace_back();  // empty dataset: one empty shard

  const auto name_for = [&options](std::uint32_t index) {
    if (!options.shard_namer) return shard_filename(index);
    std::string name = options.shard_namer(index);
    const std::string suffix(kShardSuffix);
    if (name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      throw StoreFormatError("shard_namer produced \"" + name +
                             "\" without the " + suffix + " suffix");
    }
    return name;
  };

  for (std::uint32_t index = 0; index < plans.size(); ++index) {
    const fs::path path = fs::path(dir) / name_for(index);
    if (fs::exists(path)) {
      throw StoreIoError("refusing to overwrite existing shard " +
                         path.string());
    }
  }

  std::vector<std::uint32_t> indices(plans.size());
  for (std::uint32_t i = 0; i < plans.size(); ++i) indices[i] = i;
  StoreWriteReport report;
  report.shards = common::parallel_map(
      options.threads, indices, [&](const std::uint32_t index) {
        const ShardPlan& plan = plans[index];
        ShardHeader header;
        header.seed = options.seed;
        header.first = options.first;
        header.last = options.last;
        header.shard_index = index;
        header.shard_count = static_cast<std::uint32_t>(plans.size());
        header.label = plan.label;
        ShardWriter writer((fs::path(dir) / name_for(index)).string(),
                           header, options.block_bytes);
        for (const auto* group : plan.groups) writer.add(*group);
        return writer.close();
      });
  return report;
}

}  // namespace iotls::store
