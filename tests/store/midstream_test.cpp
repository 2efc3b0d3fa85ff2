// Mid-stream reader failure modes: EOF landing *inside* a group block or
// the footer, and a block that references dictionary entries it never
// defined (decoded without the dictionary entries before it). Every case
// must surface as a typed StoreError at the point of the defect — after
// the preceding intact blocks were already delivered.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "store/codec.hpp"
#include "store/format.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "testdata.hpp"

namespace {

namespace fs = std::filesystem;
using iotls::store::StoreError;
using iotls::store::StoreFormatError;

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// A multi-block single-shard store plus its frame index, built per test.
class MidstreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/iotls_store_midstream";
    fs::remove_all(dir_);
    const auto dataset = iotls::storetest::random_dataset(0x51DE, 96);
    iotls::store::StoreOptions options;
    options.block_bytes = 512;
    options.threads = 1;
    (void)iotls::store::write_store(dataset, dir_, options);
    shard_ = (fs::path(dir_) / iotls::store::shard_filename(0)).string();
    index_ = iotls::store::read_shard_index(shard_);
    ASSERT_GE(index_.blocks.size(), 3u);
  }

  void TearDown() override { fs::remove_all(dir_); }

  /// Streaming the shard must deliver some blocks, then fail typed.
  void expect_midstream_error(std::uint64_t min_groups_before_failure) {
    std::uint64_t groups = 0;
    try {
      iotls::store::DatasetCursor(std::vector<std::string>{shard_})
          .for_each([&](const iotls::testbed::PassiveConnectionGroup&) {
            ++groups;
          });
      FAIL() << "defective shard must not stream to completion";
    } catch (const StoreError&) {
      // Typed, as required.
    }
    EXPECT_GE(groups, min_groups_before_failure);
  }

  std::string dir_, shard_;
  iotls::store::ShardIndex index_;
};

TEST_F(MidstreamTest, EofInsideBlockPayload) {
  auto bytes = slurp(shard_);
  // Cut in the middle of the second block's payload: the first block still
  // streams, then the reader hits EOF mid-frame.
  const std::uint64_t cut = index_.blocks[1].offset + 9 +
                            index_.blocks[1].length / 2;
  ASSERT_LT(cut, bytes.size());
  bytes.resize(static_cast<std::size_t>(cut));
  spit(shard_, bytes);
  expect_midstream_error(index_.footer.block_stats[0].groups);
  EXPECT_THROW((void)iotls::store::read_shard_index(shard_), StoreError);
}

TEST_F(MidstreamTest, EofInsideFramePrelude) {
  auto bytes = slurp(shard_);
  // Keep the type byte and one length byte of the second block: the frame
  // prelude itself is cut short.
  bytes.resize(static_cast<std::size_t>(index_.blocks[1].offset + 2));
  spit(shard_, bytes);
  expect_midstream_error(index_.footer.block_stats[0].groups);
  EXPECT_THROW((void)iotls::store::read_shard_index(shard_), StoreError);
}

TEST_F(MidstreamTest, EofInsideFooter) {
  auto bytes = slurp(shard_);
  bytes.resize(bytes.size() - 4);  // chop the footer payload's tail
  spit(shard_, bytes);
  // Every group block is intact — the failure comes at footer time.
  expect_midstream_error(index_.footer.groups);
  EXPECT_THROW((void)iotls::store::read_shard_index(shard_), StoreError);
}

TEST_F(MidstreamTest, MissingFooterReadsAsTruncated) {
  auto bytes = slurp(shard_);
  bytes.resize(static_cast<std::size_t>(index_.blocks.back().offset + 9 +
                                        index_.blocks.back().length));
  spit(shard_, bytes);  // all blocks intact, footer frame gone entirely
  expect_midstream_error(index_.footer.groups);
  EXPECT_THROW((void)iotls::store::read_shard_index(shard_), StoreError);
}

TEST_F(MidstreamTest, DictEntryReferencedBeforeDefined) {
  // Later blocks reference dictionary ids interned by earlier ones. Decoding
  // such a block against a fresh dictionary — sequential mode, as if the
  // preceding blocks never ran — must be a typed format error, not an
  // out-of-bounds read.
  iotls::store::BlockFetcher fetcher(index_);
  bool found_reference = false;
  for (std::size_t i = 1; i < index_.blocks.size() && !found_reference; ++i) {
    const iotls::common::Bytes payload = fetcher.fetch(i);
    iotls::store::StringDictionary fresh;
    std::vector<iotls::testbed::PassiveConnectionGroup> out;
    try {
      iotls::store::decode_block(iotls::common::BytesView(payload),
                                 index_.header, &fresh, &out);
    } catch (const StoreFormatError&) {
      found_reference = true;  // typed rejection, exactly as required
    }
  }
  EXPECT_TRUE(found_reference)
      << "no block referenced an earlier block's dictionary entries; "
         "grow the dataset";

  // The projected cursor makes the same promise: against an empty
  // dictionary in place of the footer's, the first row's device id is
  // undefined.
  const iotls::common::Bytes payload = fetcher.fetch(1);
  EXPECT_THROW(
      {
        const iotls::store::StringDictionary empty;
        iotls::store::ProjectedBlockCursor cursor(
            payload, index_.header, iotls::store::kFieldAllLists, empty);
        iotls::store::ProjectedRow row;
        while (cursor.next(&row)) {
        }
      },
      StoreFormatError);
}

}  // namespace
