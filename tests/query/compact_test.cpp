// Compaction tests: small-shard coalescing round-trips the exact group
// sequence, output bytes are deterministic across thread counts, corrupted
// or truncated inputs surface as typed StoreErrors without touching the
// sources, and a partial (killed mid-write) output shard is detected by
// validation. Plus the `iotls-store merge` empty-input regression.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "store/testdata.hpp"
#include "query/scan.hpp"
#include "store/compact.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"

namespace {

namespace fs = std::filesystem;
using iotls::store::CompactOptions;
using iotls::store::compact_store;
using iotls::store::StoreError;

std::string fresh_dir(const std::string& tag) {
  const std::string dir = "/tmp/iotls_query_compact_" + tag;
  fs::remove_all(dir);
  return dir;
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// All groups of a store in cursor order.
std::vector<iotls::testbed::PassiveConnectionGroup> read_all(
    const std::string& dir) {
  std::vector<iotls::testbed::PassiveConnectionGroup> out;
  iotls::store::DatasetCursor::open(dir).for_each(
      [&](const iotls::testbed::PassiveConnectionGroup& g) {
        out.push_back(g);
      });
  return out;
}

TEST(Compact, CoalescesSmallShardsPreservingTheGroupSequence) {
  const auto dataset = iotls::storetest::random_dataset(0xC0A1, 240);
  const std::string in_dir = fresh_dir("roundtrip_in");
  const std::string out_dir = fresh_dir("roundtrip_out");
  iotls::store::StoreOptions store_options;
  store_options.layout = iotls::store::ShardLayout::FixedSize;
  store_options.groups_per_shard = 16;  // 15 small input shards
  store_options.block_bytes = 512;
  store_options.threads = 1;
  (void)iotls::store::write_store(dataset, in_dir, store_options);

  CompactOptions options;
  options.groups_per_shard = 100;
  options.threads = 1;
  const auto report = compact_store({in_dir}, out_dir, options);
  EXPECT_EQ(report.input_shards, 15u);
  EXPECT_EQ(report.output_shards, 3u);  // ceil(240 / 100)
  EXPECT_EQ(report.groups, 240u);

  // Integrity + exact sequence round-trip.
  (void)iotls::store::validate_store(out_dir, 1);
  const auto before = read_all(in_dir);
  const auto after = read_all(out_dir);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    iotls::storetest::expect_group_eq(after[i], before[i]);
  }

  // The rebuilt shards carry one stats record per block and the full
  // dictionary, so the query layer's pushdown scan reads them — and agrees
  // with the oracle.
  for (const auto& path : iotls::store::list_shards(out_dir)) {
    const auto index = iotls::store::read_shard_index(path);
    EXPECT_EQ(index.footer.block_stats.size(), index.blocks.size());
    EXPECT_EQ(index.footer.dictionary.size(), index.footer.dict_entries);
  }
  iotls::query::QueryOptions query;
  query.filter = "device == dev-3";
  query.threads = 1;
  EXPECT_EQ(render_tsv(iotls::query::run_query(out_dir, query)),
            render_tsv(iotls::query::run_query_naive(in_dir, query)));

  fs::remove_all(in_dir);
  fs::remove_all(out_dir);
}

TEST(Compact, OutputBytesAreThreadCountIndependent) {
  const auto dataset = iotls::storetest::random_dataset(0xC0A2, 180);
  const std::string in_dir = fresh_dir("det_in");
  iotls::store::StoreOptions store_options;
  store_options.layout = iotls::store::ShardLayout::PerDevice;
  store_options.block_bytes = 512;
  store_options.threads = 1;
  (void)iotls::store::write_store(dataset, in_dir, store_options);

  const std::string serial_dir = fresh_dir("det_serial");
  const std::string parallel_dir = fresh_dir("det_parallel");
  CompactOptions options;
  options.groups_per_shard = 50;
  options.threads = 1;
  (void)compact_store({in_dir}, serial_dir, options);
  options.threads = 8;
  (void)compact_store({in_dir}, parallel_dir, options);

  const auto serial = iotls::store::list_shards(serial_dir);
  const auto parallel = iotls::store::list_shards(parallel_dir);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(slurp(serial[i]), slurp(parallel[i])) << serial[i];
  }
  fs::remove_all(in_dir);
  fs::remove_all(serial_dir);
  fs::remove_all(parallel_dir);
}

TEST(Compact, EmptyInputsProduceAValidEmptyStore) {
  const std::string in_dir = fresh_dir("empty_in");
  const std::string out_dir = fresh_dir("empty_out");
  fs::create_directories(in_dir);  // a store directory with no shards

  const auto report = compact_store({in_dir}, out_dir, CompactOptions{});
  EXPECT_EQ(report.input_shards, 0u);
  EXPECT_EQ(report.output_shards, 1u);
  EXPECT_EQ(report.groups, 0u);
  (void)iotls::store::validate_store(out_dir, 1);
  EXPECT_TRUE(read_all(out_dir).empty());

  // A zero-record *shard* (the store we just wrote) is also a legal input.
  const std::string again = fresh_dir("empty_again");
  const auto second = compact_store({out_dir}, again, CompactOptions{});
  EXPECT_EQ(second.input_shards, 1u);
  EXPECT_EQ(second.groups, 0u);
  (void)iotls::store::validate_store(again, 1);

  fs::remove_all(in_dir);
  fs::remove_all(out_dir);
  fs::remove_all(again);
}

TEST(Compact, RefusesToOverwriteExistingShards) {
  const auto dataset = iotls::storetest::random_dataset(0xC0A3, 20);
  const std::string in_dir = fresh_dir("overwrite_in");
  const std::string out_dir = fresh_dir("overwrite_out");
  (void)iotls::store::write_store(dataset, in_dir);
  (void)iotls::store::write_store(dataset, out_dir);
  EXPECT_THROW(compact_store({in_dir}, out_dir, CompactOptions{}),
               iotls::store::StoreIoError);
  fs::remove_all(in_dir);
  fs::remove_all(out_dir);
}

class CompactFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    in_dir_ = fresh_dir("fault_in");
    out_dir_ = fresh_dir("fault_out");
    const auto dataset = iotls::storetest::random_dataset(0xFA17, 120);
    iotls::store::StoreOptions options;
    options.layout = iotls::store::ShardLayout::FixedSize;
    options.groups_per_shard = 40;
    options.block_bytes = 512;
    options.threads = 1;
    (void)iotls::store::write_store(dataset, in_dir_, options);
    shards_ = iotls::store::list_shards(in_dir_);
    ASSERT_EQ(shards_.size(), 3u);
  }

  void TearDown() override {
    fs::remove_all(in_dir_);
    fs::remove_all(out_dir_);
  }

  /// Compaction must throw a typed StoreError; the *other* input shards
  /// must remain byte-identical and readable afterwards.
  void expect_typed_failure() {
    const auto pristine0 = slurp(shards_[0]);
    try {
      (void)compact_store({in_dir_}, out_dir_, CompactOptions{});
      FAIL() << "compaction of a defective store must throw";
    } catch (const StoreError&) {
      // Typed — never std::exception, never a crash.
    }
    EXPECT_EQ(slurp(shards_[0]), pristine0);
    (void)iotls::store::validate_shard(shards_[0]);
  }

  std::string in_dir_, out_dir_;
  std::vector<std::string> shards_;
};

TEST_F(CompactFaultTest, BitFlippedInputSurfacesAsTypedError) {
  auto bytes = slurp(shards_[1]);
  bytes[bytes.size() / 2] ^= 0x04;
  spit(shards_[1], bytes);
  expect_typed_failure();
}

TEST_F(CompactFaultTest, TruncatedInputSurfacesAsTypedError) {
  auto bytes = slurp(shards_[2]);
  bytes.resize(bytes.size() / 2);
  spit(shards_[2], bytes);
  expect_typed_failure();
}

TEST_F(CompactFaultTest, PartialOutputShardIsDetectedByValidate) {
  (void)compact_store({in_dir_}, out_dir_, CompactOptions{});
  (void)iotls::store::validate_store(out_dir_, 1);

  // Simulate a mid-write kill: chop the output shard's tail (footer and
  // part of the last block). validate must reject it — and the sources are
  // untouched by construction, so re-compacting elsewhere still works.
  const auto out_shards = iotls::store::list_shards(out_dir_);
  ASSERT_EQ(out_shards.size(), 1u);
  auto bytes = slurp(out_shards[0]);
  bytes.resize(bytes.size() - bytes.size() / 4);
  spit(out_shards[0], bytes);
  EXPECT_THROW((void)iotls::store::validate_store(out_dir_, 1), StoreError);

  const std::string retry_dir = fresh_dir("fault_retry");
  const auto report = compact_store({in_dir_}, retry_dir, CompactOptions{});
  EXPECT_EQ(report.groups, 120u);
  fs::remove_all(retry_dir);
}

int run_store_cli(const std::string& args) {
  const std::string cmd = std::string(IOTLS_STORE_BIN) + " " + args +
                          " > /dev/null 2> /dev/null";
  const int status = std::system(cmd.c_str());
  return WEXITSTATUS(status);
}

TEST(MergeCli, EmptyAndShardlessInputsMergeToAValidEmptyStore) {
  // Regression: `merge` used to fail on input directories containing no
  // shards; it must instead write a valid empty store.
  const std::string empty1 = fresh_dir("merge_empty1");
  const std::string empty2 = fresh_dir("merge_empty2");
  const std::string out = fresh_dir("merge_out");
  fs::create_directories(empty1);
  fs::create_directories(empty2);
  ASSERT_EQ(run_store_cli("merge " + out + " " + empty1 + " " + empty2), 0);
  ASSERT_EQ(run_store_cli("validate " + out), 0);
  EXPECT_TRUE(read_all(out).empty());

  // The resulting zero-record shard is itself a legal merge input.
  const std::string out2 = fresh_dir("merge_out2");
  ASSERT_EQ(run_store_cli("merge " + out2 + " " + out), 0);
  ASSERT_EQ(run_store_cli("validate " + out2), 0);
  EXPECT_TRUE(read_all(out2).empty());

  fs::remove_all(empty1);
  fs::remove_all(empty2);
  fs::remove_all(out);
  fs::remove_all(out2);
}

TEST(CompactCli, CompactsAndValidates) {
  const auto dataset = iotls::storetest::random_dataset(0xC11, 90);
  const std::string in_dir = fresh_dir("cli_in");
  const std::string out_dir = fresh_dir("cli_out");
  iotls::store::StoreOptions options;
  options.layout = iotls::store::ShardLayout::PerDevice;
  options.threads = 1;
  (void)iotls::store::write_store(dataset, in_dir, options);

  ASSERT_EQ(run_store_cli("compact " + out_dir + " " + in_dir +
                          " --groups-per-shard 100 --threads 1"),
            0);
  ASSERT_EQ(run_store_cli("validate " + out_dir), 0);
  EXPECT_EQ(run_store_cli("compact " + out_dir + " " + in_dir), 1);  // exists
  EXPECT_EQ(run_store_cli("compact " + out_dir), 2);                 // usage
  EXPECT_EQ(run_store_cli("compact " + out_dir + " " + in_dir +
                          " --threads nope"),
            2);
  fs::remove_all(in_dir);
  fs::remove_all(out_dir);
}

}  // namespace
