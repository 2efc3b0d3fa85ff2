// Capture-store behavior: the dataset's per-device index, shard layouts,
// round trips, write determinism across thread counts, cross-shard
// validation, the iotls_store_* metrics, and the iotls-store CLI contract.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "testbed/longitudinal.hpp"
#include "testdata.hpp"

namespace {

namespace fs = std::filesystem;
using iotls::store::DatasetCursor;
using iotls::store::ShardLayout;
using iotls::store::StoreOptions;
using iotls::testbed::PassiveDataset;

std::string fresh_dir(const std::string& name) {
  const std::string dir = "/tmp/iotls_store_test_" + name;
  fs::remove_all(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---------------------------------------------------------------------------
// PassiveDataset per-device index
// ---------------------------------------------------------------------------

TEST(DatasetIndex, TracksDevicesGroupsAndTotals) {
  iotls::common::Rng rng(11);
  PassiveDataset dataset;
  auto a1 = iotls::storetest::random_group(rng);
  a1.record.device = "camera";
  a1.count = 10;
  auto b = iotls::storetest::random_group(rng);
  b.record.device = "bulb";
  b.count = 5;
  auto a2 = iotls::storetest::random_group(rng);
  a2.record.device = "camera";
  a2.count = 7;
  dataset.add(a1);
  dataset.add(b);
  dataset.add(a2);

  EXPECT_EQ(dataset.total_connections(), 22u);
  EXPECT_EQ(dataset.devices(), (std::vector<std::string>{"bulb", "camera"}));
  const auto camera = dataset.for_device("camera");
  ASSERT_EQ(camera.size(), 2u);
  EXPECT_EQ(camera[0]->count, 10u);  // dataset order preserved
  EXPECT_EQ(camera[1]->count, 7u);
  EXPECT_TRUE(dataset.for_device("absent").empty());
}

// ---------------------------------------------------------------------------
// Layouts and round trips
// ---------------------------------------------------------------------------

TEST(StoreRoundTrip, SingleLayoutPreservesDatasetOrder) {
  const auto dataset = iotls::storetest::random_dataset(21, 200);
  const std::string dir = fresh_dir("single");
  const auto report = iotls::store::write_store(dataset, dir);
  ASSERT_EQ(report.shards.size(), 1u);
  EXPECT_EQ(report.total_groups(), 200u);

  const PassiveDataset loaded = iotls::store::read_store(dir);
  EXPECT_EQ(iotls::testbed::dataset_to_tsv(loaded),
            iotls::testbed::dataset_to_tsv(dataset));
  fs::remove_all(dir);
}

TEST(StoreRoundTrip, PerDeviceLayoutPreservesPerDeviceStreams) {
  const auto dataset = iotls::storetest::random_dataset(22, 150);
  const std::string dir = fresh_dir("per_device");
  StoreOptions options;
  options.layout = ShardLayout::PerDevice;
  const auto report = iotls::store::write_store(dataset, dir, options);
  EXPECT_EQ(report.shards.size(), dataset.devices().size());

  const PassiveDataset loaded = iotls::store::read_store(dir);
  EXPECT_EQ(loaded.devices(), dataset.devices());
  EXPECT_EQ(loaded.total_connections(), dataset.total_connections());
  for (const auto& device : dataset.devices()) {
    const auto want = dataset.for_device(device);
    const auto got = loaded.for_device(device);
    ASSERT_EQ(got.size(), want.size()) << device;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(iotls::testbed::group_to_tsv_row(*got[i]),
                iotls::testbed::group_to_tsv_row(*want[i]));
    }
  }
  fs::remove_all(dir);
}

TEST(StoreRoundTrip, FixedSizeLayoutSlicesInOrder) {
  const auto dataset = iotls::storetest::random_dataset(23, 100);
  const std::string dir = fresh_dir("fixed");
  StoreOptions options;
  options.layout = ShardLayout::FixedSize;
  options.groups_per_shard = 16;
  const auto report = iotls::store::write_store(dataset, dir, options);
  EXPECT_EQ(report.shards.size(), 7u);  // ceil(100 / 16)

  const PassiveDataset loaded = iotls::store::read_store(dir);
  EXPECT_EQ(iotls::testbed::dataset_to_tsv(loaded),
            iotls::testbed::dataset_to_tsv(dataset));
  fs::remove_all(dir);
}

TEST(StoreWrite, BytesAreIdenticalAtAnyThreadCount) {
  const auto dataset = iotls::storetest::random_dataset(24, 120);
  const std::string serial_dir = fresh_dir("threads1");
  const std::string parallel_dir = fresh_dir("threads4");
  StoreOptions serial;
  serial.layout = ShardLayout::PerDevice;
  serial.threads = 1;
  StoreOptions parallel = serial;
  parallel.threads = 4;
  const auto a = iotls::store::write_store(dataset, serial_dir, serial);
  const auto b = iotls::store::write_store(dataset, parallel_dir, parallel);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (std::size_t i = 0; i < a.shards.size(); ++i) {
    EXPECT_EQ(slurp(a.shards[i].path), slurp(b.shards[i].path));
  }
  fs::remove_all(serial_dir);
  fs::remove_all(parallel_dir);
}

TEST(StoreWrite, ShardNamerRenamesWithoutChangingContent) {
  const auto dataset = iotls::storetest::random_dataset(27, 100);
  const std::string default_dir = fresh_dir("namer_default");
  const std::string custom_dir = fresh_dir("namer_custom");
  StoreOptions options;
  options.layout = ShardLayout::FixedSize;
  options.groups_per_shard = 16;
  const auto base = iotls::store::write_store(dataset, default_dir, options);

  StoreOptions renamed = options;
  renamed.shard_namer = [](std::uint32_t index) {
    return "scan-" + std::to_string(index) + ".iotshard";
  };
  const auto custom = iotls::store::write_store(dataset, custom_dir, renamed);
  ASSERT_EQ(base.shards.size(), custom.shards.size());
  for (std::size_t i = 0; i < base.shards.size(); ++i) {
    EXPECT_EQ(fs::path(custom.shards[i].path).filename().string(),
              "scan-" + std::to_string(i) + ".iotshard");
    // Renaming never perturbs stored bytes: shard contents are a function
    // of the dataset slice, not the file name.
    EXPECT_EQ(slurp(base.shards[i].path), slurp(custom.shards[i].path));
  }
  fs::remove_all(default_dir);
  fs::remove_all(custom_dir);
}

TEST(StoreWrite, NullShardNamerIsByteIdenticalToDefaultNames) {
  const auto dataset = iotls::storetest::random_dataset(28, 40);
  const std::string plain_dir = fresh_dir("namer_null");
  const std::string explicit_dir = fresh_dir("namer_explicit");
  StoreOptions options;
  options.layout = ShardLayout::FixedSize;
  options.groups_per_shard = 8;
  const auto plain = iotls::store::write_store(dataset, plain_dir, options);
  StoreOptions with_namer = options;
  with_namer.shard_namer = iotls::store::shard_filename;
  const auto named =
      iotls::store::write_store(dataset, explicit_dir, with_namer);
  ASSERT_EQ(plain.shards.size(), named.shards.size());
  for (std::size_t i = 0; i < plain.shards.size(); ++i) {
    EXPECT_EQ(fs::path(plain.shards[i].path).filename(),
              fs::path(named.shards[i].path).filename());
    EXPECT_EQ(slurp(plain.shards[i].path), slurp(named.shards[i].path));
  }
  fs::remove_all(plain_dir);
  fs::remove_all(explicit_dir);
}

TEST(StoreWrite, ShardNamerWithoutSuffixThrows) {
  const auto dataset = iotls::storetest::random_dataset(29, 10);
  const std::string dir = fresh_dir("namer_suffix");
  StoreOptions options;
  options.shard_namer = [](std::uint32_t index) {
    return "shard-" + std::to_string(index) + ".dat";
  };
  EXPECT_THROW((void)iotls::store::write_store(dataset, dir, options),
               iotls::store::StoreFormatError);
  fs::remove_all(dir);
}

TEST(StoreWrite, RefusesToOverwriteExistingShards) {
  const auto dataset = iotls::storetest::random_dataset(25, 10);
  const std::string dir = fresh_dir("overwrite");
  (void)iotls::store::write_store(dataset, dir);
  EXPECT_THROW((void)iotls::store::write_store(dataset, dir),
               iotls::store::StoreIoError);
  fs::remove_all(dir);
}

TEST(StoreValidate, ReportsTotalsAndCatchesForeignShards) {
  const auto dataset = iotls::storetest::random_dataset(26, 80);
  const std::string dir = fresh_dir("validate");
  const auto written = iotls::store::write_store(dataset, dir);
  const auto report = iotls::store::validate_store(dir, 2);
  EXPECT_EQ(report.shards, 1u);
  EXPECT_EQ(report.groups, 80u);
  EXPECT_EQ(report.blocks, written.total_blocks());
  EXPECT_GT(report.bytes, 0u);

  // A shard from a different run (other seed) smuggled into the directory
  // must fail the cross-shard consistency checks.
  const std::string foreign_dir = fresh_dir("validate_foreign");
  StoreOptions foreign;
  foreign.seed = 999;
  (void)iotls::store::write_store(iotls::storetest::random_dataset(27, 8),
                                  foreign_dir, foreign);
  fs::copy_file(fs::path(foreign_dir) / iotls::store::shard_filename(0),
                fs::path(dir) / iotls::store::shard_filename(1));
  EXPECT_THROW((void)iotls::store::validate_store(dir),
               iotls::store::StoreError);
  fs::remove_all(dir);
  fs::remove_all(foreign_dir);
}

TEST(StoreFilename, IsZeroPadded) {
  EXPECT_EQ(iotls::store::shard_filename(7), "shard-0007.iotshard");
  EXPECT_EQ(iotls::store::shard_filename(1234), "shard-1234.iotshard");
}

TEST(StoreMetrics, CountersAdvanceWhenEnabled) {
  const bool was_enabled = iotls::obs::metrics_enabled();
  iotls::obs::set_metrics_enabled(true);
  auto& registry = iotls::obs::MetricsRegistry::global();
  auto& written = registry.counter("iotls_store_bytes_written_total",
                                   "Capture-store bytes written");
  auto& read = registry.counter("iotls_store_bytes_read_total",
                                "Capture-store bytes read");
  const std::uint64_t written_before = written.value();
  const std::uint64_t read_before = read.value();

  const auto dataset = iotls::storetest::random_dataset(28, 40);
  const std::string dir = fresh_dir("metrics");
  (void)iotls::store::write_store(dataset, dir);
  (void)iotls::store::read_store(dir);
  EXPECT_GT(written.value(), written_before);
  EXPECT_GT(read.value(), read_before);

  iotls::obs::set_metrics_enabled(was_enabled);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// iotls-store CLI contract
// ---------------------------------------------------------------------------

int run_cli(const std::string& args) {
  const std::string cmd = std::string(IOTLS_STORE_BIN) + " " + args +
                          " > /dev/null 2> /dev/null";
  const int status = std::system(cmd.c_str());
  return WEXITSTATUS(status);
}

TEST(StoreCli, InspectValidateAndUsageExitCodes) {
  const auto dataset = iotls::storetest::random_dataset(30, 60);
  const std::string dir = fresh_dir("cli");
  (void)iotls::store::write_store(dataset, dir);

  EXPECT_EQ(run_cli("inspect " + dir), 0);
  EXPECT_EQ(run_cli("validate " + dir), 0);
  EXPECT_EQ(run_cli("validate " + dir + " --threads 2"), 0);
  EXPECT_EQ(run_cli("validate /tmp/iotls_no_such_store"), 1);
  EXPECT_EQ(run_cli(""), 2);
  EXPECT_EQ(run_cli("frobnicate"), 2);
  EXPECT_EQ(run_cli("validate " + dir + " --threads nope"), 2);

  // Corrupt one payload byte: validate must fail with exit 1.
  const std::string shard =
      (fs::path(dir) / iotls::store::shard_filename(0)).string();
  auto bytes = slurp(shard);
  bytes[bytes.size() / 2] ^= 0x10;
  std::ofstream(shard, std::ios::binary | std::ios::trunc) << bytes;
  EXPECT_EQ(run_cli("validate " + dir), 1);
  fs::remove_all(dir);
}

TEST(StoreCli, ExportTsvMatchesInMemoryRendering) {
  const auto dataset = iotls::storetest::random_dataset(31, 70);
  const std::string dir = fresh_dir("cli_export");
  (void)iotls::store::write_store(dataset, dir);
  const std::string tsv_path = dir + "/export.tsv";
  ASSERT_EQ(run_cli("export-tsv " + dir + " " + tsv_path), 0);
  EXPECT_EQ(slurp(tsv_path), iotls::testbed::dataset_to_tsv(dataset));
  fs::remove_all(dir);
}

TEST(StoreCli, MergeConcatenatesStores) {
  const auto first = iotls::storetest::random_dataset(32, 30);
  const auto second = iotls::storetest::random_dataset(33, 20);
  const std::string dir_a = fresh_dir("cli_merge_a");
  const std::string dir_b = fresh_dir("cli_merge_b");
  const std::string dir_out = fresh_dir("cli_merge_out");
  (void)iotls::store::write_store(first, dir_a);
  (void)iotls::store::write_store(second, dir_b);

  ASSERT_EQ(run_cli("merge " + dir_out + " " + dir_a + " " + dir_b), 0);
  const auto report = iotls::store::validate_store(dir_out);
  EXPECT_EQ(report.shards, 1u);
  EXPECT_EQ(report.groups, 50u);

  // Merged stream = first's groups then second's, in order.
  std::string merged_tsv = iotls::testbed::dataset_tsv_header() + "\n";
  DatasetCursor::open(dir_out).for_each(
      [&](const iotls::testbed::PassiveConnectionGroup& group) {
        merged_tsv += iotls::testbed::group_to_tsv_row(group);
      });
  EXPECT_EQ(merged_tsv, iotls::testbed::dataset_to_tsv(first) +
                            iotls::testbed::dataset_to_tsv(second).substr(
                                iotls::testbed::dataset_tsv_header().size() +
                                1));
  fs::remove_all(dir_a);
  fs::remove_all(dir_b);
  fs::remove_all(dir_out);
}

}  // namespace
