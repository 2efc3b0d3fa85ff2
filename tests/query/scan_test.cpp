// Columnar scan unit tests: projections, aggregation, pushdown block
// skipping, plan rendering, footer checks on the shared shard walk, and
// the iotls-query CLI contract.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/fold.hpp"
#include "analysis/longitudinal.hpp"
#include "query/scan.hpp"
#include "store/reader.hpp"
#include "store/testdata.hpp"
#include "store/writer.hpp"

namespace {

namespace fs = std::filesystem;
using iotls::query::QueryOptions;
using iotls::query::run_query;
using iotls::query::run_query_naive;

std::string fresh_dir(const std::string& tag) {
  const std::string dir = "/tmp/iotls_query_scan_" + tag;
  fs::remove_all(dir);
  return dir;
}

iotls::testbed::PassiveDataset small_dataset() {
  iotls::testbed::PassiveDataset dataset;
  for (int i = 0; i < 6; ++i) {
    iotls::testbed::PassiveConnectionGroup group;
    auto& r = group.record;
    r.device = i < 3 ? "Amazon Echo" : "Google Home";
    r.destination = "host-" + std::to_string(i) + ".example.com";
    r.month = iotls::common::Month{2019, 1 + i};
    r.advertised_versions = {iotls::tls::ProtocolVersion::Tls1_2};
    r.advertised_suites = {0xC02F};
    r.established_version = iotls::tls::ProtocolVersion::Tls1_2;
    r.established_suite = 0xC02F;
    r.handshake_complete = true;
    group.count = 10 * (i + 1);
    dataset.add(group);
  }
  return dataset;
}

TEST(QueryScan, DefaultColumnsAndFilter) {
  const std::string dir = fresh_dir("basic");
  (void)iotls::store::write_store(small_dataset(), dir);

  QueryOptions options;
  options.filter = "vendor == Amazon";
  options.threads = 1;
  const auto result = run_query(dir, options);
  EXPECT_EQ(result.columns, iotls::query::default_columns());
  ASSERT_EQ(result.rows.size(), 3u);
  EXPECT_EQ(result.rows[0][0], "Amazon Echo");
  EXPECT_EQ(result.rows[0][2], "2019-01");
  EXPECT_EQ(result.rows[0][3], "10");
  EXPECT_EQ(result.stats.rows_matched, 3u);
  EXPECT_EQ(result.stats.connections_matched, 10u + 20 + 30);
  fs::remove_all(dir);
}

TEST(QueryScan, GroupByAggregatesCounts) {
  const std::string dir = fresh_dir("groupby");
  (void)iotls::store::write_store(small_dataset(), dir);

  QueryOptions options;
  options.group_by = {"device"};
  options.threads = 1;
  const auto result = run_query(dir, options);
  ASSERT_EQ(result.columns,
            (std::vector<std::string>{"device", "rows", "connections"}));
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0],
            (std::vector<std::string>{"Amazon Echo", "3", "60"}));
  EXPECT_EQ(result.rows[1],
            (std::vector<std::string>{"Google Home", "3", "150"}));
  fs::remove_all(dir);
}

TEST(QueryScan, ProjectionSelectsRequestedColumns) {
  const std::string dir = fresh_dir("project");
  (void)iotls::store::write_store(small_dataset(), dir);

  QueryOptions options;
  options.columns = {"month", "adv_suite", "count"};
  options.threads = 1;
  const auto result = run_query(dir, options);
  EXPECT_EQ(result.columns, options.columns);
  ASSERT_EQ(result.rows.size(), 6u);
  // List cells are '+'-joined decimal ids (0xC02F == 49199).
  EXPECT_EQ(result.rows[0],
            (std::vector<std::string>{"2019-01", "49199", "10"}));
  EXPECT_EQ(render_tsv(result).substr(0, 22), "month\tadv_suite\tcount\n");
  fs::remove_all(dir);
}

TEST(QueryScan, PushdownSkipsBlocksWithoutChangingResults) {
  const std::string dir = fresh_dir("pushdown");
  // Sort groups by (device, month) so blocks hold narrow column ranges —
  // stores written from real captures are clustered the same way. A fully
  // shuffled store degrades gracefully (every block verdict is Maybe).
  auto groups = [] {
    std::vector<iotls::testbed::PassiveConnectionGroup> out;
    iotls::common::Rng rng(0xA11CE);
    for (int i = 0; i < 400; ++i) {
      out.push_back(iotls::storetest::random_group(rng));
    }
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      if (a.record.device != b.record.device) {
        return a.record.device < b.record.device;
      }
      return a.record.month.index() < b.record.month.index();
    });
    return out;
  }();
  iotls::testbed::PassiveDataset dataset;
  for (const auto& group : groups) dataset.add(group);
  iotls::store::StoreOptions store_options;
  store_options.block_bytes = 1024;  // many blocks per shard
  store_options.threads = 1;
  (void)iotls::store::write_store(dataset, dir, store_options);

  QueryOptions options;
  options.filter = "device == dev-2 and month >= \"2019-06\"";
  options.threads = 1;
  const auto pushed = run_query(dir, options);
  const auto oracle = run_query_naive(dir, options);

  EXPECT_EQ(pushed.stats.blocks_total, oracle.stats.blocks_total);
  EXPECT_LT(pushed.stats.blocks_scanned, pushed.stats.blocks_total);
  EXPECT_EQ(pushed.rows, oracle.rows);
  EXPECT_FALSE(pushed.rows.empty());
  fs::remove_all(dir);
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

/// Replace the shard's footer frame with `payload`, framed with a valid
/// CRC, so only the footer's content can be at fault.
void reframe_footer(const std::string& path, iotls::common::BytesView payload) {
  const auto index = iotls::store::read_shard_index(path);
  auto bytes = slurp(path);
  bytes.resize(static_cast<std::size_t>(index.blocks.back().offset + 9 +
                                        index.blocks.back().length));
  iotls::common::ByteWriter frame;
  frame.u8(iotls::store::kBlockFooter);
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.u32(iotls::store::crc32(payload));
  bytes.insert(bytes.end(), frame.bytes().begin(), frame.bytes().end());
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  spit(path, bytes);
}

/// A one-shard, multi-block store of `random_dataset(0xBEE, 120)`.
std::string multi_block_store(const std::string& tag) {
  const std::string dir = fresh_dir(tag);
  iotls::store::StoreOptions store_options;
  store_options.block_bytes = 1024;
  store_options.threads = 1;
  (void)iotls::store::write_store(iotls::storetest::random_dataset(0xBEE, 120),
                                  dir, store_options);
  return dir;
}

TEST(QueryScan, TotalsOnlyFooterIsRejected) {
  const std::string dir = multi_block_store("totalsonly");
  const std::string shard = iotls::store::list_shards(dir).front();
  const auto footer = iotls::store::read_shard_index(shard).footer;

  // The footer form without block stats or dictionary: the three totals.
  iotls::common::Bytes totals;
  iotls::store::put_varint(&totals, footer.groups);
  iotls::store::put_varint(&totals, footer.blocks);
  iotls::store::put_varint(&totals, footer.dict_entries);
  EXPECT_THROW((void)iotls::store::decode_shard_footer(totals),
               iotls::store::StoreFormatError);

  reframe_footer(shard, totals);
  EXPECT_THROW((void)iotls::store::read_shard_index(shard),
               iotls::store::StoreFormatError);
  EXPECT_THROW(
      {
        iotls::store::ShardReader reader(shard);
        std::vector<iotls::testbed::PassiveConnectionGroup> block;
        while (reader.next(&block)) {
        }
      },
      iotls::store::StoreFormatError);
  EXPECT_THROW((void)run_query(dir, QueryOptions{}),
               iotls::store::StoreFormatError);
  fs::remove_all(dir);
}

TEST(QueryScan, FooterBlockCountMismatchIsCorruption) {
  const std::string dir = multi_block_store("countmismatch");
  const std::string shard = iotls::store::list_shards(dir).front();
  auto footer = iotls::store::read_shard_index(shard).footer;
  ASSERT_GE(footer.blocks, 2u);
  footer.block_stats[0].groups += 1;  // totals still agree with the frames
  reframe_footer(shard, iotls::store::encode_shard_footer(footer));

  QueryOptions options;  // no filter: pushdown cannot skip block 0
  options.threads = 1;
  EXPECT_THROW((void)run_query(dir, options),
               iotls::store::StoreCorruptionError);
  EXPECT_THROW((void)iotls::analysis::fold_store(
                   iotls::store::DatasetCursor::open(dir),
                   iotls::analysis::study_months()),
               iotls::store::StoreCorruptionError);
  EXPECT_THROW((void)iotls::store::validate_shard(shard),
               iotls::store::StoreCorruptionError);
  fs::remove_all(dir);
}

TEST(QueryScan, ExplainIsDeterministicAndThreadIndependent) {
  const std::string dir = fresh_dir("explain");
  (void)iotls::store::write_store(small_dataset(), dir);

  QueryOptions options;
  options.filter = "vendor == Amazon and month >= \"2019-02\"";
  options.threads = 1;
  const std::string plan = iotls::query::explain_query(dir, options);
  EXPECT_EQ(iotls::query::explain_query(dir, options), plan);
  options.threads = 8;
  EXPECT_EQ(iotls::query::explain_query(dir, options), plan);
  EXPECT_NE(plan.find("shards: 1, blocks: 1\n"), std::string::npos);
  fs::remove_all(dir);
}

int run_cli(const std::string& args) {
  const std::string cmd = std::string(IOTLS_QUERY_BIN) + " " + args +
                          " > /dev/null 2> /dev/null";
  const int status = std::system(cmd.c_str());
  return WEXITSTATUS(status);
}

TEST(QueryCli, ExitCodeContract) {
  const std::string dir = fresh_dir("cli");
  (void)iotls::store::write_store(small_dataset(), dir);

  EXPECT_EQ(run_cli(dir), 0);
  EXPECT_EQ(run_cli(dir + " --filter 'vendor == Amazon' --format table"), 0);
  EXPECT_EQ(run_cli(dir + " --group-by month,version"), 0);
  EXPECT_EQ(run_cli(dir + " --explain"), 0);
  EXPECT_EQ(run_cli(dir + " --oracle"), 0);
  EXPECT_EQ(run_cli(dir + " --filter 'frobnicator == 1'"), 1);  // ParseError
  EXPECT_EQ(run_cli("/tmp/iotls_no_such_store"), 1);            // StoreError
  EXPECT_EQ(run_cli(""), 2);                                    // usage
  EXPECT_EQ(run_cli(dir + " --format yaml"), 2);
  EXPECT_EQ(run_cli(dir + " --threads nope"), 2);
  fs::remove_all(dir);
}

}  // namespace
