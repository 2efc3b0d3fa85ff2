// Differential query testing: ~500 randomized queries (random predicates,
// projections and aggregations) against three shard layouts, each executed
// two ways — the pushdown scan and the decode-everything oracle —
// asserting byte-identical TSV output, plus query-plan determinism. The
// scan path and the oracle are independent decoders and evaluators, so any
// disagreement localizes a bug in one of them.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "store/testdata.hpp"
#include "common/rng.hpp"
#include "query/scan.hpp"
#include "store/writer.hpp"

namespace {

namespace fs = std::filesystem;
using iotls::common::Rng;
using iotls::query::QueryOptions;

constexpr std::size_t kQueries = 500;

// ---------------------------------------------------------------------------
// Random query generation (values drawn from the random_dataset domain so a
// useful fraction of predicates actually select rows)
// ---------------------------------------------------------------------------

std::string random_month(Rng& rng) {
  return iotls::common::kStudyStart.plus(static_cast<int>(rng.uniform(27)))
      .str();
}

std::string random_version_token(Rng& rng) {
  static const char* kTokens[] = {"ssl3.0", "tls1.0", "tls1.1", "tls1.2",
                                  "tls1.3"};
  return kTokens[rng.uniform(5)];
}

std::string ordered_op(Rng& rng) {
  static const char* kOps[] = {"==", "!=", "<", "<=", ">", ">="};
  return kOps[rng.uniform(6)];
}

std::string eq_op(Rng& rng) { return rng.chance(0.5) ? "==" : "!="; }

std::string random_predicate(Rng& rng) {
  switch (rng.uniform(12)) {
    case 0:
      return "device " + ordered_op(rng) + " dev-" +
             std::to_string(rng.uniform(8));
    case 1:
      return "vendor " + eq_op(rng) + " dev-" + std::to_string(rng.uniform(8));
    case 2:
      return "dest " + ordered_op(rng) + " host-" +
             std::to_string(rng.uniform(10)) + ".example.com";
    case 3:
      return "month " + ordered_op(rng) + " \"" + random_month(rng) + "\"";
    case 4:
      return "count " + ordered_op(rng) + " " +
             std::to_string(rng.uniform(1000000));
    case 5:
      return "version " + (rng.chance(0.25) ? eq_op(rng) + " none"
                                            : ordered_op(rng) + " " +
                                                  random_version_token(rng));
    case 6:
      return "cipher " + eq_op(rng) + " " +
             (rng.chance(0.2) ? std::string("none")
                              : std::to_string(rng.uniform(0x10000)));
    case 7: {
      static const char* kBools[] = {"complete", "appdata", "sni", "staple"};
      return std::string(kBools[rng.uniform(4)]) + " " + eq_op(rng) + " " +
             (rng.chance(0.5) ? "true" : "false");
    }
    case 8: {
      static const char* kDirs[] = {"none", "client", "server"};
      return "alert " + eq_op(rng) + " " + kDirs[rng.uniform(3)];
    }
    case 9:
      return "adv_version contains " + random_version_token(rng);
    case 10: {
      static const char* kLists[] = {"adv_suite", "extension", "group",
                                     "sigalg"};
      return std::string(kLists[rng.uniform(4)]) + " contains " +
             std::to_string(rng.uniform(0x10000));
    }
    default:
      return "month == \"" + random_month(rng) + "\"";
  }
}

std::string random_expr(Rng& rng, int depth) {
  if (depth >= 3 || rng.chance(0.45)) {
    std::string pred = random_predicate(rng);
    if (rng.chance(0.15)) pred = "not " + pred;
    return pred;
  }
  const std::string lhs = random_expr(rng, depth + 1);
  const std::string rhs = random_expr(rng, depth + 1);
  const std::string joined =
      lhs + (rng.chance(0.5) ? " and " : " or ") + rhs;
  return rng.chance(0.3) ? "not (" + joined + ")" : "(" + joined + ")";
}

std::vector<std::string> random_columns(Rng& rng) {
  static const char* kAll[] = {"device",  "vendor",   "dest",     "month",
                               "count",   "version",  "cipher",   "complete",
                               "appdata", "sni",      "staple",   "alert",
                               "adv_version", "adv_suite", "extension",
                               "group",   "sigalg"};
  std::vector<std::string> out;
  for (const char* name : kAll) {
    if (rng.chance(0.3)) out.push_back(name);
  }
  if (out.empty()) out.push_back("device");
  return out;
}

// ---------------------------------------------------------------------------
// Fixture: one dataset, three shard layouts, built once per process
// ---------------------------------------------------------------------------

class DifferentialQueryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    base_ = new std::string("/tmp/iotls_query_differential");
    fs::remove_all(*base_);
    const auto dataset = iotls::storetest::random_dataset(0xD1FF, 500);

    iotls::store::StoreOptions single;
    single.layout = iotls::store::ShardLayout::Single;
    single.block_bytes = 4096;
    single.threads = 1;
    (void)iotls::store::write_store(dataset, *base_ + "/single", single);

    iotls::store::StoreOptions per_device;
    per_device.layout = iotls::store::ShardLayout::PerDevice;
    per_device.block_bytes = 1024;
    per_device.threads = 1;
    (void)iotls::store::write_store(dataset, *base_ + "/per_device",
                                    per_device);

    iotls::store::StoreOptions fixed;
    fixed.layout = iotls::store::ShardLayout::FixedSize;
    fixed.groups_per_shard = 64;
    fixed.block_bytes = 512;
    fixed.threads = 1;
    (void)iotls::store::write_store(dataset, *base_ + "/fixed", fixed);
  }

  static void TearDownTestSuite() {
    fs::remove_all(*base_);
    delete base_;
  }

  static std::string layout_dir(std::size_t i) {
    static const char* kLayouts[] = {"single", "per_device", "fixed"};
    return *base_ + "/" + kLayouts[i % 3];
  }

  static std::string* base_;
};

std::string* DifferentialQueryTest::base_ = nullptr;

TEST_F(DifferentialQueryTest, RandomQueriesAgreeWithOracle) {
  Rng rng(0x5EED0);
  std::uint64_t nonempty = 0;
  std::uint64_t skipped_blocks = 0;
  for (std::size_t i = 0; i < kQueries; ++i) {
    QueryOptions options;
    options.filter = random_expr(rng, 0);
    if (rng.chance(0.3)) {
      options.group_by = random_columns(rng);
    } else if (rng.chance(0.5)) {
      options.columns = random_columns(rng);
    }
    options.threads = i % 2 == 0 ? 1 : 8;
    const std::string dir = layout_dir(i);

    const auto pushed = iotls::query::run_query(dir, options);
    const auto oracle = iotls::query::run_query_naive(dir, options);

    const std::string query_id =
        "query " + std::to_string(i) + " on " + dir + " threads " +
        std::to_string(options.threads) + ": " + options.filter;
    ASSERT_EQ(render_tsv(pushed), render_tsv(oracle)) << query_id;
    // Pushdown may only *skip* work, never change totals it reports for
    // matched rows.
    ASSERT_EQ(pushed.stats.rows_matched, oracle.stats.rows_matched)
        << query_id;
    ASSERT_EQ(pushed.stats.connections_matched,
              oracle.stats.connections_matched)
        << query_id;
    ASSERT_LE(pushed.stats.blocks_scanned, pushed.stats.blocks_total)
        << query_id;
    if (!pushed.rows.empty()) ++nonempty;
    skipped_blocks += pushed.stats.blocks_total - pushed.stats.blocks_scanned;
  }
  // The generator must actually exercise matching rows and block skipping,
  // or the suite silently degenerates to comparing empty outputs.
  EXPECT_GT(nonempty, kQueries / 4);
  EXPECT_GT(skipped_blocks, 0u);
}

TEST_F(DifferentialQueryTest, PlansAreDeterministic) {
  Rng rng(0x9A1B);
  for (std::size_t i = 0; i < 50; ++i) {
    QueryOptions options;
    options.filter = random_expr(rng, 0);
    options.threads = 1;
    const std::string dir = layout_dir(i);
    const std::string plan = iotls::query::explain_query(dir, options);
    options.threads = 8;  // the plan must not depend on the thread knob
    ASSERT_EQ(iotls::query::explain_query(dir, options), plan)
        << options.filter;
  }
}

TEST_F(DifferentialQueryTest, ThreadCountsProduceIdenticalBytes) {
  Rng rng(0xAB1E);
  for (std::size_t i = 0; i < 30; ++i) {
    QueryOptions options;
    options.filter = random_expr(rng, 0);
    const std::string dir = layout_dir(i);
    options.threads = 1;
    const auto serial = iotls::query::run_query(dir, options);
    options.threads = 8;
    const auto parallel = iotls::query::run_query(dir, options);
    ASSERT_EQ(render_tsv(serial), render_tsv(parallel)) << options.filter;
  }
}

}  // namespace
