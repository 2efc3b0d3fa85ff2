// Acceptance gate for the out-of-core pipeline: the full 40-device dataset
// (count_scale = 1.0) is written to shards, then folded back with
// fold_store; Figs 1-3, Table 8, the §5.1 summary and party breakdown and
// the passive fingerprint study rendered from that fold must be
// byte-identical to the same renderings from fold_dataset over the
// in-memory dataset — at thread counts 1 and 8, under both the
// single-shard and per-device layouts.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "analysis/fold.hpp"
#include "analysis/fpstudy.hpp"
#include "analysis/longitudinal.hpp"
#include "analysis/party.hpp"
#include "analysis/revocation.hpp"
#include "analysis/summary.hpp"
#include "core/study.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "testbed/longitudinal.hpp"

namespace {

namespace fs = std::filesystem;
namespace analysis = iotls::analysis;
using iotls::store::DatasetCursor;
using iotls::store::ShardLayout;

struct Artifacts {
  std::string fig1, fig2, fig3, table8, summary, party, sharing;
};

/// Every passive rendering, from one fold (built with fingerprints).
Artifacts render_all(const analysis::DatasetFold& fold) {
  Artifacts a;
  a.fig1 = analysis::render_fig1(analysis::all_version_series(fold),
                                 fold.months);
  a.fig2 = analysis::render_fig2(analysis::all_cipher_series(fold));
  a.fig3 = analysis::render_fig3(analysis::all_cipher_series(fold));
  a.table8 = analysis::render_table8(analysis::analyze_revocation(fold), 40);
  a.summary = analysis::render_summary(analysis::summarize(fold));
  a.party = analysis::render_party_breakdown(
      analysis::party_version_breakdown(fold));
  a.sharing = analysis::render_sharing_graph(
      analysis::passive_fingerprint_study(fold));
  return a;
}

analysis::FoldOptions fold_options(std::size_t threads) {
  analysis::FoldOptions options;
  options.threads = threads;
  options.fingerprints = true;
  return options;
}

class StreamParityTest : public ::testing::Test {
 protected:
  static iotls::core::IotlsStudy& study() {
    static iotls::core::IotlsStudy instance;  // seed 42, scale 1.0
    return instance;
  }

  static const Artifacts& in_memory() {
    static const Artifacts artifacts = render_all(analysis::fold_dataset(
        study().passive_dataset(), analysis::study_months(),
        fold_options(1)));
    return artifacts;
  }

  static std::string exported_dir(ShardLayout layout) {
    const std::string dir =
        layout == ShardLayout::Single ? "/tmp/iotls_parity_store_single"
                                      : "/tmp/iotls_parity_store_perdev";
    if (!fs::exists(dir)) {
      iotls::store::StoreOptions options;
      options.layout = layout;
      (void)study().export_passive_store(dir, options);
    }
    return dir;
  }

  static void check_layout(ShardLayout layout, std::size_t threads) {
    const Artifacts streamed = render_all(analysis::fold_store(
        DatasetCursor::open(exported_dir(layout)), analysis::study_months(),
        fold_options(threads)));
    const Artifacts& want = in_memory();
    EXPECT_EQ(streamed.fig1, want.fig1);
    EXPECT_EQ(streamed.fig2, want.fig2);
    EXPECT_EQ(streamed.fig3, want.fig3);
    EXPECT_EQ(streamed.table8, want.table8);
    EXPECT_EQ(streamed.summary, want.summary);
    EXPECT_EQ(streamed.party, want.party);
    EXPECT_EQ(streamed.sharing, want.sharing);
  }

  static void TearDownTestSuite() {
    fs::remove_all("/tmp/iotls_parity_store_single");
    fs::remove_all("/tmp/iotls_parity_store_perdev");
  }
};

TEST_F(StreamParityTest, StudyRendersFromTheSameFold) {
  // The study's own fold skips fingerprints; every figure it renders must
  // still match the fingerprinting fold the streamed side is compared to.
  const Artifacts& want = in_memory();
  EXPECT_EQ(study().render_fig1(), want.fig1);
  EXPECT_EQ(study().render_fig2(), want.fig2);
  EXPECT_EQ(study().render_fig3(), want.fig3);
  EXPECT_EQ(study().render_table8(), want.table8);
  EXPECT_EQ(analysis::render_summary(study().summary()), want.summary);
}

TEST_F(StreamParityTest, StoreValidatesAndRoundTripsAtFullScale) {
  const std::string dir = exported_dir(ShardLayout::Single);
  const auto report = iotls::store::validate_store(dir);
  const auto& dataset = study().passive_dataset();
  EXPECT_EQ(report.groups, dataset.groups().size());

  const auto loaded = iotls::store::read_store(dir);
  EXPECT_EQ(iotls::testbed::dataset_to_tsv(loaded),
            iotls::testbed::dataset_to_tsv(dataset));
}

TEST_F(StreamParityTest, SingleLayoutSerial) {
  check_layout(ShardLayout::Single, 1);
}

TEST_F(StreamParityTest, SingleLayoutParallel) {
  check_layout(ShardLayout::Single, 8);
}

TEST_F(StreamParityTest, PerDeviceLayoutSerial) {
  check_layout(ShardLayout::PerDevice, 1);
}

TEST_F(StreamParityTest, PerDeviceLayoutParallel) {
  check_layout(ShardLayout::PerDevice, 8);
}

}  // namespace
