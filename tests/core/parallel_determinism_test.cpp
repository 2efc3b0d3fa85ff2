// The parallel engine's determinism contract (DESIGN.md "Concurrency
// model"): every rendered table and figure is byte-identical no matter how
// many worker threads the experiments fan out over, and repeat runs at the
// same thread count agree too.
//
// Runs on a deliberately small CA universe and a narrow passive window so
// the full study executes five times within the test budget; the sets are
// still large enough to exercise every experiment (the deprecated count
// stays ≥58 so "Certinomis - Root CA" — force-included by several device
// root stores — exists).
#include <gtest/gtest.h>

#include <string>

#include "core/study.hpp"

namespace iotls::core {
namespace {

const pki::CaUniverse& small_universe() {
  static const pki::CaUniverse universe = [] {
    pki::CaUniverse::Options opts;
    opts.common_count = 30;
    opts.deprecated_count = 58;
    return pki::CaUniverse(opts);
  }();
  return universe;
}

IotlsStudy make_study(std::uint64_t seed, std::size_t threads) {
  IotlsStudy::Options opts;
  opts.seed = seed;
  opts.threads = threads;
  opts.universe = &small_universe();
  opts.passive_scale = 0.01;
  opts.passive_first = common::Month{2019, 10};
  opts.passive_last = common::Month{2020, 3};
  return IotlsStudy(opts);
}

/// Every table and figure the paper renders, concatenated. The §5.1
/// summary is checked on its own in TimingReportCoversParallelExperiments.
std::string render_all(IotlsStudy& study) {
  std::string out;
  out += study.render_table4();
  out += study.render_table5();
  out += study.render_table6();
  out += study.render_table7();
  out += study.render_table8();
  out += study.render_table9();
  out += study.render_fig1();
  out += study.render_fig2();
  out += study.render_fig3();
  out += study.render_fig4();
  out += study.render_fig5();
  return out;
}

std::string render_at(std::uint64_t seed, std::size_t threads) {
  auto study = make_study(seed, threads);
  return render_all(study);
}

TEST(ParallelDeterminism, SerialAndEightThreadsAgreeAcrossSeeds) {
  for (const std::uint64_t seed : {42ull, 1337ull}) {
    const std::string serial = render_at(seed, 1);
    const std::string parallel = render_at(seed, 8);
    // Byte-identical, not just "equivalent": any scheduling leak (merge
    // order, shared RNG draw, mutable shared state) shows up here.
    ASSERT_EQ(serial, parallel) << "thread-count divergence at seed "
                                << seed;
    EXPECT_FALSE(serial.empty());
    EXPECT_NE(serial.find("Table 9"), std::string::npos);
  }
}

TEST(ParallelDeterminism, RepeatRunsAtSameThreadCountAgree) {
  const std::string first = render_at(42, 8);
  const std::string second = render_at(42, 8);
  ASSERT_EQ(first, second);
}

TEST(ParallelDeterminism, DifferentSeedsProduceDifferentDatasets) {
  // Sanity check that the comparison above is not trivially true because
  // the seed is ignored: the passive dataset must vary with it.
  auto a = make_study(42, 8);
  auto b = make_study(1337, 8);
  EXPECT_NE(a.passive_dataset().total_connections(),
            b.passive_dataset().total_connections());
}

TEST(ParallelDeterminism, TimingReportCoversParallelExperiments) {
  auto study = make_study(42, 8);
  (void)study.render_table7();  // interception
  (void)study.render_table9();  // root-store exploration
  const auto& timings = study.timings();
  ASSERT_GE(timings.size(), 2u);
  bool saw_interception = false;
  for (const auto& t : timings) {
    if (t.name == "interception") {
      saw_interception = true;
      EXPECT_GT(t.tasks, 0u);
      EXPECT_EQ(t.threads, 8u);
      EXPECT_GE(t.wall_ms, 0.0);
    }
  }
  EXPECT_TRUE(saw_interception);
  EXPECT_NE(study.render_timings().find("interception"), std::string::npos);
  // The wall-clock report stays out of the §5.1 summary, which is then
  // byte-identical across two studies of one seed.
  const std::string summary = study.render_summary();
  EXPECT_EQ(summary.find("Experiment timings"), std::string::npos);
  auto again = make_study(42, 8);
  EXPECT_EQ(again.render_summary(), summary);
}

}  // namespace
}  // namespace iotls::core
