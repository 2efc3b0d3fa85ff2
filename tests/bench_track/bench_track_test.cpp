// iotls-bench-track: unit-direction mapping, trajectory round-trip,
// delta gating (including an injected synthetic regression), and the CLI
// exit-code contract end-to-end over a temp results directory.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/json_probe.hpp"
#include "track.hpp"

namespace {

namespace fs = std::filesystem;
using iotls::bench_track::CompareOptions;
using iotls::bench_track::Delta;
using iotls::bench_track::Direction;
using iotls::bench_track::Lane;
using iotls::bench_track::Measurement;
using iotls::bench_track::TrajectoryEntry;

TEST(BenchTrack, UnitMapsToRegressionDirection) {
  using iotls::bench_track::direction_for_unit;
  EXPECT_EQ(direction_for_unit("ms"), Direction::LowerBetter);
  EXPECT_EQ(direction_for_unit("ms/op"), Direction::LowerBetter);
  EXPECT_EQ(direction_for_unit("x"), Direction::HigherBetter);
  EXPECT_EQ(direction_for_unit("x_vs_tsv"), Direction::HigherBetter);
  EXPECT_EQ(direction_for_unit("records/s"), Direction::HigherBetter);
  EXPECT_EQ(direction_for_unit("MiB/s"), Direction::HigherBetter);
  EXPECT_EQ(direction_for_unit("bool"), Direction::BoolGate);
  EXPECT_EQ(direction_for_unit("calls"), Direction::LowerBetter);
  EXPECT_EQ(direction_for_unit("count"), Direction::Info);
  EXPECT_EQ(direction_for_unit("bytes"), Direction::Info);
  EXPECT_EQ(direction_for_unit("fraction"), Direction::Info);

  using iotls::bench_track::unit_is_relative;
  EXPECT_TRUE(unit_is_relative("x"));
  EXPECT_TRUE(unit_is_relative("x_vs_tsv"));
  EXPECT_TRUE(unit_is_relative("bool"));
  EXPECT_TRUE(unit_is_relative("calls"));
  EXPECT_FALSE(unit_is_relative("count"));
  EXPECT_FALSE(unit_is_relative("ms"));
  EXPECT_FALSE(unit_is_relative("records/s"));
}

TEST(BenchTrack, ParsesBenchJsonAndRequiresTheEnvelope) {
  const Lane lane = iotls::bench_track::parse_bench_json(
      "{\"bench\": \"crypto\", \"layout\": \"single\", \"iters\": 5, "
      "\"wall_ms\": 12.5, \"results\": ["
      "{\"name\": \"modexp\", \"value\": 3.25, \"unit\": \"ms\"}]}");
  EXPECT_EQ(lane.bench, "crypto");
  EXPECT_EQ(lane.iters, 5u);
  EXPECT_DOUBLE_EQ(lane.wall_ms, 12.5);
  ASSERT_EQ(lane.results.size(), 1u);
  EXPECT_EQ(lane.results[0].name, "modexp");
  EXPECT_EQ(lane.results[0].unit, "ms");

  // wall_ms and iters are required: legacy emitters must fail loudly.
  EXPECT_THROW(iotls::bench_track::parse_bench_json(
                   "{\"bench\": \"crypto\", \"results\": []}"),
               iotls::common::JsonError);
}

TEST(BenchTrack, TrajectoryLineRoundTrips) {
  TrajectoryEntry entry;
  entry.label = "abc123";
  entry.lanes.push_back(
      Lane{"store", 1, 42.0, {{"write_bytes", 512.25, "MiB/s"}}});
  entry.reports.push_back({"bench_store", 1024});

  const std::string line =
      iotls::bench_track::render_trajectory_line(entry);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const TrajectoryEntry back =
      iotls::bench_track::parse_trajectory_line(line);
  EXPECT_EQ(back.label, "abc123");
  ASSERT_EQ(back.lanes.size(), 1u);
  EXPECT_EQ(back.lanes[0].bench, "store");
  EXPECT_DOUBLE_EQ(back.lanes[0].wall_ms, 42.0);
  ASSERT_EQ(back.lanes[0].results.size(), 1u);
  EXPECT_DOUBLE_EQ(back.lanes[0].results[0].value, 512.25);
  ASSERT_EQ(back.reports.size(), 1u);
  EXPECT_EQ(back.reports[0].tool, "bench_store");
  EXPECT_EQ(back.reports[0].peak_rss_bytes, 1024u);

  // Control bytes in any string keep the line one line and round-trip.
  const std::string probe = iotls::common::kJsonProbe;
  entry.label = probe;
  entry.lanes[0].bench = probe;
  entry.lanes[0].results[0].name = probe;
  entry.lanes[0].results[0].unit = probe;
  entry.reports[0].tool = probe;
  const std::string hostile =
      iotls::bench_track::render_trajectory_line(entry);
  EXPECT_EQ(hostile.find('\n'), std::string::npos);
  const TrajectoryEntry hostile_back =
      iotls::bench_track::parse_trajectory_line(hostile);
  EXPECT_EQ(hostile_back.label, probe);
  EXPECT_EQ(hostile_back.lanes.at(0).bench, probe);
  EXPECT_EQ(hostile_back.lanes[0].results.at(0).name, probe);
  EXPECT_EQ(hostile_back.lanes[0].results[0].unit, probe);
  EXPECT_EQ(hostile_back.reports.at(0).tool, probe);
}

TrajectoryEntry entry_with(const std::string& label, double ms,
                           double speedup, double parity) {
  TrajectoryEntry entry;
  entry.label = label;
  entry.lanes.push_back(Lane{"crypto",
                             1,
                             ms,
                             {{"op_ms", ms, "ms"},
                              {"crt_speedup", speedup, "x"},
                              {"parity", parity, "bool"},
                              {"size", 100.0, "bytes"}}});
  return entry;
}

const Delta& delta_named(const std::vector<Delta>& deltas,
                         const std::string& name) {
  for (const auto& d : deltas) {
    if (d.name == name) return d;
  }
  throw std::runtime_error("no delta named " + name);
}

TEST(BenchTrack, SyntheticRegressionPastThresholdIsFlagged) {
  const CompareOptions options{/*max_regress_pct=*/10.0,
                               /*relative_only=*/false};
  // 50% slower, 30% less speedup, parity flips: all three regress; the
  // informational size metric never gates.
  const auto deltas =
      iotls::bench_track::compare(entry_with("prev", 10.0, 2.0, 1.0),
                                  entry_with("cur", 15.0, 1.4, 0.0),
                                  options);
  EXPECT_TRUE(delta_named(deltas, "op_ms").regression);
  EXPECT_NEAR(delta_named(deltas, "op_ms").change_pct, -50.0, 1e-9);
  EXPECT_TRUE(delta_named(deltas, "crt_speedup").regression);
  EXPECT_NEAR(delta_named(deltas, "crt_speedup").change_pct, -30.0, 1e-9);
  EXPECT_TRUE(delta_named(deltas, "parity").regression);
  EXPECT_FALSE(delta_named(deltas, "size").regression);
  EXPECT_FALSE(delta_named(deltas, "size").gated);
}

TEST(BenchTrack, ImprovementsAndSmallDriftPass) {
  const CompareOptions options{10.0, false};
  // 5% slower is within the gate; speedup improved; parity held.
  const auto deltas =
      iotls::bench_track::compare(entry_with("prev", 10.0, 2.0, 1.0),
                                  entry_with("cur", 10.5, 2.5, 1.0),
                                  options);
  for (const auto& d : deltas) {
    EXPECT_FALSE(d.regression) << d.bench << "/" << d.name;
  }
  EXPECT_NEAR(delta_named(deltas, "op_ms").change_pct, -5.0, 1e-9);
  EXPECT_NEAR(delta_named(deltas, "crt_speedup").change_pct, 25.0, 1e-9);
}

TEST(BenchTrack, RelativeOnlyDemotesMachineDependentUnits) {
  const CompareOptions options{10.0, /*relative_only=*/true};
  // Twice as slow, but ms is machine-dependent: only the speedup and the
  // parity bool stay gated.
  const auto deltas =
      iotls::bench_track::compare(entry_with("prev", 10.0, 2.0, 1.0),
                                  entry_with("cur", 20.0, 1.0, 1.0),
                                  options);
  EXPECT_FALSE(delta_named(deltas, "op_ms").gated);
  EXPECT_FALSE(delta_named(deltas, "op_ms").regression);
  EXPECT_TRUE(delta_named(deltas, "crt_speedup").regression);
  EXPECT_FALSE(delta_named(deltas, "parity").regression);
}

TEST(BenchTrack, WorkCountsGateUnderRelativeOnly) {
  const CompareOptions options{1.0, /*relative_only=*/true};
  const auto with_calls = [](const std::string& label, double calls) {
    TrajectoryEntry entry;
    entry.label = label;
    entry.lanes.push_back(
        Lane{"ablation", 1, 1.0, {{"connects", calls, "calls"}}});
    return entry;
  };
  // Fewer calls is an improvement; 2% more regresses past a 1% gate, and
  // the count stays gated where absolute times are demoted.
  const auto fewer = iotls::bench_track::compare(
      with_calls("prev", 4759.0), with_calls("cur", 236.0), options);
  EXPECT_TRUE(delta_named(fewer, "connects").gated);
  EXPECT_FALSE(delta_named(fewer, "connects").regression);
  EXPECT_GT(delta_named(fewer, "connects").change_pct, 90.0);
  const auto more = iotls::bench_track::compare(
      with_calls("prev", 100.0), with_calls("cur", 102.0), options);
  EXPECT_TRUE(delta_named(more, "connects").regression);
}

TEST(BenchTrack, FreshMetricsNeverRegress) {
  const CompareOptions options{10.0, false};
  TrajectoryEntry prev = entry_with("prev", 10.0, 2.0, 1.0);
  prev.lanes[0].results.clear();  // nothing to compare against
  const auto deltas = iotls::bench_track::compare(
      prev, entry_with("cur", 99.0, 0.1, 0.0), options);
  for (const auto& d : deltas) {
    EXPECT_TRUE(d.fresh) << d.name;
    EXPECT_FALSE(d.regression) << d.name;
  }
}

// ---------------------------------------------------------------------------
// CLI contract
// ---------------------------------------------------------------------------

class BenchTrackCli : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path("bench_track_cli.tmp");
    fs::remove_all(dir_);
    fs::create_directories(dir_ / "results");
    trajectory_ = (dir_ / "trajectory.jsonl").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  void write_lane(double value) const {
    std::ofstream out(dir_ / "results" / "BENCH_crypto.json");
    out << "{\"bench\": \"crypto\", \"iters\": 1, \"wall_ms\": 1.0, "
           "\"results\": [{\"name\": \"crt_speedup\", \"value\": "
        << value << ", \"unit\": \"x\"}]}\n";
  }

  int run(const std::string& extra) const {
    const std::string cmd = std::string(IOTLS_BENCH_TRACK_BIN) + " " +
                            (dir_ / "results").string() + " --trajectory " +
                            trajectory_ + " " + extra +
                            " > /dev/null 2> /dev/null";
    return WEXITSTATUS(std::system(cmd.c_str()));
  }

  fs::path dir_;
  std::string trajectory_;
};

TEST_F(BenchTrackCli, AppendsEntriesAndFailsOnInjectedRegression) {
  write_lane(3.0);
  // First entry: nothing to compare. Its label carries a raw newline (quoted
  // for sh), which must not split the line the next run reads back.
  EXPECT_EQ(run("--label 'first\nentry'"), 0);

  write_lane(2.9);
  EXPECT_EQ(run("--label second --max-regress 10"), 0);  // ~3% drift

  std::ifstream in(trajectory_);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    if (!line.empty()) ++lines;
  }
  EXPECT_EQ(lines, 2u);

  // Injected regression: the speedup halves. Past 10%, exit 1 — and with
  // --dry-run the failing entry must NOT poison the trajectory.
  write_lane(1.45);
  EXPECT_EQ(run("--label broken --max-regress 10 --dry-run"), 1);
  EXPECT_EQ(run("--label tolerant --max-regress 60"), 0);
}

TEST_F(BenchTrackCli, UsageErrorsExitTwo) {
  EXPECT_EQ(run("--bogus"), 2);
  const std::string cmd = std::string(IOTLS_BENCH_TRACK_BIN) +
                          " > /dev/null 2> /dev/null";
  EXPECT_EQ(WEXITSTATUS(std::system(cmd.c_str())), 2);
}

TEST_F(BenchTrackCli, EmptyResultsDirectoryFails) {
  EXPECT_EQ(run("--label none"), 1);
}

}  // namespace
