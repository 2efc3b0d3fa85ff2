// iotls-bench-track core: bench-trajectory ingestion and regression gating.
//
// The bench lanes emit BENCH_*.json and (optionally) run reports; this
// module parses them into one TrajectoryEntry, compares it against the
// previous entry of an append-only JSONL trajectory file, and classifies
// every per-metric delta. The regression *direction* comes from the
// measurement unit — "ms" lanes regress when they grow, "records/s" and
// "x" lanes regress when they shrink, "bool" gates regress on any drop —
// so new metrics are gated correctly without touching the tracker.
//
// CI machines vary, so absolute time/throughput units can be demoted to
// informational with relative_only: only machine-independent units
// (speedup ratios, parity booleans and exact work counts) fail the build.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace iotls::bench_track {

struct Measurement {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One bench lane as emitted by bench/bench_json.hpp.
struct Lane {
  std::string bench;
  std::uint64_t iters = 0;
  double wall_ms = 0.0;
  std::vector<Measurement> results;
};

/// The slice of a run report the trajectory keeps (full reports stay as CI
/// artifacts; the trajectory only tracks attributable resource usage).
struct ReportSummary {
  std::string tool;
  std::uint64_t peak_rss_bytes = 0;
};

/// One line of bench/trajectory.jsonl.
struct TrajectoryEntry {
  std::string label;
  std::vector<Lane> lanes;
  std::vector<ReportSummary> reports;
};

/// How a metric's unit maps onto the regression gate.
enum class Direction {
  LowerBetter,   // ms, work counts: growth is a regression
  HigherBetter,  // throughput and speedup ratios: shrinkage is a regression
  BoolGate,      // parity flags: any drop below 1 is a regression
  Info,          // other counts, sizes, fractions: tracked, never gated
};

/// The unit of exact work counts: calls of a profiled zone (modexps,
/// handshakes) over a fixed input. They are deterministic, so unlike other
/// counts they gate, lower being better.
inline constexpr const char* kWorkUnit = "calls";

Direction direction_for_unit(const std::string& unit);

/// Machine-independent units (speedups, parity bools, work counts) — the
/// only ones gated under relative_only.
bool unit_is_relative(const std::string& unit);

/// Parse one BENCH_*.json document (throws common::JsonError on malformed
/// input or a missing required field: bench, iters, wall_ms, results).
Lane parse_bench_json(const std::string& text);

/// Parse one iotls-run-report/1 document into its trajectory summary.
ReportSummary parse_run_report(const std::string& text);

/// One JSONL line <-> TrajectoryEntry.
TrajectoryEntry parse_trajectory_line(const std::string& line);
std::string render_trajectory_line(const TrajectoryEntry& entry);

/// One per-metric comparison against the previous trajectory entry.
struct Delta {
  std::string bench;
  std::string name;
  std::string unit;
  double prev = 0.0;
  double cur = 0.0;
  /// Signed percent change in the improvement direction: positive is
  /// better, negative is worse. 0 for BoolGate/Info and fresh metrics.
  double change_pct = 0.0;
  Direction direction = Direction::Info;
  bool gated = false;       // participates in the regression gate
  bool regression = false;  // gated and past the threshold
  bool fresh = false;       // no previous value to compare against
};

struct CompareOptions {
  double max_regress_pct = 10.0;
  bool relative_only = false;
};

/// Compare every metric of `cur` against `prev`. Metrics absent from
/// `prev` come back fresh (never a regression — a new lane must not fail
/// the build that introduces it).
std::vector<Delta> compare(const TrajectoryEntry& prev,
                           const TrajectoryEntry& cur,
                           const CompareOptions& options);

/// Render the comparison as an aligned text table.
std::string render_deltas(const std::vector<Delta>& deltas);

}  // namespace iotls::bench_track
