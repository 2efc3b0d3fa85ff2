// RunReport: one self-describing JSON artifact per CLI/bench run.
//
// Every operator-facing binary (iotls-store, iotls-query, the bench lanes)
// can emit a run report — build info, the knobs the run was launched with,
// the merged profile tree, the full metrics snapshot, and peak RSS — so a
// BENCH_*.json number or a Prometheus scrape is always attributable to a
// concrete build and configuration. The IOTLS_RUN_REPORT knob names the
// output path; iotls-bench-track ingests these alongside the bench JSON.
//
// Like the profiler and metrics, run reports are an operator surface:
// wall-clock- and machine-dependent, never an input to a table or figure.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace iotls::obs {

/// Compile-time build identity, filled from CMake-provided definitions.
struct BuildInfo {
  std::string version;     // project version (CMake)
  std::string compiler;    // __VERSION__
  std::string build_type;  // CMAKE_BUILD_TYPE
  std::string sanitizers;  // "tsan", "asan,ubsan", or "none"
};

const BuildInfo& build_info();

/// One composed label value for the iotls_build_info metrics gauge
/// ("version=...;compiler=...;build=...;san=..." — the registry supports a
/// single label key per family).
std::string build_info_label();

/// Peak resident set size in bytes (0 where the platform cannot say).
std::uint64_t peak_rss_bytes();

struct RunReport {
  /// Which binary produced the report ("bench_crypto", "iotls-query", ...).
  std::string tool;
  /// Knobs as launched: (name, value) in insertion order, each name once.
  /// Callers record what they parsed (IOTLS_THREADS, IOTLS_PROFILE, CLI
  /// arguments by position as arg1, arg2, ...).
  std::vector<std::pair<std::string, std::string>> knobs;
};

/// The full report document (schema documented in DESIGN.md §13):
/// { "schema": "iotls-run-report/1", "tool", "build": {...}, "knobs",
///   "profile": {"enabled", "tree"}, "metrics": {...}, "peak_rss_bytes" }
/// Throws std::invalid_argument when two knobs share a name, since a JSON
/// reader would keep only one of them.
std::string render_run_report_json(const RunReport& report);

/// Render and write to `path`. Returns false (with a message on stderr)
/// when the file cannot be written.
bool write_run_report(const RunReport& report, const std::string& path);

/// The knobs of a CLI run: `command` (omitted when empty), each argument
/// by position as arg1, arg2, ..., then IOTLS_PROFILE and exit_code.
std::vector<std::pair<std::string, std::string>> cli_knobs(
    const std::string& command, const std::vector<std::string>& args,
    int exit_code);

/// The closing telemetry of every CLI tool and bench lane: print the merged
/// profile tree to `out` when the profiler ran, then, when IOTLS_RUN_REPORT
/// names a path, write the run report of `tool` with `knobs` there and say
/// so on `out`. Tools whose stdout carries data pass stderr.
void emit_run_telemetry(
    const std::string& tool,
    std::vector<std::pair<std::string, std::string>> knobs, std::FILE* out);

}  // namespace iotls::obs
