// Shared BENCH_*.json emission and run-report plumbing for every bench
// lane. Split from bench_util.hpp so the lint lane (which links only
// iotls_lint_core + iotls_common) can use it without pulling in the study.
//
// Every lane emits the same envelope — bench, iters, wall_ms, results —
// so iotls-bench-track can ingest any lane without per-lane knowledge.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/env.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"

namespace iotls::bench {

using common::strict_env_long;

/// One benchmark result row. The unit doubles as the regression-direction
/// hint for iotls-bench-track ("ms*" lower is better, "x*"/rates higher).
struct Measurement {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Mean wall time per call, in ms, over `iters` calls of `fn(i)`.
/// Median-free, deliberately simple: the gated quantities are ratios well
/// above run-to-run noise, and ablation rows are informational.
template <typename Fn>
double time_ms(std::size_t iters, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) fn(i);
  const std::chrono::duration<double, std::milli> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count() / static_cast<double>(iters);
}

inline std::string bench_json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Parse IOTLS_PROFILE (strict: unset/0 = off, any other integer = on)
/// and flip the global profiler switch. Returns the resulting state.
inline bool profile_from_env() {
  const bool enabled = strict_env_long("IOTLS_PROFILE", 0) != 0;
  obs::set_profile_enabled(enabled);
  return enabled;
}

/// Print the merged profile call tree when the profiler actually ran.
inline void print_profile() {
  if (!obs::profile_enabled() || obs::profile_thread_count() == 0) return;
  std::fputs("\n==== profile (IOTLS_PROFILE) ====\n", stdout);
  std::fputs(obs::render_profile(obs::profile_snapshot()).c_str(), stdout);
}

/// Write the canonical BENCH_*.json document. `iters` and `wall_ms` are
/// required fields of the envelope (the trajectory tracker rejects lanes
/// without them); `extra` adds lane-specific string fields.
inline bool write_bench_json(
    const std::string& path, const std::string& bench, std::size_t iters,
    double wall_ms, const std::vector<Measurement>& results,
    const std::vector<std::pair<std::string, std::string>>& extra = {}) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(out, "{\n  \"bench\": \"%s\",\n",
               bench_json_escape(bench).c_str());
  for (const auto& [key, value] : extra) {
    std::fprintf(out, "  \"%s\": \"%s\",\n", bench_json_escape(key).c_str(),
                 bench_json_escape(value).c_str());
  }
  std::fprintf(out, "  \"iters\": %zu,\n  \"wall_ms\": %.3f,\n",
               iters, wall_ms);
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::fprintf(
        out, "    {\"name\": \"%s\", \"value\": %.6f, \"unit\": \"%s\"}%s\n",
        bench_json_escape(results[i].name).c_str(), results[i].value,
        bench_json_escape(results[i].unit).c_str(),
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  return true;
}

/// Emit a run report when IOTLS_RUN_REPORT names an output path. Call at
/// the end of the run so the profile tree and metrics are complete.
inline void maybe_write_run_report(
    const std::string& tool,
    std::vector<std::pair<std::string, std::string>> knobs) {
  const char* path = common::env_string("IOTLS_RUN_REPORT", "");
  if (*path == '\0') return;
  obs::RunReport report;
  report.tool = tool;
  report.knobs = std::move(knobs);
  if (obs::write_run_report(report, path)) {
    std::printf("wrote run report %s\n", path);
  }
}

}  // namespace iotls::bench
