// Shared BENCH_*.json emission for every bench lane; each lane then closes
// with obs::emit_run_telemetry (profile tree + run report). Split from
// bench_util.hpp so the lint lane (which links only iotls_lint_core +
// iotls_common) can use it without pulling in the study.
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
#include "common/json.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"

namespace iotls::bench {

using common::json_quote;
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

/// Parse IOTLS_PROFILE (strict: unset/0 = off, any other integer = on)
/// and flip the global profiler switch. Returns the resulting state.
inline bool profile_from_env() {
  const bool enabled = strict_env_long("IOTLS_PROFILE", 0) != 0;
  obs::set_profile_enabled(enabled);
  return enabled;
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
  std::fprintf(out, "{\n  \"bench\": %s,\n", json_quote(bench).c_str());
  for (const auto& [key, value] : extra) {
    std::fprintf(out, "  %s: %s,\n", json_quote(key).c_str(),
                 json_quote(value).c_str());
  }
  std::fprintf(out, "  \"iters\": %zu,\n  \"wall_ms\": %.3f,\n",
               iters, wall_ms);
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::fprintf(
        out, "    {\"name\": %s, \"value\": %.6f, \"unit\": %s}%s\n",
        json_quote(results[i].name).c_str(), results[i].value,
        json_quote(results[i].unit).c_str(),
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  return true;
}

}  // namespace iotls::bench
