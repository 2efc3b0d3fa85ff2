// Analyzer-cost lane: times iotls-lint over the whole tree and writes
// BENCH_lint.json, so static-analysis wall time stays visible as the
// codebase grows (it runs on every tier-1 ctest invocation).
//
// Since the v2 parser/CFG/dataflow rewrite the lane also reports a
// per-rule breakdown (plus the shared parse pass) and a files/sec
// throughput figure, so iotls-bench-track can gate on "which rule got
// slow" instead of one opaque total. The per-rule clock is injected into
// run_rules_full from here — tools/lint itself never reads std::chrono,
// because the timing-hygiene rule applies to the linter too.
//
// Knobs:
//   IOTLS_BENCH_ITERS  full-tree lint repetitions (default 5)
//   IOTLS_LINT_ROOT    tree to lint (default: the configure-time repo root)
//
// Usage: bench_lint [output.json]   (default ./BENCH_lint.json)
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/env.hpp"
#include "lint.hpp"

namespace {

double steady_now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_lint.json";
  const auto iters = static_cast<std::size_t>(
      iotls::common::strict_env_long("IOTLS_BENCH_ITERS", 5));
  const bool profiling = iotls::bench::profile_from_env();
  const iotls::obs::WallTimer total;

  iotls::lint::LintOptions options;
  options.root = iotls::common::env_string("IOTLS_LINT_ROOT", IOTLS_REPO_ROOT);

  // Split the walk from the lex+rules pass so the JSON separates filesystem
  // cost from analysis cost.
  const auto walk0 = std::chrono::steady_clock::now();
  const auto files = iotls::lint::collect_tree(options);
  const std::chrono::duration<double, std::milli> walk_ms =
      std::chrono::steady_clock::now() - walk0;

  // End-to-end lane (load + lex + parse + all rules), unchanged from the
  // v1 bench so the trajectory stays comparable across the rewrite.
  std::size_t findings = 0;
  const auto lint0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    findings = iotls::lint::lint_files(options, files).size();
  }
  const std::chrono::duration<double, std::milli> lint_total =
      std::chrono::steady_clock::now() - lint0;
  const double lint_ms = lint_total.count() / static_cast<double>(iters);

  // Per-rule lane: preload sources once, then time each rule (and the
  // shared parse/CFG pass) inside run_rules_full via the injected clock.
  std::size_t tokens = 0;
  std::vector<iotls::lint::SourceFile> sources;
  sources.reserve(files.size());
  for (const auto& file : files) {
    sources.push_back(iotls::lint::load_file(options.root, file));
    tokens += sources.back().lex.tokens.size();
  }
  std::map<std::string, double> rule_ms;
  for (std::size_t i = 0; i < iters; ++i) {
    std::vector<iotls::lint::RuleTiming> timings;
    iotls::lint::run_rules_full(sources, options.rules, steady_now_ms,
                                &timings);
    for (const auto& t : timings) rule_ms[t.rule] += t.ms;
  }
  for (auto& [rule, ms] : rule_ms) ms /= static_cast<double>(iters);

  const double files_per_sec =
      lint_ms > 0.0 ? static_cast<double>(files.size()) / (lint_ms / 1e3)
                    : 0.0;

  std::printf("==== bench_lint (iters=%zu) ====\n", iters);
  std::printf("%-32s %12zu\n", "files", files.size());
  std::printf("%-32s %12zu\n", "tokens", tokens);
  std::printf("%-32s %12.3f ms\n", "walk", walk_ms.count());
  std::printf("%-32s %12.3f ms\n", "lint_full_tree", lint_ms);
  std::printf("%-32s %12.1f /s\n", "throughput_files", files_per_sec);
  for (const auto& [rule, ms] : rule_ms) {
    std::printf("%-32s %12.3f ms\n", ("rule_" + rule).c_str(), ms);
  }
  std::printf("%-32s %12zu\n", "findings", findings);

  std::vector<iotls::bench::Measurement> results = {
      {"files", static_cast<double>(files.size()), "count"},
      {"tokens", static_cast<double>(tokens), "count"},
      {"walk", walk_ms.count(), "ms"},
      {"lint_full_tree", lint_ms, "ms"},
      {"throughput_files", files_per_sec, "/s"},
      {"findings", static_cast<double>(findings), "count"},
  };
  for (const auto& [rule, ms] : rule_ms) {
    results.push_back({"rule_" + rule, ms, "ms"});
  }
  if (!iotls::bench::write_bench_json(out_path, "lint", iters,
                                      total.elapsed_ms(), results)) {
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  iotls::obs::emit_run_telemetry(
      "bench_lint",
      {{"IOTLS_BENCH_ITERS", std::to_string(iters)},
       {"IOTLS_PROFILE", profiling ? "1" : "0"},
       {"output", out_path}},
      stdout);
  return 0;
}
