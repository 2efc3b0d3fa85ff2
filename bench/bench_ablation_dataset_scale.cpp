// Ablation (DESIGN.md §5.5): passive-dataset generator and analyzer cost vs
// study window size — month-bucketed aggregation keeps the ≈17M-connection
// study tractable.
//
// Usage: bench_ablation_dataset_scale [output.json]
//        (default ./BENCH_ablation_dataset_scale.json)
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/fold.hpp"
#include "analysis/longitudinal.hpp"
#include "analysis/summary.hpp"
#include "bench_json.hpp"
#include "pki/universe.hpp"
#include "testbed/testbed.hpp"

namespace {

using namespace iotls;
using bench::time_ms;

constexpr int kWindowMonths[] = {3, 9, 27};

// Calls per case. Generation runs whole-window passes, so a few
// repetitions already dwarf the timer's noise.
constexpr std::size_t kGenerateIters = 3;
constexpr std::size_t kAnalyzeIters = 100;
constexpr std::size_t kHandshakeIters = 500;

/// The full study window at paper scale.
testbed::GeneratorOptions generator() {
  testbed::GeneratorOptions gen;
  gen.seed = 11;
  return gen;
}

/// The first `months` months of the study window.
testbed::GeneratorOptions generator(int months) {
  testbed::GeneratorOptions gen = generator();
  gen.last = common::kStudyStart.plus(months - 1);
  return gen;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_ablation_dataset_scale.json";
  const bool profiling = bench::profile_from_env();
  const obs::WallTimer total;

  std::vector<bench::Measurement> results;
  const auto record = [&](const std::string& name, double value) {
    results.push_back({name, value, "ms/op"});
    std::printf("%-34s %12.3f ms/op\n", name.c_str(), value);
  };

  std::printf("==== bench_ablation_dataset_scale ====\n");
  // The CA universe is built once per process; keep it out of the first
  // timed window.
  (void)pki::CaUniverse::standard();
  for (const int months : kWindowMonths) {
    record("BM_GeneratePassiveDataset/" + std::to_string(months),
           time_ms(kGenerateIters, [&](std::size_t) {
             volatile std::uint64_t sink =
                 testbed::generate_passive_dataset(generator(months))
                     .total_connections();
             (void)sink;
           }));
  }

  const auto dataset = testbed::generate_passive_dataset(generator());
  const auto months = analysis::study_months();
  record("BM_FoldDataset", time_ms(kAnalyzeIters, [&](std::size_t) {
           volatile std::uint64_t sink =
               analysis::fold_dataset(dataset, months).total_connections;
           (void)sink;
         }));
  const auto fold = analysis::fold_dataset(dataset, months);
  record("BM_AnalyzeVersionSeries", time_ms(kAnalyzeIters, [&](std::size_t) {
           volatile std::size_t sink =
               analysis::all_version_series(fold).size();
           (void)sink;
         }));
  record("BM_Summarize", time_ms(kAnalyzeIters, [&](std::size_t) {
           volatile std::uint64_t sink =
               analysis::summarize(fold).total_connections;
           (void)sink;
         }));

  // The unit cost behind every generated (device, destination, month) cell.
  testbed::Testbed tb;
  tb.set_date({2021, 3, 1});
  auto& runtime = tb.runtime("Nest Thermostat");
  const auto& dest = runtime.profile().destinations.front();
  record("BM_FullHandshakeCost", time_ms(kHandshakeIters, [&](std::size_t) {
           volatile bool sink =
               runtime.connect_to(dest, tb.date()).final_result().success();
           (void)sink;
         }));

  if (!bench::write_bench_json(out_path, "ablation_dataset_scale",
                               results.size(), total.elapsed_ms(), results)) {
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  bench::print_profile();
  bench::maybe_write_run_report(
      "bench_ablation_dataset_scale",
      {{"IOTLS_PROFILE", profiling ? "1" : "0"}, {"output", out_path}});
  return 0;
}
