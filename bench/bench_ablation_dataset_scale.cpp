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

/// tls/client_connect calls anywhere below a testbed/replay zone.
std::uint64_t replay_connects(const obs::ProfileNode& node,
                              bool in_replay = false) {
  in_replay = in_replay || node.name == "testbed/replay";
  std::uint64_t calls =
      in_replay && node.name == "tls/client_connect" ? node.calls : 0;
  for (const auto& [name, child] : node.children) {
    calls += replay_connects(child, in_replay);
  }
  return calls;
}

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
  const auto record = [&](const std::string& name, double value,
                          const std::string& unit = "ms/op") {
    results.push_back({name, value, unit});
    std::printf("%-34s %12.3f %s\n", name.c_str(), value, unit.c_str());
  };

  std::printf("==== bench_ablation_dataset_scale ====\n");
  // The CA universe, the cloud endpoints' keys and the crypto memos are
  // built once per process; one untimed generation keeps them out of the
  // first timed window, so every window times the same warm work.
  (void)pki::CaUniverse::standard();
  (void)testbed::generate_passive_dataset(generator(kWindowMonths[0]));
  for (const int months : kWindowMonths) {
    record("BM_GeneratePassiveDataset/" + std::to_string(months),
           time_ms(kGenerateIters, [&](std::size_t) {
             volatile std::uint64_t sink =
                 testbed::generate_passive_dataset(generator(months))
                     .total_connections();
             (void)sink;
           }));
  }

  // The exact work behind the full window: handshakes the replay actually
  // runs (every other destination-month re-stamps its last records), in
  // iotls-bench-track's gated work-count unit. A difference of snapshots,
  // so an IOTLS_PROFILE run keeps its whole tree.
  obs::set_profile_enabled(true);
  const std::uint64_t connects_before =
      replay_connects(obs::profile_snapshot().root);
  const auto dataset = testbed::generate_passive_dataset(generator());
  record("replay_client_connect/27",
         static_cast<double>(replay_connects(obs::profile_snapshot().root) -
                             connects_before),
         "calls");
  obs::set_profile_enabled(profiling);
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
  obs::emit_run_telemetry(
      "bench_ablation_dataset_scale",
      {{"IOTLS_PROFILE", profiling ? "1" : "0"}, {"output", out_path}},
      stdout);
  return 0;
}
