// Longitudinal report: generate the 27-month passive dataset and print the
// per-device version/cipher evolution for one device plus study-wide
// statistics — the §5.1 analysis as a reusable tool.
//
// Usage: ./build/examples/longitudinal_report [device-name] [store-dir]
//
// With a second argument the dataset is also persisted as a sharded
// capture store (DESIGN.md §11) — inspect it with `iotls-store`.
#include <cstdio>

#include "analysis/fold.hpp"
#include "analysis/longitudinal.hpp"
#include "analysis/summary.hpp"
#include "common/table.hpp"
#include "store/writer.hpp"

int main(int argc, char** argv) {
  using namespace iotls;
  const std::string device = argc > 1 ? argv[1] : "Apple TV";
  const std::string store_dir = argc > 2 ? argv[2] : "";

  std::printf("generating 27 months of passive traffic (40 devices)...\n");
  testbed::GeneratorOptions gen;
  gen.count_scale = 0.05;  // report tool: shapes identical, faster counts
  const auto dataset = testbed::generate_passive_dataset(gen);
  const auto months = analysis::study_months();
  const auto fold = analysis::fold_dataset(dataset, months);
  // A device without traffic gets all-empty tallies (every cell gray).
  const auto it = fold.tallies.find(device);
  const analysis::MonthTallies tallies =
      it != fold.tallies.end() ? it->second
                               : analysis::MonthTallies(months.size());

  const auto series = analysis::version_series_from(tallies, device, months);
  std::printf("\n%s — advertised TLS versions by month (%s .. %s)\n",
              device.c_str(), months.front().str().c_str(),
              months.back().str().c_str());
  std::fputs(
      analysis::render_version_heatmap({series}, /*advertised=*/true).c_str(),
      stdout);
  std::printf("(TLS1.2-exclusive: %s)\n",
              series.tls12_exclusive() ? "yes" : "no");

  const auto ciphers = analysis::cipher_series_from(tallies, device, months);
  std::printf("\ninsecure advertised  |%s|\n",
              common::heat_strip(ciphers.insecure_advertised).c_str());
  std::printf("strong established   |%s|\n",
              common::heat_strip(ciphers.strong_established).c_str());

  const auto summary = analysis::summarize(fold);
  std::printf("\n== study-wide ==\n%s",
              analysis::render_summary(summary).c_str());

  if (!store_dir.empty()) {
    store::StoreOptions opts;
    opts.layout = store::ShardLayout::PerDevice;
    opts.seed = gen.seed;
    opts.first = gen.first;
    opts.last = gen.last;
    const auto report = store::write_store(dataset, store_dir, opts);
    std::printf(
        "\nwrote capture store: %zu shards, %llu groups, %llu bytes -> %s\n"
        "(inspect with: iotls-store inspect %s)\n",
        report.shards.size(),
        static_cast<unsigned long long>(report.total_groups()),
        static_cast<unsigned long long>(report.total_bytes()),
        store_dir.c_str(), store_dir.c_str());
  }
  return 0;
}
