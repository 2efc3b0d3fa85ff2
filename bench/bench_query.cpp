// Query lane: columnar scan throughput with and without column projection,
// group-by scan throughput, a selective query's time and predicate-pushdown
// block skip ratio, compaction throughput, and the scan-vs-oracle
// differential parity gate, emitted as BENCH_query.json.
//
// Knobs:
//   IOTLS_THREADS  scan/compact fan-out width (0 = hardware); results are
//                  byte-identical for every value (the parity gate checks
//                  the scan against the single-threaded oracle).
//
// Usage: bench_query [output.json]   (default ./BENCH_query.json)
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "query/scan.hpp"
#include "store/compact.hpp"
#include "store/writer.hpp"
#include "testbed/longitudinal.hpp"

namespace {

namespace fs = std::filesystem;

/// Scan-vs-oracle differential check: identical header and identical rows
/// in identical order, on the given store.
bool parity_check(const std::string& dir,
                  const iotls::query::QueryOptions& options) {
  const auto scan = iotls::query::run_query(dir, options);
  const auto oracle = iotls::query::run_query_naive(dir, options);
  return scan.columns == oracle.columns && scan.rows == oracle.rows;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_query.json";
  auto options = iotls::bench::reproduction_options();
  const std::size_t threads = options.threads;
  const iotls::obs::WallTimer total;

  iotls::core::IotlsStudy study(options);
  const auto& dataset = study.passive_dataset();

  const std::string dir = "BENCH_query_data.tmp";
  const std::string compact_dir = "BENCH_query_compact.tmp";
  fs::remove_all(dir);
  fs::remove_all(compact_dir);

  // Per-device shards with small blocks: many block summaries, so the skip
  // ratio resolves finely.
  iotls::store::StoreOptions store_options;
  store_options.layout = iotls::store::ShardLayout::PerDevice;
  store_options.block_bytes = 16u * 1024;
  const auto report = study.export_passive_store(dir, store_options);

  // A selective predicate: one device, three months. Block summaries prune
  // both dimensions (device id range per shard, month range per block).
  const std::string device = dataset.devices().front();
  const std::string selective = "device == \"" + device +
                                "\" and month >= \"2019-01\" and "
                                "month <= \"2019-03\"";

  // Full-decode lane: every list column in the output, so no projection.
  iotls::query::QueryOptions full;
  full.columns = {"device",      "dest",      "month",     "count",
                  "version",     "cipher",    "adv_version", "adv_suite",
                  "extension",   "group",     "sigalg"};
  full.threads = threads;
  iotls::query::ScanStats full_stats;
  const auto full_tp = iotls::bench::timed_throughput([&] {
    const auto result = iotls::query::run_query(dir, full);
    full_stats = result.stats;
    return std::make_pair(result.stats.rows_scanned, std::uint64_t{0});
  });

  // Projected lane: same scan, scalar columns only — the five list columns
  // are skipped, not materialized.
  iotls::query::QueryOptions projected;
  projected.threads = threads;
  const auto projected_tp = iotls::bench::timed_throughput([&] {
    const auto result = iotls::query::run_query(dir, projected);
    return std::make_pair(result.stats.rows_scanned, std::uint64_t{0});
  });

  // Pushdown lane: the selective predicate, whose block summaries let the
  // scan skip most blocks unread.
  iotls::query::QueryOptions push;
  push.filter = selective;
  push.threads = threads;
  iotls::query::ScanStats push_stats;
  const auto push_tp = iotls::bench::timed_throughput([&] {
    const auto result = iotls::query::run_query(dir, push);
    push_stats = result.stats;
    return std::make_pair(result.stats.rows_scanned, std::uint64_t{0});
  });
  // Group-by lane: the Figs 1-3 aggregation, connections by established
  // version and month, over every row.
  iotls::query::QueryOptions group_by;
  group_by.group_by = {"version", "month"};
  group_by.threads = threads;
  const auto group_by_tp = iotls::bench::timed_throughput([&] {
    const auto result = iotls::query::run_query(dir, group_by);
    return std::make_pair(result.stats.rows_scanned, std::uint64_t{0});
  });

  const double skip_ratio =
      push_stats.blocks_total > 0
          ? 1.0 - static_cast<double>(push_stats.blocks_scanned) /
                      static_cast<double>(push_stats.blocks_total)
          : 0.0;

  // Compaction lane: coalesce the per-device shards.
  iotls::store::CompactOptions compact_options;
  compact_options.threads = threads;
  iotls::store::CompactReport compact_report;
  const auto compact_tp = iotls::bench::timed_throughput([&] {
    compact_report = iotls::store::compact_store({dir}, compact_dir,
                                                 compact_options);
    return std::make_pair(compact_report.groups, compact_report.bytes_out);
  });

  // Differential parity gate, on the original and the compacted store:
  // projections under four filters, then two group-bys — one of them over
  // a many-to-one rendering (vendor) and a list column.
  std::vector<iotls::query::QueryOptions> gate;
  for (const std::string& filter :
       {std::string{}, selective,
        std::string("complete == false or alert != none"),
        std::string("version == tls1.2 and sni == true")}) {
    iotls::query::QueryOptions options;
    options.filter = filter;
    options.columns = {"device",  "dest",  "month",     "count",
                       "version", "cipher", "adv_suite", "alert"};
    gate.push_back(std::move(options));
  }
  gate.push_back(group_by);
  iotls::query::QueryOptions vendor_suites;
  vendor_suites.group_by = {"vendor", "adv_suite"};
  gate.push_back(std::move(vendor_suites));
  bool parity = true;
  for (auto& options : gate) {
    options.threads = threads;
    parity = parity && parity_check(dir, options);
    parity = parity && parity_check(compact_dir, options);
  }

  std::printf("==== bench_query (shards=%zu, blocks=%llu) ====\n",
              report.shards.size(),
              static_cast<unsigned long long>(report.total_blocks()));
  iotls::bench::print_throughput("scan_full", full_tp);
  iotls::bench::print_throughput("scan_projected", projected_tp);
  iotls::bench::print_throughput("scan_group_by", group_by_tp);
  iotls::bench::print_throughput("pushdown", push_tp);
  iotls::bench::print_throughput("compact", compact_tp);
  std::printf("%-24s %llu/%llu blocks scanned (skip ratio %.3f)\n",
              "pushdown_blocks",
              static_cast<unsigned long long>(push_stats.blocks_scanned),
              static_cast<unsigned long long>(push_stats.blocks_total),
              skip_ratio);
  std::printf("%-24s %llu -> %llu shards\n", "compact_shards",
              static_cast<unsigned long long>(compact_report.input_shards),
              static_cast<unsigned long long>(compact_report.output_shards));
  std::printf("%-24s %s\n", "parity", parity ? "ok" : "FAIL");

  const std::vector<iotls::bench::Measurement> results = {
      {"scan_full_rows", full_tp.records_per_sec(), "rows/s"},
      {"scan_projected_rows", projected_tp.records_per_sec(), "rows/s"},
      {"projection_speedup",
       projected_tp.wall_ms > 0.0 ? full_tp.wall_ms / projected_tp.wall_ms
                                  : 0.0,
       "x"},
      {"scan_group_by_rows", group_by_tp.records_per_sec(), "rows/s"},
      {"pushdown_ms", push_tp.wall_ms, "ms"},
      {"pushdown_skip_ratio", skip_ratio, "fraction"},
      {"compact_groups", compact_tp.records_per_sec(), "groups/s"},
      {"compact_bytes", compact_tp.mib_per_sec(), "MiB/s"},
      {"parity", parity ? 1.0 : 0.0, "bool"},
  };
  if (!iotls::bench::write_bench_json(out_path, "query", 1,
                                      total.elapsed_ms(), results)) {
    fs::remove_all(dir);
    fs::remove_all(compact_dir);
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  auto knobs = iotls::bench::reproduction_knobs(options);
  knobs.emplace_back("output", out_path);
  iotls::obs::emit_run_telemetry("bench_query", std::move(knobs), stdout);

  fs::remove_all(dir);
  fs::remove_all(compact_dir);
  return parity ? 0 : 1;
}
