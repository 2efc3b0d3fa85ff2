// `fleet`: the store, query and fleet pipelines. Each round synthesizes the
// 8-model fleet mix into a fresh temporary store (writes), runs a fixed
// query mix over it (reads), then runs scan campaigns at several scan
// months, and checks every output against its committed digest.
#include <filesystem>
#include <fstream>
#include <sstream>

#include "fleet/campaign.hpp"
#include "fleet/synth.hpp"
#include "query/scan.hpp"
#include "store/reader.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kFleetSeedBase = 20210301;
constexpr std::uint64_t kHoldoutFleetSeedBase = 20220301;

/// About 1.08M groups and 59 MB of shards: larger than the CPU caches.
constexpr std::uint64_t kInstances = 200'000;

/// The bench_fleet vendor mix.
const std::vector<std::string> kModels = {
    "Amazon Echo Dot", "Fire TV",     "Apple TV",        "Google Home Mini",
    "Yi Camera",       "Ring Doorbell", "Smartthings Hub", "Philips Hub"};

/// Every fourth month of the study window, 2018-03 to 2020-03: seven
/// campaigns, about a second and a quarter in all.
std::vector<iotls::common::Month> scan_months() {
  std::vector<iotls::common::Month> months;
  for (auto m = iotls::common::kStudyStart.plus(2);
       m <= iotls::common::kStudyEnd; m = m.plus(4)) {
    months.push_back(m);
  }
  return months;
}

struct NamedQuery {
  const char* name;
  iotls::query::QueryOptions options;
};

/// Block summaries skip nothing on fleet shards (every block spans many
/// months and versions), so every query decodes every block. The full and
/// projected queries keep one quarter's rows: materializing all 1.08M rows
/// as strings would take over a gigabyte.
std::vector<NamedQuery> query_mix() {
  const std::string quarter = "month >= \"2019-07\" and month <= \"2019-09\"";
  iotls::query::QueryOptions full;
  full.filter = quarter;
  full.columns = {"device",    "dest",  "month",       "count",
                  "version",   "cipher", "adv_version", "adv_suite",
                  "extension", "group",  "sigalg"};
  iotls::query::QueryOptions projected;  // default columns
  projected.filter = quarter;
  iotls::query::QueryOptions group_by;
  group_by.group_by = {"version", "month"};
  iotls::query::QueryOptions selective;
  selective.filter = "month == \"2019-06\" and version == tls1.0";
  std::vector<NamedQuery> mix = {{"query.full", full},
                                 {"query.projected", projected},
                                 {"query.group_by", group_by},
                                 {"query.selective", selective}};
  for (auto& q : mix) q.options.threads = kThreads;
  return mix;
}

/// Removes its directory on construction and on every way out of scope.
class ScratchStore {
 public:
  explicit ScratchStore(std::string path) : path_(std::move(path)) {
    fs::remove_all(path_);
  }
  ~ScratchStore() {
    std::error_code ignored;
    fs::remove_all(path_, ignored);
  }
  ScratchStore(const ScratchStore&) = delete;
  ScratchStore& operator=(const ScratchStore&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string shards_digest(const std::string& dir) {
  Digest digest;
  for (const auto& path : iotls::store::list_shards(dir)) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    digest.add(fs::path(path).filename().string());
    digest.add(bytes.str());
  }
  return digest.hex();
}

/// The TSV rendering's bytes, hashed row by row.
std::string rows_digest(const iotls::query::QueryResult& result) {
  Digest digest;
  std::string line;
  for (const auto& column : result.columns) line += column + '\t';
  digest.update(line);
  for (const auto& row : result.rows) {
    line.clear();
    for (const auto& cell : row) {
      line += cell;
      line += '\t';
    }
    line += '\n';
    digest.update(line);
  }
  return digest.hex();
}

bool same_rows(const iotls::query::QueryResult& a,
               const iotls::query::QueryResult& b) {
  return a.columns == b.columns && a.rows == b.rows;
}

}  // namespace

std::vector<Unit> run_fleet(const Context& ctx, RunResult& result) {
  SpanRecorder& spans = *ctx.spans;
  const auto queries = query_mix();
  const auto months = scan_months();

  auto units = run_units(ctx, [&](std::size_t input, bool traced,
                                  Unit& unit) {
    const std::uint64_t fleet_seed =
        ctx.input_seed(kFleetSeedBase, kHoldoutFleetSeedBase, input);
    const std::string key = "fleet/" + std::to_string(fleet_seed) + "/";
    const ScratchStore store(ctx.scratch_dir + "/fleet-store");

    iotls::fleet::SynthOptions synth;
    synth.fleet.seed = fleet_seed;
    synth.fleet.instances = kInstances;
    synth.fleet.devices = kModels;
    synth.universe = ctx.universe;
    synth.threads = kThreads;

    double timed_ms = 0.0;
    const ScopedSpan round(spans, "fleet.round", fleet_seed);

    // Writes.
    std::uint64_t start = now_ns();
    iotls::fleet::SynthReport report;
    {
      const ScopedSpan span(spans, "fleet.synth", fleet_seed, round.id());
      report = iotls::fleet::synthesize_fleet(synth, store.path());
    }
    const double synth_ms = ms_between(start, now_ns());
    timed_ms += synth_ms;
    unit.values["stage.fleet.synth"] = synth_ms;
    {
      const UntracedScope check(ctx, traced);
      ctx.golden->check(key + "shards", shards_digest(store.path()), result);
    }
    unit.values["synth_instances_per_s"] =
        static_cast<double>(report.instances) * 1e3 / synth_ms;
    unit.values["store.write_mib_per_s"] =
        static_cast<double>(report.bytes) / (1024.0 * 1024.0) * 1e3 /
        synth_ms;
    unit.values["store.bytes_per_group"] =
        report.groups > 0 ? static_cast<double>(report.bytes) /
                                static_cast<double>(report.groups)
                          : 0.0;
    unit.values["fleet.template_sets"] =
        static_cast<double>(report.template_sets);
    unit.values["fleet.template_handshakes"] =
        static_cast<double>(report.template_handshakes);

    // Reads.
    double query_ms = 0.0;
    double rows = 0.0;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      start = now_ns();
      iotls::query::QueryResult rows_out;
      {
        const ScopedSpan span(spans, queries[q].name, q, round.id());
        rows_out = iotls::query::run_query(store.path(), queries[q].options);
      }
      const double ms = ms_between(start, now_ns());
      query_ms += ms;
      unit.values[std::string("stage.") + queries[q].name] = ms;
      rows += static_cast<double>(rows_out.stats.rows_scanned);
      const UntracedScope check(ctx, traced);
      ctx.golden->check(key + queries[q].name, rows_digest(rows_out), result);
      if (std::string(queries[q].name) == "query.selective") {
        unit.values["query.selective_blocks_scanned_frac"] =
            rows_out.stats.blocks_total > 0
                ? static_cast<double>(rows_out.stats.blocks_scanned) /
                      static_cast<double>(rows_out.stats.blocks_total)
                : 0.0;
        if (input == 0 && !traced) {
          result.attempt(
              same_rows(rows_out, iotls::query::run_query_naive(
                                      store.path(), queries[q].options)),
              key + "query.selective differs from run_query_naive");
        }
      }
    }
    timed_ms += query_ms;
    unit.values["query_rows_per_s"] = rows * 1e3 / query_ms;

    // Scan campaigns.
    double campaign_ms = 0.0;
    double keys = 0.0;
    double probe_handshakes = 0.0;
    for (const auto& month : months) {
      iotls::fleet::CampaignOptions campaign;
      campaign.fleet = synth.fleet;
      campaign.universe = ctx.universe;
      campaign.threads = kThreads;
      campaign.scan_month = month;
      start = now_ns();
      iotls::fleet::CampaignReport scan;
      {
        const ScopedSpan span(spans, "fleet.campaign",
                              static_cast<std::uint64_t>(month.index()),
                              round.id());
        scan = iotls::fleet::run_campaign(campaign);
      }
      const double ms = ms_between(start, now_ns());
      campaign_ms += ms;
      unit.values["stage.fleet.campaign." + month.str()] = ms;
      keys += static_cast<double>(scan.probe_keys);
      probe_handshakes += static_cast<double>(scan.probe_handshakes);
      const UntracedScope check(ctx, traced);
      ctx.golden->check(key + "campaign." + month.str(),
                        sha256_hex(scan.tables.render()), result);
    }
    timed_ms += campaign_ms;
    unit.values["campaign_keys_per_s"] = keys * 1e3 / campaign_ms;
    unit.values["fleet.probe_keys"] = keys;
    unit.values["fleet.probe_handshakes"] = probe_handshakes;
    return timed_ms;
  });

  // Layer times, from the spans of the traced units (in run order).
  const auto rows = self_ms_per_unit(spans.spans(), "fleet.round");
  std::size_t row = 0;
  for (Unit& unit : units) {
    if (!unit.traced || row >= rows.size()) continue;
    unit.values["store.blocks_written"] =
        family_total(unit.registry, "iotls_store_blocks_written_total");
    for (const auto& [name, ms] : rows[row++]) {
      if (name != "fleet.round") unit.values[name + "_ms"] = ms;
    }
  }

  add_unit_cost(result, units);
  // The pipeline rates are measured on untraced units only.
  for (const char* name : {"synth_instances_per_s", "query_rows_per_s",
                           "campaign_keys_per_s"}) {
    result.add(name, unit_median(units, name, false));
  }
  if (ctx.trace) {
    for (const char* name :
         {"fleet.synth_ms", "query.full_ms", "query.projected_ms",
          "query.group_by_ms", "query.selective_ms", "fleet.campaign_ms"}) {
      add_traced(result, units, name);
    }
    add_traced(result, units, "store.write_mib_per_s");
    add_traced(result, units, "store.bytes_per_group");
    add_traced(result, units, "store.blocks_written");
    add_traced(result, units, "fleet.template_sets");
    add_traced(result, units, "fleet.template_handshakes");
    add_traced(result, units, "fleet.probe_keys");
    add_traced(result, units, "fleet.probe_handshakes");
    add_traced(result, units, "query.selective_blocks_scanned_frac");
  }
  return units;
}

}  // namespace perfbench
