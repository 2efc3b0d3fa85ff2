// Fleet lane: million-instance synthesis throughput plus scan-campaign
// wall clock (DESIGN.md §14), with byte-parity gates across thread counts,
// emitted as BENCH_fleet.json.
//
// Knobs:
//   IOTLS_BENCH_FLEET_INSTANCES  fleet size (default 1,000,000)
//   IOTLS_BENCH_FLEET_DEVICES    CSV catalog subset for the big lanes
//                                (default: an 8-model vendor mix; "all"
//                                expands the whole 40-model catalog)
//   IOTLS_BENCH_FLEET_SAMPLE     campaign sampling fraction (default 0.01)
//   IOTLS_THREADS                as everywhere (parity lanes always pin
//                                their own thread counts)
//
// Exit status is the parity verdict: a reduced fleet synthesized at
// threads 1 and 8 must produce byte-identical shards, and the campaign
// tables must be byte-identical at threads 1 vs 8.
//
// Usage: bench_fleet [output.json]   (default ./BENCH_fleet.json)
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "fleet/campaign.hpp"
#include "fleet/synth.hpp"
#include "store/io.hpp"
#include "store/reader.hpp"

namespace {

namespace fs = std::filesystem;

std::vector<std::string> bench_devices() {
  const std::string list = iotls::common::env_string(
      "IOTLS_BENCH_FLEET_DEVICES",
      "Amazon Echo Dot,Fire TV,Apple TV,Google Home Mini,Yi Camera,"
      "Ring Doorbell,Smartthings Hub,Philips Hub");
  if (list == "all") return {};
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= list.size()) {
    const std::size_t comma = list.find(',', begin);
    const std::size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > begin) out.push_back(list.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return out;
}

/// Every shard in `dir`, concatenated — the byte-parity comparand.
std::string store_bytes(const std::string& dir) {
  std::string bytes;
  for (const auto& path : iotls::store::list_shards(dir)) {
    iotls::store::CheckedFile file = iotls::store::CheckedFile::open_read(path);
    char buffer[64 * 1024];
    for (;;) {
      const std::size_t n = file.read(buffer, sizeof(buffer));
      if (n == 0) break;
      bytes.append(buffer, n);
    }
  }
  return bytes;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_fleet.json";
  const std::uint64_t instances = static_cast<std::uint64_t>(
      iotls::common::strict_env_long("IOTLS_BENCH_FLEET_INSTANCES", 1'000'000));
  const std::size_t threads = static_cast<std::size_t>(
      iotls::common::strict_env_long("IOTLS_THREADS", 0));
  iotls::bench::profile_from_env();

  const std::vector<std::string> devices = bench_devices();
  const double sample_fraction = [] {
    // Strict like common::strict_env_long: a malformed or out-of-range
    // fraction exits instead of silently running some other campaign.
    const char* name = "IOTLS_BENCH_FLEET_SAMPLE";
    const char* raw = iotls::common::env_string(name, "0.01");
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(raw, &end);
    if (errno != 0 || end == raw || *end != '\0' || !(v >= 0.0 && v <= 1.0)) {
      std::fprintf(stderr,
                   "error: %s='%s' is not a number in [0, 1] "
                   "(e.g. %s=0.01)\n",
                   name, raw, name);
      std::exit(2);
    }
    return v;
  }();
  const iotls::obs::WallTimer total;

  const std::string dir = "BENCH_fleet_data.tmp";
  fs::remove_all(dir);

  // Synthesis lane: the full configured fleet, streamed to shards.
  iotls::fleet::SynthOptions synth_options;
  synth_options.fleet.instances = instances;
  synth_options.fleet.devices = devices;
  synth_options.threads = threads;
  iotls::fleet::SynthReport synth_report;
  const auto synth_tp = iotls::bench::timed_throughput([&] {
    synth_report = iotls::fleet::synthesize_fleet(synth_options, dir);
    return std::make_pair(synth_report.instances, synth_report.bytes);
  });

  // Campaign lane: sampled active scan over the same fleet.
  iotls::fleet::CampaignOptions campaign_options;
  campaign_options.fleet = synth_options.fleet;
  campaign_options.threads = threads;
  campaign_options.sample_fraction.fill(sample_fraction);
  iotls::fleet::CampaignReport campaign_report;
  const auto campaign_tp = iotls::bench::timed_throughput([&] {
    campaign_report = iotls::fleet::run_campaign(campaign_options);
    return std::make_pair(campaign_report.tables.scanned, std::uint64_t{0});
  });

  // Parity gates on a reduced fleet (same models, fewer instances): shard
  // bytes and campaign tables, each at threads 1 vs 8.
  iotls::fleet::SynthOptions parity_synth = synth_options;
  parity_synth.fleet.instances = std::min<std::uint64_t>(instances, 10'000);
  parity_synth.shard_instances = 2'048;
  const std::string parity1 = dir + ".t1";
  const std::string parity8 = dir + ".t8";
  fs::remove_all(parity1);
  fs::remove_all(parity8);
  parity_synth.threads = 1;
  (void)iotls::fleet::synthesize_fleet(parity_synth, parity1);
  parity_synth.threads = 8;
  (void)iotls::fleet::synthesize_fleet(parity_synth, parity8);
  const bool synth_parity = store_bytes(parity1) == store_bytes(parity8);

  iotls::fleet::CampaignOptions parity_campaign = campaign_options;
  parity_campaign.fleet.instances = parity_synth.fleet.instances;
  parity_campaign.sample_fraction.fill(0.05);
  parity_campaign.threads = 1;
  const std::string tables1 =
      iotls::fleet::run_campaign(parity_campaign).tables.render();
  parity_campaign.threads = 8;
  const std::string tables8 =
      iotls::fleet::run_campaign(parity_campaign).tables.render();
  const bool campaign_parity = tables1 == tables8;
  const bool parity = synth_parity && campaign_parity;

  std::printf("==== bench_fleet (instances=%llu, models=%zu) ====\n",
              static_cast<unsigned long long>(instances),
              devices.empty() ? std::size_t{40} : devices.size());
  iotls::bench::print_throughput("synth", synth_tp);
  std::printf("%-24s %10llu groups %10llu conns %8llu templates\n",
              "synth_totals",
              static_cast<unsigned long long>(synth_report.groups),
              static_cast<unsigned long long>(synth_report.connections),
              static_cast<unsigned long long>(synth_report.template_sets));
  std::printf("%-24s %10.3f ms (%llu scanned, %llu keys)\n", "campaign",
              campaign_tp.wall_ms,
              static_cast<unsigned long long>(campaign_report.tables.scanned),
              static_cast<unsigned long long>(campaign_report.probe_keys));
  std::printf("%s", campaign_report.tables.render().c_str());
  std::printf("%-24s %s\n", "synth_parity", synth_parity ? "ok" : "FAIL");
  std::printf("%-24s %s\n", "campaign_parity",
              campaign_parity ? "ok" : "FAIL");

  const std::vector<iotls::bench::Measurement> results = {
      {"synth", synth_tp.wall_ms, "ms"},
      {"synth_instances", synth_tp.records_per_sec(), "instances/s"},
      {"synth_bytes", static_cast<double>(synth_report.bytes), "bytes"},
      {"template_sets", static_cast<double>(synth_report.template_sets),
       "sets"},
      {"campaign", campaign_tp.wall_ms, "ms"},
      {"campaign_scanned",
       static_cast<double>(campaign_report.tables.scanned), "instances"},
      {"campaign_keys", static_cast<double>(campaign_report.probe_keys),
       "keys"},
      {"synth_parity", synth_parity ? 1.0 : 0.0, "bool"},
      {"campaign_parity", campaign_parity ? 1.0 : 0.0, "bool"},
  };
  const bool wrote = iotls::bench::write_bench_json(
      out_path, "fleet", 1, total.elapsed_ms(), results,
      {{"instances", std::to_string(instances)},
       {"models", std::to_string(devices.empty() ? 40 : devices.size())}});
  if (wrote) std::printf("\nwrote %s\n", out_path.c_str());
  iotls::obs::emit_run_telemetry(
      "bench_fleet",
      {{"IOTLS_BENCH_FLEET_INSTANCES", std::to_string(instances)},
       {"IOTLS_BENCH_FLEET_SAMPLE", std::to_string(sample_fraction)},
       {"IOTLS_THREADS", std::to_string(threads)},
       {"output", out_path}},
      stdout);

  fs::remove_all(dir);
  fs::remove_all(parity1);
  fs::remove_all(parity8);
  return (wrote && parity) ? 0 : 1;
}
