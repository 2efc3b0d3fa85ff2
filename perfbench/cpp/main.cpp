// perfbench: runs one workload of the IoTLS benchmark and prints its result
// as one JSON line (the last line of stdout). Usually started through
// perfbench/run.py, which builds it first.
//
//   perfbench --workload paper|fleet|handshake --seed N --seconds S
//             --trace 0|1 [--golden FILE] [--scratch DIR] [--spans FILE]
//             [--record]
//
// --trace 0 prints the end-to-end metrics; --trace 1 mixes untraced and
// traced units (see run_units) and prints the per-layer metrics. --record
// runs every input of both seed pools once and rewrites the golden file
// with their digests. Exit status: 0 when every correctness check passed, 1 when one
// failed, 2 on a usage or runtime error.
#include <cstdio>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>

#include "crypto/cache.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"unit_ref", "x"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"unit_s", "s"},
    {"host.reference_ms", "ms"},
    {"pki.universe_ms", "ms"},
    // paper
    {"testbed.build_ms", "ms"},
    {"testbed.passive_ms", "ms"},
    {"core.table4_ms", "ms"},
    {"mitm.downgrade_ms", "ms"},
    {"mitm.old_version_ms", "ms"},
    {"mitm.interception_ms", "ms"},
    {"probe.root_store_ms", "ms"},
    {"fingerprint.study_ms", "ms"},
    {"analysis.ms", "ms"},
    {"core.unattributed_frac", "fraction"},
    {"testbed.passive_par_eff", "fraction"},
    {"mitm.downgrade_par_eff", "fraction"},
    {"mitm.old_version_par_eff", "fraction"},
    {"mitm.interception_par_eff", "fraction"},
    {"probe.root_store_par_eff", "fraction"},
    {"fingerprint.study_par_eff", "fraction"},
    {"tls.handshakes", "count"},
    {"tls.server_handshakes", "count"},
    {"tls.alerts", "count"},
    {"tls.validation_failures", "count"},
    {"mitm.interceptions", "count"},
    {"probe.verdicts", "count"},
    {"testbed.fallback_retries", "count"},
    // crypto memo caches (all workloads)
    {"crypto.sig_verify_hit_ratio", "fraction"},
    {"crypto.sig_verify_lookups", "count"},
    {"crypto.chain_verify_hit_ratio", "fraction"},
    {"crypto.chain_verify_lookups", "count"},
    {"crypto.keypair_hit_ratio", "fraction"},
    {"crypto.keypair_lookups", "count"},
    // fleet
    {"synth_instances_per_s", "instances/s"},
    {"query_rows_per_s", "rows/s"},
    {"campaign_keys_per_s", "keys/s"},
    {"fleet.synth_ms", "ms"},
    {"fleet.template_sets", "count"},
    {"fleet.template_handshakes", "count"},
    {"store.write_mib_per_s", "MiB/s"},
    {"store.bytes_per_group", "bytes"},
    {"store.blocks_written", "count"},
    {"query.full_ms", "ms"},
    {"query.projected_ms", "ms"},
    {"query.group_by_ms", "ms"},
    {"query.selective_ms", "ms"},
    {"query.selective_blocks_scanned_frac", "fraction"},
    {"fleet.campaign_ms", "ms"},
    {"fleet.probe_keys", "count"},
    {"fleet.probe_handshakes", "count"},
    // handshake
    {"handshakes_per_s", "hs/s"},
    {"full_hs_ms_p50", "ms"},
    {"full_hs_ms_p99", "ms"},
    {"full_hs_samples", "count"},
    {"resumed_hs_ms_p50", "ms"},
    {"resumed_hs_ms_p99", "ms"},
    {"resumed_hs_samples", "count"},
    {"rejected_hs_ms_p50", "ms"},
    {"rejected_hs_ms_p99", "ms"},
    {"rejected_hs_samples", "count"},
    {"tls.resume_accept_frac", "fraction"},
    {"tls.resume_offers", "count"},
    // every workload
    {"crypto.self_ms", "ms"},
    {"tls.self_ms", "ms"},
    {"store.self_ms", "ms"},
    {"query.self_ms", "ms"},
    {"host.steal_frac", "fraction"},
    {"trace.overhead_frac", "fraction"},
};

/// Each setup sample builds the standard CA universe from cold caches; the
/// median of all of them is reported. Some are built before the units and
/// the rest after them, so that the samples span the whole run rather than
/// one slow or fast phase of the host at its start.
constexpr int kSetupsBefore = 3;
constexpr int kSetupsAfter = 4;

/// Builds the CA universe into `universe` from cold crypto caches and
/// returns the milliseconds it took.
double build_universe(std::optional<iotls::pki::CaUniverse>& universe,
                      SpanRecorder& spans, std::uint64_t request) {
  universe.reset();
  iotls::crypto::crypto_caches_clear();
  const std::uint64_t start = now_ns();
  const ScopedSpan span(spans, "pki.universe", request);
  universe.emplace(iotls::pki::CaUniverse::Options{});
  return ms_between(start, now_ns());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool record = false;
  std::string golden = "perfbench/golden.txt";
  std::string scratch = ".bench_build/scratch";
  std::string spans;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record") {
      args.record = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      have_seconds = args.seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--golden") {
      args.golden = value;
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload != "paper" && args.workload != "fleet" &&
      args.workload != "handshake") {
    throw std::invalid_argument("--workload must be paper, fleet or handshake");
  }
  if (!args.record && !(have_seed && have_seconds && have_trace)) {
    throw std::invalid_argument("--seed, --seconds > 0 and --trace are required");
  }
  return args;
}

/// Per traced unit: hit ratio and lookups of each crypto memo cache.
void add_cache_ratios(std::vector<Unit>& units) {
  for (Unit& unit : units) {
    if (!unit.traced) continue;
    for (const char* cache : {"sig_verify", "chain_verify", "keypair"}) {
      const std::string label = std::string("{cache=\"") + cache + "\"}";
      const double hits =
          unit.registry["iotls_crypto_cache_hits_total" + label];
      const double lookups =
          hits + unit.registry["iotls_crypto_cache_misses_total" + label];
      const std::string name = std::string("crypto.") + cache;
      unit.values[name + "_lookups"] = lookups;
      unit.values[name + "_hit_ratio"] = lookups > 0.0 ? hits / lookups : 0.0;
    }
  }
}

int run(const Args& args) {
  // The registry counts by default; tracing is on only inside traced units.
  iotls::obs::set_metrics_enabled(false);
  iotls::obs::set_profile_enabled(false);
  SpanRecorder spans;
  Golden golden(args.golden, args.record);
  std::filesystem::create_directories(args.scratch);

  RunResult result;
  const CpuTicks ticks_before = read_cpu_ticks();

  // Setup: the CA universe every process builds before any work. Caches
  // are cleared first so each build pays the full key generation.
  spans.set_enabled(args.trace);
  std::optional<iotls::pki::CaUniverse> universe;
  std::vector<double> setup_ms;
  for (int i = 0; i < kSetupsBefore; ++i) {
    setup_ms.push_back(
        build_universe(universe, spans, static_cast<std::uint64_t>(i)));
  }
  spans.set_enabled(false);

  Context ctx;
  ctx.seed = args.seed;
  ctx.seconds = args.seconds;
  ctx.trace = args.trace;
  ctx.record = args.record;
  ctx.universe = &*universe;
  ctx.golden = &golden;
  ctx.spans = &spans;
  ctx.scratch_dir = args.scratch;

  std::vector<Unit> units;
  if (args.workload == "paper") units = run_paper(ctx, result);
  if (args.workload == "fleet") units = run_fleet(ctx, result);
  if (args.workload == "handshake") units = run_handshake(ctx, result);

  spans.set_enabled(args.trace);
  std::optional<iotls::pki::CaUniverse> rebuilt;
  for (int i = 0; i < kSetupsAfter; ++i) {
    setup_ms.push_back(build_universe(
        rebuilt, spans, static_cast<std::uint64_t>(kSetupsBefore + i)));
  }
  spans.set_enabled(false);
  result.add("setup_s", median(setup_ms) / 1e3);
  result.add("pki.universe_ms", median(setup_ms));

  result.add("peak_rss_mb", peak_rss_mb());
  result.add("host.steal_frac", steal_frac(ticks_before, read_cpu_ticks()));
  if (args.trace) {
    add_cache_ratios(units);
    for (const char* name :
         {"crypto.sig_verify_hit_ratio", "crypto.sig_verify_lookups",
          "crypto.chain_verify_hit_ratio", "crypto.chain_verify_lookups",
          "crypto.keypair_hit_ratio", "crypto.keypair_lookups",
          "crypto.self_ms", "tls.self_ms", "store.self_ms", "query.self_ms"}) {
      add_traced(result, units, name);
    }
    result.add("trace.overhead_frac", trace_overhead_frac(units));
    if (!args.spans.empty() && !spans.write_jsonl(args.spans)) {
      result.attempt(false, "cannot write spans to " + args.spans);
    }
  }
  if (args.record && !golden.save()) {
    result.attempt(false, "cannot write " + args.golden);
  }

  // Every measured value, for people; the result is the last stdout line.
  std::fprintf(stderr, "perfbench %s seed=%llu units=%zu\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), units.size());
  for (const auto& [name, value] : result.measured) {
    std::fprintf(stderr, "  %-36s %.6g\n", name.c_str(), value);
  }
  std::fprintf(stderr, "  unit wall ms (reference ms):");
  for (const Unit& unit : units) {
    std::fprintf(stderr, " %.1f%s (%.2f)", unit.wall_ms,
                 unit.traced ? "t" : "", unit.reference_ms);
  }
  std::fprintf(stderr, "\n  setup ms:");
  for (const double ms : setup_ms) std::fprintf(stderr, " %.1f", ms);
  std::fprintf(stderr, "\n");
  for (const auto& failure : result.failures) {
    std::fprintf(stderr, "FAILED: %s\n", failure.c_str());
  }
  std::printf("%s\n",
              result_json(result, args.trace ? kPerLayer : kEndToEnd).c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
