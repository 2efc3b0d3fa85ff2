// Shared helpers for the paper reproduction (bench_study) and the lanes
// that reuse its study options.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

#include "bench_json.hpp"
#include "common/env.hpp"
#include "core/study.hpp"

namespace iotls::bench {

/// Standard study options for reproduction binaries: full passive window,
/// paper-scale connection counts. Environment knobs:
///   IOTLS_THREADS  per-device fan-out width (0 = hardware concurrency,
///                  1 = serial); outputs are byte-identical either way.
///   IOTLS_TRACE    handshake tracing (0 = off, 1 = handshake events,
///                  2 = full wire records); summary printed after the run.
///   IOTLS_METRICS  non-zero enables the metrics registry; the Prometheus
///                  text exposition is printed after the run.
///   IOTLS_PROFILE  non-zero enables the wall-clock profiler; the merged
///                  call tree is printed after the run. Operator surface
///                  only — tables and figures are byte-identical either way.
inline core::IotlsStudy::Options reproduction_options() {
  core::IotlsStudy::Options options;
  options.seed = 42;
  options.passive_scale = 1.0;
  options.threads =
      static_cast<std::size_t>(strict_env_long("IOTLS_THREADS", 0));
  options.trace_level =
      obs::trace_level_from_int(strict_env_long("IOTLS_TRACE", 0));
  options.metrics_enabled = strict_env_long("IOTLS_METRICS", 0) != 0;
  profile_from_env();
  return options;
}

/// The knobs reproduction_options() parsed, for the run report.
inline std::vector<std::pair<std::string, std::string>>
reproduction_knobs(const core::IotlsStudy::Options& options) {
  return {
      {"IOTLS_THREADS", std::to_string(options.threads)},
      {"IOTLS_TRACE", std::to_string(static_cast<int>(options.trace_level))},
      {"IOTLS_METRICS", options.metrics_enabled ? "1" : "0"},
      {"IOTLS_PROFILE", obs::profile_enabled() ? "1" : "0"},
  };
}

/// Print the per-experiment wall/CPU timing table (after the tables have
/// been rendered, so the experiments have actually run).
inline void print_timings(const core::IotlsStudy& study) {
  std::fputs("\n", stdout);
  std::fputs(study.render_timings().c_str(), stdout);
}

/// Print whatever observability surfaces the run enabled: the trace
/// summary (IOTLS_TRACE) and the Prometheus exposition (IOTLS_METRICS).
/// The profiler call tree follows from obs::emit_run_telemetry.
inline void print_observability(const core::IotlsStudy& study) {
  if (study.traces().enabled()) {
    std::printf("\n==== handshake traces (IOTLS_TRACE=%s) ====\n",
                obs::trace_level_name(study.traces().level()).c_str());
    std::printf("%s\n", study.traces().summary().c_str());
  }
  if (obs::metrics_enabled()) {
    std::fputs("\n==== metrics (IOTLS_METRICS) ====\n", stdout);
    std::fputs(study.metrics().render_prometheus().c_str(), stdout);
  }
}

/// Mean wall time, in ms, of a fixed 64-bit multiply chain: xorshift steps
/// folded through 64x64→128-bit products, the shape of the bignum kernels'
/// inner loops. No repository code runs inside it, so a ratio over it
/// compares the code under test with the host alone — a gated ratio that
/// only the code under test can move.
inline double reference_chain_ms(std::size_t iters) {
  constexpr std::uint32_t kSteps = 1'000'000;
  return time_ms(iters, [](std::size_t i) {
    std::uint64_t x = i + 1;
    std::uint64_t acc = 0;
    for (std::uint32_t step = 0; step < kSteps; ++step) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const unsigned __int128 product =
          static_cast<unsigned __int128>(x) * (acc | 1);
      acc = static_cast<std::uint64_t>(product >> 64) ^
            static_cast<std::uint64_t>(product);
    }
    volatile std::uint64_t sink = acc;
    (void)sink;
  });
}

/// One timed streaming pass, reported as derived rates. Used by the
/// store lane (write/read throughput) and any future bulk-I/O benches.
struct Throughput {
  double wall_ms = 0.0;
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;

  [[nodiscard]] double records_per_sec() const {
    return wall_ms > 0.0 ? static_cast<double>(records) * 1000.0 / wall_ms
                         : 0.0;
  }
  [[nodiscard]] double mib_per_sec() const {
    return wall_ms > 0.0 ? static_cast<double>(bytes) * 1000.0 / wall_ms /
                               (1024.0 * 1024.0)
                         : 0.0;
  }
};

/// Run `fn` under a wall-clock stopwatch. `fn` returns the {records, bytes}
/// pair it processed; the elapsed time fills in the rates.
template <typename Fn>
Throughput timed_throughput(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  const std::pair<std::uint64_t, std::uint64_t> counts = fn();
  const std::chrono::duration<double, std::milli> wall =
      std::chrono::steady_clock::now() - start;
  return Throughput{wall.count(), counts.first, counts.second};
}

/// One aligned throughput row: wall time plus both derived rates.
inline void print_throughput(const std::string& name, const Throughput& t) {
  std::printf("%-24s %10.3f ms %14.0f rec/s %10.2f MiB/s\n", name.c_str(),
              t.wall_ms, t.records_per_sec(), t.mib_per_sec());
}

/// Print a reproduction banner + body with wall-clock timing.
template <typename Fn>
void run_reproduction(const std::string& id, Fn&& body) {
  std::printf("==== IoTLS reproduction: %s ====\n", id.c_str());
  const auto start = std::chrono::steady_clock::now();
  std::string output = body();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  std::fputs(output.c_str(), stdout);
  std::printf("\n[%s generated in %lld ms]\n", id.c_str(),
              static_cast<long long>(elapsed.count()));
}

}  // namespace iotls::bench
