// The flight recorder's determinism contract: tracing must be a pure
// observer (tables/figures byte-identical with tracing Full vs Off), and
// the traces themselves must be byte-identical across thread counts —
// per-device logs merge in catalog order, never completion order.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/hex.hpp"
#include "core/study.hpp"
#include "crypto/sha256.hpp"
#include "devices/catalog.hpp"

namespace iotls::core {
namespace {

const pki::CaUniverse& small_universe() {
  static const pki::CaUniverse universe = [] {
    pki::CaUniverse::Options opts;
    opts.common_count = 30;
    opts.deprecated_count = 58;
    return pki::CaUniverse(opts);
  }();
  return universe;
}

IotlsStudy make_study(std::size_t threads, obs::TraceLevel level,
                      bool metrics) {
  IotlsStudy::Options opts;
  opts.seed = 42;
  opts.threads = threads;
  opts.universe = &small_universe();
  opts.passive_scale = 0.01;
  opts.passive_first = common::Month{2019, 10};
  opts.passive_last = common::Month{2020, 3};
  opts.trace_level = level;
  opts.metrics_enabled = metrics;
  return IotlsStudy(opts);
}

/// The traced experiments: interception (per-device MITM fan-out) and the
/// root-store exploration (two nested fan-outs).
std::string render_traced(IotlsStudy& study) {
  std::string out;
  out += study.render_table7();
  out += study.render_table9();
  return out;
}

TEST(ObsDeterminism, TablesIdenticalWithTracingFullVsOff) {
  auto traced = make_study(8, obs::TraceLevel::Full, false);
  auto plain = make_study(8, obs::TraceLevel::Off, false);
  ASSERT_EQ(render_traced(traced), render_traced(plain));
  EXPECT_GT(traced.traces().size(), 0u);
  EXPECT_EQ(plain.traces().size(), 0u);
}

TEST(ObsDeterminism, TracesIdenticalAcrossThreadCounts) {
  auto serial = make_study(1, obs::TraceLevel::Full, false);
  auto parallel = make_study(8, obs::TraceLevel::Full, false);
  ASSERT_EQ(render_traced(serial), render_traced(parallel));
  const std::string serial_trace = serial.traces().to_jsonl();
  const std::string parallel_trace = parallel.traces().to_jsonl();
  EXPECT_FALSE(serial_trace.empty());
  // Byte-identical: any completion-order merge or wall-clock timestamp in
  // the trace would show up here.
  ASSERT_EQ(serial_trace, parallel_trace);
  EXPECT_EQ(serial.traces().render(), parallel.traces().render());
}

TEST(ObsDeterminism, MetricsOnDoesNotPerturbOutputsAndRegistersFamilies) {
  auto with_metrics = make_study(8, obs::TraceLevel::Off, true);
  auto without = make_study(8, obs::TraceLevel::Off, false);
  // Note construction order: `without` ran last, so the global switch is
  // off while BOTH render — the comparison checks the recorded state, not
  // the switch. Re-enable for the metered run.
  obs::set_metrics_enabled(true);
  const std::string metered = render_traced(with_metrics);
  obs::set_metrics_enabled(false);
  ASSERT_EQ(metered, render_traced(without));

  // The instrumented run populated the registry: handshakes, alerts,
  // validation failures, interceptions, probe verdicts, transports,
  // pool counters, experiment timings, ...
  EXPECT_GE(with_metrics.metrics().family_count(), 12u);
  const std::string prom = with_metrics.metrics().render_prometheus();
  EXPECT_NE(prom.find("iotls_tls_handshakes_total"), std::string::npos);
  EXPECT_NE(prom.find("iotls_mitm_interceptions_total"), std::string::npos);
  EXPECT_NE(prom.find("iotls_probe_verdicts_total"), std::string::npos);
  EXPECT_NE(prom.find("iotls_experiment_wall_ms"), std::string::npos);
}

TEST(ObsDeterminism, FingerprintBootsAreTraced) {
  // Fig 5's boots run on the shared sandbox fan-out, so they record
  // connection spans like every other experiment, merged in device order.
  auto serial = make_study(1, obs::TraceLevel::Handshake, false);
  auto parallel = make_study(8, obs::TraceLevel::Handshake, false);
  ASSERT_EQ(serial.render_fig5(), parallel.render_fig5());

  std::set<std::string> booted;
  for (const auto& span : serial.traces().spans()) {
    const std::string& name = span.name();
    if (!name.starts_with("conn:")) continue;
    // conn:<device>:<host>
    booted.insert(name.substr(5, name.rfind(':') - 5));
  }
  for (const auto& device : devices::active_device_names()) {
    EXPECT_EQ(booted.count(device), 1u) << device;
  }
  ASSERT_EQ(serial.traces().to_jsonl(), parallel.traces().to_jsonl());
}

TEST(ObsDeterminism, HandshakeLevelTracesAreSubsetOfFull) {
  auto handshake = make_study(4, obs::TraceLevel::Handshake, false);
  (void)handshake.render_table7();
  ASSERT_GT(handshake.traces().size(), 0u);
  // Handshake level must carry semantic events but no wire records.
  bool saw_outcome = false;
  for (const auto& span : handshake.traces().spans()) {
    EXPECT_EQ(span.find("record"), nullptr);
    if (span.find("outcome") != nullptr) saw_outcome = true;
  }
  EXPECT_TRUE(saw_outcome);
}

TEST(ObsDeterminism, ActiveExperimentTraceDigest) {
  // Absolute anchor for the active experiments' traces: the Handshake-level
  // spans of Table 7 (the per-device MITM attacks) then Table 5 (the
  // downgrade runner) of the seed-42 study. Every connection there runs a
  // real handshake, so any change to a handshake, a forged identity or the
  // merge order moves this digest; the relative checks above would not see
  // a change that moves both sides.
  auto study = make_study(4, obs::TraceLevel::Handshake, false);
  (void)study.render_table7();
  (void)study.render_table5();
  EXPECT_EQ(common::hex_encode(crypto::Sha256::digest(
                common::to_bytes(study.traces().to_jsonl()))),
            "cc7646c9f815f94f02347533f3b638f5343724ebc5f0fbbfb7d674b799125800");
}

TEST(ObsDeterminism, TimingsBelongToTheirStudy) {
  // A study's timings are its own: a second study running the same
  // experiment overwrites the process-wide iotls_experiment_* gauges, but
  // not the first study's timings().
  auto first = make_study(2, obs::TraceLevel::Off, false);
  (void)first.render_table7();
  const auto before = first.timings();
  ASSERT_EQ(before.size(), 1u);
  EXPECT_EQ(before[0].name, "interception");
  EXPECT_EQ(before[0].threads, 2u);

  auto second = make_study(3, obs::TraceLevel::Off, false);
  (void)second.render_table7();
  ASSERT_EQ(second.timings().size(), 1u);
  const ExperimentTiming theirs = second.timings()[0];
  EXPECT_EQ(theirs.threads, 3u);

  const auto after = first.timings();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].name, before[0].name);
  EXPECT_EQ(after[0].threads, 2u);
  EXPECT_EQ(after[0].tasks, before[0].tasks);
  EXPECT_DOUBLE_EQ(after[0].wall_ms, before[0].wall_ms);
  EXPECT_DOUBLE_EQ(after[0].cpu_ms, before[0].cpu_ms);

  const auto& reg = obs::MetricsRegistry::global();
  const auto* wall = reg.find_gauge("iotls_experiment_wall_ms", "interception");
  const auto* threads =
      reg.find_gauge("iotls_experiment_threads", "interception");
  ASSERT_NE(wall, nullptr);
  ASSERT_NE(threads, nullptr);
  EXPECT_DOUBLE_EQ(wall->value(), theirs.wall_ms);
  EXPECT_DOUBLE_EQ(threads->value(), 3.0);
}

}  // namespace
}  // namespace iotls::core
