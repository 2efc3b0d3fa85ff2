// Tests of the benchmark's own logic: percentiles, span self time, the
// tracing overhead and the correctness checks. Run with
// `python3 perfbench/run.py --self-test`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "golden.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, P99NeedsTenSamplesBeyondIt) {
  EXPECT_EQ(percentile(ramp(1000), 0.99), 990.0);
  EXPECT_FALSE(percentile(ramp(999), 0.99).has_value());
  EXPECT_FALSE(percentile(ramp(100), 0.99).has_value());
}

TEST(Percentile, MedianNeedsTwentySamples) {
  EXPECT_EQ(percentile(ramp(20), 0.5), 10.0);
  EXPECT_FALSE(percentile(ramp(19), 0.5).has_value());
}

TEST(Percentile, IgnoresInputOrder) {
  std::vector<double> v = ramp(2000);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(percentile(v, 0.99), 1980.0);
}

Span span(std::uint64_t id, std::uint64_t parent, std::uint64_t start,
          std::uint64_t end) {
  return Span{id, parent, std::to_string(id), 0, start, end};
}

TEST(SelfTime, NestedSpans) {
  const auto self = self_times({span(1, 0, 0, 100), span(2, 1, 10, 40),
                                span(3, 2, 20, 30)});
  EXPECT_EQ(self.at(1), 70u);
  EXPECT_EQ(self.at(2), 20u);
  EXPECT_EQ(self.at(3), 10u);
}

TEST(SelfTime, OverlappingSiblingsCountOnce) {
  const auto self = self_times({span(1, 0, 0, 100), span(2, 1, 10, 50),
                                span(3, 1, 30, 70), span(4, 1, 40, 45)});
  EXPECT_EQ(self.at(1), 40u);  // children cover [10, 70)
}

TEST(SelfTime, ChildOutsideParentIsClipped) {
  const auto self = self_times({span(1, 0, 0, 100), span(2, 1, 90, 130)});
  EXPECT_EQ(self.at(1), 90u);
  EXPECT_EQ(self.at(2), 40u);
}

TEST(SelfTime, PerUnitRowsSumChildrenByName) {
  std::vector<Span> spans = {span(1, 0, 0, 100), span(2, 1, 0, 30),
                             span(3, 1, 50, 60), span(4, 0, 200, 210)};
  spans[0].name = spans[3].name = "unit";
  spans[1].name = spans[2].name = "layer";
  const auto rows = self_ms_per_unit(spans, "unit");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].at("layer"), 40e-6);
  EXPECT_DOUBLE_EQ(rows[0].at("unit"), 60e-6);
  EXPECT_DOUBLE_EQ(rows[1].at("unit"), 10e-6);
}

Unit unit(double wall_ms, bool traced, bool repeat) {
  Unit u;
  u.wall_ms = wall_ms;
  u.traced = traced;
  u.repeat = repeat;
  return u;
}

TEST(TraceOverhead, WarmRepeatsCancel) {
  // Tracing costs 10%; a second pass over an input runs at 0.9 of the
  // first. The cold first unit takes no part.
  const std::vector<Unit> units = {
      unit(500, false, false),
      unit(100, false, false), unit(99, true, true),
      unit(110, true, false),  unit(90, false, true)};
  EXPECT_NEAR(trace_overhead_frac(units), 0.1, 1e-12);
}

TEST(TraceOverhead, NeedsBothOrders) {
  EXPECT_EQ(trace_overhead_frac({unit(500, false, false),
                                 unit(100, false, false),
                                 unit(99, true, true)}),
            0.0);
}

TEST(Correctness, GoldenCatchesOneByteChange) {
  const std::string path = "perfbench_selftest_golden.txt";
  const std::string table = "Table 5: devices that downgrade\nEcho 1 / 8\n";
  {
    Golden record(path, true);
    RunResult result;
    record.check("paper/42/table5", sha256_hex(table), result);
    ASSERT_TRUE(record.save());
  }
  Golden golden(path, false);
  RunResult same;
  golden.check("paper/42/table5", sha256_hex(table), same);
  EXPECT_TRUE(same.correct());

  std::string changed = table;
  changed[changed.size() - 2] = '9';
  RunResult drifted;
  golden.check("paper/42/table5", sha256_hex(changed), drifted);
  EXPECT_EQ(drifted.failed, 1u);
  EXPECT_FALSE(drifted.correct());

  RunResult missing;
  golden.check("paper/43/table5", sha256_hex(table), missing);
  EXPECT_EQ(missing.failed, 1u);
  std::remove(path.c_str());
}

TEST(Correctness, TimingFooterIsNotDigested) {
  const std::string body = "Summary\nconnections 10\n";
  EXPECT_EQ(strip_timing_footer(body + "\nExperiment timings (4 worker "
                                       "threads)\npassive 1.0\n"),
            body);
  EXPECT_EQ(strip_timing_footer(body), body);
}

TEST(Correctness, HandshakeWithWrongOutcomeFails) {
  using iotls::tls::HandshakeOutcome;
  using iotls::tls::TlsLibrary;
  iotls::tls::ClientResult full;
  full.outcome = HandshakeOutcome::Success;
  full.resumption = iotls::tls::ResumptionState{};
  EXPECT_TRUE(handshake_ok(HandshakeKind::Full, TlsLibrary::OpenSsl, full));
  EXPECT_FALSE(
      handshake_ok(HandshakeKind::Resumed, TlsLibrary::OpenSsl, full));

  iotls::tls::ClientResult resumed = full;
  resumed.resumed = true;
  EXPECT_TRUE(
      handshake_ok(HandshakeKind::Resumed, TlsLibrary::OpenSsl, resumed));
  EXPECT_FALSE(handshake_ok(HandshakeKind::Full, TlsLibrary::OpenSsl, resumed));

  iotls::tls::ClientResult rejected;
  rejected.outcome = HandshakeOutcome::ValidationFailed;
  rejected.verify_error = iotls::x509::VerifyError::BadSignature;
  for (const TlsLibrary library : iotls::tls::table4_libraries()) {
    rejected.alert_sent = iotls::tls::alert_for_verify_error(
        library, iotls::x509::VerifyError::BadSignature);
    EXPECT_TRUE(handshake_ok(HandshakeKind::Rejected, library, rejected));
  }
  // The unknown-CA alert, or a handshake that went through, is wrong.
  rejected.verify_error = iotls::x509::VerifyError::UnknownIssuer;
  EXPECT_FALSE(
      handshake_ok(HandshakeKind::Rejected, TlsLibrary::OpenSsl, rejected));
  EXPECT_FALSE(handshake_ok(HandshakeKind::Rejected, TlsLibrary::OpenSsl, full));
}

}  // namespace
}  // namespace perfbench
