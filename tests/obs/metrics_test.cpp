// MetricsRegistry: bucket edges, concurrent writes from pool workers, and
// the Prometheus exposition format.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/json_probe.hpp"
#include "common/pool.hpp"
#include "obs/metrics.hpp"

namespace iotls::obs {
namespace {

TEST(Counter, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, AggregatesAcrossPoolWorkers) {
  Counter c;
  common::parallel_for(8, 100, [&c](std::size_t) { c.inc(); });
  EXPECT_EQ(c.value(), 100u);
}

TEST(Gauge, SetAndReset) {
  Gauge g;
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Histogram, BucketBoundsAreInclusiveUpperEdges) {
  Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);  // bucket 0 (<= 1)
  h.observe(1.0);  // bucket 0: the bound itself belongs to its bucket
  h.observe(1.5);  // bucket 1 (<= 2)
  h.observe(4.0);  // bucket 2 (<= 4)
  h.observe(9.0);  // +Inf bucket
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 16.0);
}

TEST(Histogram, AggregatesAcrossPoolWorkers) {
  Histogram h({10.0});
  common::parallel_for(4, 64, [&h](std::size_t i) {
    h.observe(i < 32 ? 1.0 : 100.0);
  });
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], 32u);
  EXPECT_EQ(counts[1], 32u);
  EXPECT_EQ(h.count(), 64u);
  EXPECT_DOUBLE_EQ(h.sum(), 32.0 * 1.0 + 32.0 * 100.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(MetricsRegistry, CreateOrGetReturnsStableReferences) {
  MetricsRegistry reg;
  Counter& a = reg.counter("test_total", "help");
  a.inc();
  Counter& b = reg.counter("test_total", "help ignored on re-get");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 1u);
  // reset() zeroes but never invalidates.
  reg.reset();
  EXPECT_EQ(a.value(), 0u);
  a.inc(5);
  EXPECT_EQ(reg.find_counter("test_total")->value(), 5u);
}

TEST(MetricsRegistry, LabelledChildrenAreIndependent) {
  MetricsRegistry reg;
  reg.counter("alerts_total", "h", "description", "unknown_ca").inc(3);
  reg.counter("alerts_total", "h", "description", "decrypt_error").inc();
  EXPECT_EQ(reg.find_counter("alerts_total", "unknown_ca")->value(), 3u);
  EXPECT_EQ(reg.find_counter("alerts_total", "decrypt_error")->value(), 1u);
  EXPECT_EQ(reg.find_counter("alerts_total", "no_such"), nullptr);
  EXPECT_EQ(reg.find_counter("no_such_family"), nullptr);
  EXPECT_EQ(reg.family_count(), 1u);
}

TEST(MetricsRegistry, PrometheusExpositionFormat) {
  MetricsRegistry reg;
  reg.counter("iotls_test_alerts_total", "Alerts seen", "description",
              "unknown_ca")
      .inc(2);
  reg.gauge("iotls_test_workers", "Worker count").set(8);
  reg.histogram("iotls_test_latency", "Latency", {1.0, 2.0}).observe(1.5);
  const std::string text = reg.render_prometheus();
  EXPECT_NE(text.find("# HELP iotls_test_alerts_total Alerts seen"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE iotls_test_alerts_total counter"),
            std::string::npos);
  EXPECT_NE(
      text.find("iotls_test_alerts_total{description=\"unknown_ca\"} 2"),
      std::string::npos);
  EXPECT_NE(text.find("# TYPE iotls_test_workers gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE iotls_test_latency histogram"),
            std::string::npos);
  // Cumulative buckets plus the +Inf bucket, count and sum.
  EXPECT_NE(text.find("iotls_test_latency_bucket{le=\"2\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("iotls_test_latency_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("iotls_test_latency_count 1"), std::string::npos);
}

TEST(MetricsRegistry, JsonKeepsEveryByteOfHelpAndLabels) {
  MetricsRegistry reg;
  reg.counter("iotls_test_total", common::kJsonProbe, common::kJsonProbe,
              common::kJsonProbe)
      .inc();
  const common::Json doc = common::Json::parse(reg.render_json());
  const common::Json& family = doc.at("families").as_array().at(0);
  EXPECT_EQ(family.at("name").as_string(), "iotls_test_total");
  EXPECT_EQ(family.at("help").as_string(), common::kJsonProbe);
  EXPECT_EQ(family.at("label_key").as_string(), common::kJsonProbe);
  const common::Json& child = family.at("values").as_array().at(0);
  EXPECT_EQ(child.at("label").as_string(), common::kJsonProbe);
  EXPECT_DOUBLE_EQ(child.at("value").as_number(), 1.0);
}

TEST(MetricsEnabled, GlobalSwitchRoundTrips) {
  const bool before = metrics_enabled();
  set_metrics_enabled(true);
  EXPECT_TRUE(metrics_enabled());
  set_metrics_enabled(false);
  EXPECT_FALSE(metrics_enabled());
  set_metrics_enabled(before);
}

}  // namespace
}  // namespace iotls::obs
