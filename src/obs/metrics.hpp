// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// histograms with a Prometheus-style text exposition.
//
// Naming convention: `iotls_<area>_<name>` (e.g. iotls_tls_alerts_total,
// iotls_pool_tasks_total). A family may declare one label key; children
// are addressed by label value (iotls_tls_alerts_total{description="..."}).
//
// Every metric is plain atomics: a counter is one relaxed atomic, a
// histogram one atomic count per bucket plus an atomic sum. Writers on any
// thread update them in place, and a scrape reads them; nothing is owned
// per thread, so workers that live for one fan-out leave nothing behind.
//
// Determinism contract: metrics are wall-clock- and scheduling-dependent by
// nature (e.g. fan-out widths). They are an operator surface — NEVER an input
// to any table, figure, or trace. Values only ever flow registry → scrape.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace iotls::obs {

/// Global kill-switch consulted by the hot-path instrumentation helpers
/// (IotlsStudy::Options{metrics_enabled} / the IOTLS_METRICS bench knob).
/// Scrapes and direct registry access keep working either way.
bool metrics_enabled();
void set_metrics_enabled(bool enabled);

class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

class Histogram {
 public:
  /// `bounds` are inclusive upper bucket bounds, strictly increasing; an
  /// implicit +Inf bucket catches the rest.
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double v);
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; size = bounds.size() + 1.
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  void reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  // bounds_.size() + 1
  std::atomic<double> sum_{0.0};
};

/// The registry: families keyed by name, children keyed by label value.
/// References returned by the accessors are stable for the registry's
/// lifetime (reset() zeroes values, it never deletes metrics).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every built-in instrumentation site uses.
  static MetricsRegistry& global();

  // Unlabelled accessors (create on first use, return the existing metric
  // afterwards; help/label/buckets are fixed by the first call).
  Counter& counter(const std::string& name, const std::string& help);
  Gauge& gauge(const std::string& name, const std::string& help);
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> bounds);

  // Labelled accessors: one label key per family.
  Counter& counter(const std::string& name, const std::string& help,
                   const std::string& label_key,
                   const std::string& label_value);
  Gauge& gauge(const std::string& name, const std::string& help,
               const std::string& label_key, const std::string& label_value);

  // Read-only lookups (nullptr when absent).
  [[nodiscard]] const Counter* find_counter(
      const std::string& name, const std::string& label_value = "") const;
  [[nodiscard]] const Gauge* find_gauge(
      const std::string& name, const std::string& label_value = "") const;

  [[nodiscard]] std::size_t family_count() const;

  /// Prometheus text exposition: families sorted by name, children by
  /// label value, with # HELP / # TYPE headers.
  [[nodiscard]] std::string render_prometheus() const;

  /// The same snapshot as a JSON object (the run report embeds this):
  /// {"families": [{"name", "type", "help", "label_key", "values": [...]}]}.
  [[nodiscard]] std::string render_json() const;

  /// Zero every value. Metrics stay registered (references remain valid).
  void reset();

 private:
  enum class Kind { Counter, Gauge, Histogram };

  struct Child {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  struct Family {
    Kind kind = Kind::Counter;
    std::string help;
    std::string label_key;  // empty = unlabelled
    std::vector<double> bounds;  // histograms only
    std::map<std::string, Child> children;  // label value -> metric
  };

  Family& family(const std::string& name, Kind kind,
                 const std::string& help, const std::string& label_key,
                 std::vector<double> bounds);
  Child& child(Family& fam, const std::string& label_value);
  [[nodiscard]] const Child* find_child(const std::string& name,
                                        const std::string& label_value) const;

  mutable std::mutex mutex_;
  std::map<std::string, Family> families_;
};

}  // namespace iotls::obs
