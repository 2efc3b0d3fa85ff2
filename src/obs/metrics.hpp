// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// histograms with a Prometheus-style text exposition.
//
// Naming convention: `iotls_<area>_<name>` (e.g. iotls_tls_alerts_total,
// iotls_pool_tasks_total). A family may declare one label key; children
// are addressed by label value (iotls_tls_alerts_total{description="..."}).
//
// Hot-path writes use cheap thread-local sharding: each (thread, metric)
// pair gets its own cache-line-private cell, allocated lazily on first use
// and aggregated only on scrape. Cells are owned by the metric and outlive
// the threads that wrote them (pool workers are ephemeral — one fan-out's
// worker dies, the next fan-out's worker allocates a fresh cell), so
// aggregation never races with a dying thread.
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

namespace detail {
/// Monotonic id shared by all metric kinds; thread-local shard caches key
/// on it (never reused, so a stale cache entry can never alias a new
/// metric).
std::uint64_t next_metric_id();
}  // namespace detail

class Counter {
 public:
  Counter();
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(std::uint64_t delta = 1);
  [[nodiscard]] std::uint64_t value() const;
  void reset();

 private:
  struct Cell {
    std::atomic<std::uint64_t> v{0};
  };
  Cell* local_cell();

  std::uint64_t id_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Cell>> cells_;
};

class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta);
  /// Raise to `v` if it exceeds the current value (peak tracking, e.g.
  /// pool queue depth).
  void set_max(double v);
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
  [[nodiscard]] double sum() const;
  void reset();

 private:
  struct Cell {
    explicit Cell(std::size_t buckets) : counts(buckets) {}
    std::vector<std::atomic<std::uint64_t>> counts;
    std::atomic<double> sum{0.0};
  };
  Cell* local_cell();

  std::uint64_t id_;
  std::vector<double> bounds_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Cell>> cells_;
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
  Histogram& histogram(const std::string& name, const std::string& help,
                       const std::string& label_key,
                       const std::string& label_value,
                       std::vector<double> bounds);

  // Read-only lookups (nullptr when absent) — for views like
  // IotlsStudy::render_timings().
  [[nodiscard]] const Counter* find_counter(
      const std::string& name, const std::string& label_value = "") const;
  [[nodiscard]] const Gauge* find_gauge(
      const std::string& name, const std::string& label_value = "") const;
  [[nodiscard]] const Histogram* find_histogram(
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
