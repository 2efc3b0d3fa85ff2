#include "obs/metrics.hpp"

#include <cmath>
#include <cstdio>

#include "common/json.hpp"
#include "obs/report.hpp"

namespace iotls::obs {

namespace {

std::atomic<bool> g_metrics_enabled{true};

std::string format_value(double v) {
  // Integral values print without a fraction (stable, diff-friendly
  // exposition); everything else gets shortest-ish fixed notation.
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return std::string(buf);
}

}  // namespace

bool metrics_enabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool enabled) {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

// ---------------- Histogram ----------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {}

void Histogram::observe(double v) {
  // Buckets are `value <= bound` (Prometheus `le` semantics); the final
  // slot is the implicit +Inf bucket.
  std::size_t bucket = bounds_.size();
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (v <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out;
  out.reserve(counts_.size());
  for (const auto& c : counts_) {
    out.push_back(c.load(std::memory_order_relaxed));
  }
  return out;
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const auto& c : counts_) total += c.load(std::memory_order_relaxed);
  return total;
}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

// ---------------- MetricsRegistry ----------------

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  // Every scrape and run report carries the build identity: a constant
  // gauge labelled with version/compiler/build-type/sanitizers (see
  // obs/report.hpp). Registered once, on first registry access.
  static const bool build_info_registered = [] {
    registry
        .gauge("iotls_build_info",
               "Build identity (constant 1; the label is the payload)",
               "build", build_info_label())
        .set(1.0);
    return true;
  }();
  (void)build_info_registered;
  return registry;
}

MetricsRegistry::Family& MetricsRegistry::family(
    const std::string& name, Kind kind, const std::string& help,
    const std::string& label_key, std::vector<double> bounds) {
  auto [it, inserted] = families_.try_emplace(name);
  if (inserted) {
    it->second.kind = kind;
    it->second.help = help;
    it->second.label_key = label_key;
    it->second.bounds = std::move(bounds);
  }
  return it->second;
}

MetricsRegistry::Child& MetricsRegistry::child(
    Family& fam, const std::string& label_value) {
  auto [it, inserted] = fam.children.try_emplace(label_value);
  if (inserted) {
    switch (fam.kind) {
      case Kind::Counter:
        it->second.counter = std::make_unique<Counter>();
        break;
      case Kind::Gauge:
        it->second.gauge = std::make_unique<Gauge>();
        break;
      case Kind::Histogram:
        it->second.histogram = std::make_unique<Histogram>(fam.bounds);
        break;
    }
  }
  return it->second;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help) {
  return counter(name, help, "", "");
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help,
                                  const std::string& label_key,
                                  const std::string& label_value) {
  std::lock_guard<std::mutex> lock(mutex_);
  return *child(family(name, Kind::Counter, help, label_key, {}),
                label_value)
              .counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help) {
  return gauge(name, help, "", "");
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help,
                              const std::string& label_key,
                              const std::string& label_value) {
  std::lock_guard<std::mutex> lock(mutex_);
  return *child(family(name, Kind::Gauge, help, label_key, {}), label_value)
              .gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help,
                                      std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  return *child(family(name, Kind::Histogram, help, "", std::move(bounds)),
                "")
              .histogram;
}

const MetricsRegistry::Child* MetricsRegistry::find_child(
    const std::string& name, const std::string& label_value) const {
  const auto fam = families_.find(name);
  if (fam == families_.end()) return nullptr;
  const auto it = fam->second.children.find(label_value);
  return it == fam->second.children.end() ? nullptr : &it->second;
}

const Counter* MetricsRegistry::find_counter(
    const std::string& name, const std::string& label_value) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Child* c = find_child(name, label_value);
  return c != nullptr ? c->counter.get() : nullptr;
}

const Gauge* MetricsRegistry::find_gauge(
    const std::string& name, const std::string& label_value) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Child* c = find_child(name, label_value);
  return c != nullptr ? c->gauge.get() : nullptr;
}

std::size_t MetricsRegistry::family_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return families_.size();
}

std::string MetricsRegistry::render_prometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& [name, fam] : families_) {
    out += "# HELP " + name + " " + fam.help + "\n";
    out += "# TYPE " + name + " ";
    switch (fam.kind) {
      case Kind::Counter: out += "counter\n"; break;
      case Kind::Gauge: out += "gauge\n"; break;
      case Kind::Histogram: out += "histogram\n"; break;
    }
    for (const auto& [label_value, ch] : fam.children) {
      const auto labelled = [&](const std::string& extra_key = "",
                                const std::string& extra_value = "") {
        std::string s = name;
        if (fam.kind == Kind::Histogram) s += "_bucket";
        std::vector<std::pair<std::string, std::string>> labels;
        if (!fam.label_key.empty()) {
          labels.emplace_back(fam.label_key, label_value);
        }
        if (!extra_key.empty()) labels.emplace_back(extra_key, extra_value);
        if (!labels.empty()) {
          s += '{';
          for (std::size_t i = 0; i < labels.size(); ++i) {
            if (i > 0) s += ',';
            s += labels[i].first + "=\"" + labels[i].second + "\"";
          }
          s += '}';
        }
        return s;
      };
      switch (fam.kind) {
        case Kind::Counter:
          out += labelled() + " " + std::to_string(ch.counter->value()) +
                 "\n";
          break;
        case Kind::Gauge:
          out += labelled() + " " + format_value(ch.gauge->value()) + "\n";
          break;
        case Kind::Histogram: {
          const auto counts = ch.histogram->bucket_counts();
          std::uint64_t cumulative = 0;
          for (std::size_t i = 0; i < counts.size(); ++i) {
            cumulative += counts[i];
            const std::string le =
                i < fam.bounds.size() ? format_value(fam.bounds[i]) : "+Inf";
            out += labelled("le", le) + " " + std::to_string(cumulative) +
                   "\n";
          }
          // Histogram families are unlabelled.
          out += name + "_sum " + format_value(ch.histogram->sum()) + "\n";
          out += name + "_count " + std::to_string(cumulative) + "\n";
          break;
        }
      }
    }
  }
  return out;
}

std::string MetricsRegistry::render_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"families\": [";
  bool first_family = true;
  for (const auto& [name, fam] : families_) {
    if (!first_family) out += ",";
    first_family = false;
    out += "\n    {\"name\": " + common::json_quote(name) + ", \"type\": \"";
    switch (fam.kind) {
      case Kind::Counter: out += "counter"; break;
      case Kind::Gauge: out += "gauge"; break;
      case Kind::Histogram: out += "histogram"; break;
    }
    out += "\", \"help\": " + common::json_quote(fam.help) +
           ", \"label_key\": " + common::json_quote(fam.label_key) +
           ", \"values\": [";
    bool first_child = true;
    for (const auto& [label_value, ch] : fam.children) {
      if (!first_child) out += ",";
      first_child = false;
      out += "{\"label\": " + common::json_quote(label_value) + ", ";
      switch (fam.kind) {
        case Kind::Counter:
          out += "\"value\": " + std::to_string(ch.counter->value());
          break;
        case Kind::Gauge:
          out += "\"value\": " + format_value(ch.gauge->value());
          break;
        case Kind::Histogram: {
          out += "\"count\": " + std::to_string(ch.histogram->count()) +
                 ", \"sum\": " + format_value(ch.histogram->sum()) +
                 ", \"buckets\": [";
          const auto counts = ch.histogram->bucket_counts();
          for (std::size_t i = 0; i < counts.size(); ++i) {
            if (i > 0) out += ",";
            out += std::to_string(counts[i]);
          }
          out += "]";
          break;
        }
      }
      out += "}";
    }
    out += "]}";
  }
  out += "\n  ]}";
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, fam] : families_) {
    for (auto& [label, ch] : fam.children) {
      if (ch.counter) ch.counter->reset();
      if (ch.gauge) ch.gauge->reset();
      if (ch.histogram) ch.histogram->reset();
    }
  }
}

}  // namespace iotls::obs
